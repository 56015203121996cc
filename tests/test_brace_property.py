"""The shuffle brace against its definition on sparse random maps.

``shuffle_brace`` visits only the input words that the nonzero entries of
its arguments can reach. Every other word must sum to zero, so the brace
must equal ``brace_subset_sum``, which sums over every canonical word, on
any input: sparse maps on mixed-parity spaces, with arguments whose values
have components the outer map never reads, with and without single inputs
left over. The result's keys must come out in lexicographic order. A unary
outer map takes the postcomposition route, checked on its own below.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from njkit.braces import GradedSpace, SuspendedHom, canonical_tuples, shuffle_brace  # noqa: E402

from oracles import brace_subset_sum  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, database=None, derandomize=True)

# {1: 2, 2: 1}: the even degree-2 element may repeat inside a word.
# {1: 1, 2: 1, 3: 2}: an odd part in degree 3 next to degrees 1 and 2.
SPACES = (GradedSpace.from_dims({1: 2, 2: 1}), GradedSpace.from_dims({1: 1, 2: 1, 3: 2}))
COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2)])


@st.composite
def sparse_homs(
    draw, space, arity, sv_valued, avoid=None, target=None, unread=()
) -> SuspendedHom:
    """A map with one to four nonzero values, on keys that leave out
    ``avoid`` while others remain. With a ``target`` element, one value has
    a component along it, and maybe one along an element of ``unread`` of
    the same degree next to it."""
    shift = 0 if sv_valued else 1
    keys = list(canonical_tuples(space, arity))
    keys = [k for k in keys if avoid not in k] or keys
    outputs = [target[0]] if target else [d for d, _ in space.dims]
    total = draw(
        st.sampled_from(
            sorted({d - shift - sum(e[0] for e in k) for k in keys for d in outputs})
        )
    )

    def output_degree(key):
        return total + sum(e[0] for e in key) + shift

    keys = [k for k in keys if space.dim(output_degree(k))]
    values = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True)):
        d = output_degree(key)
        outs = [(d, i) for i in range(space.dim(d))]
        chosen = draw(st.lists(st.sampled_from(outs), min_size=1, unique=True))
        values[key] = {e: draw(COEFFS) for e in chosen}
    if target:
        hit = draw(st.sampled_from([k for k in keys if output_degree(k) == target[0]]))
        values.setdefault(hit, {})[target] = draw(COEFFS)
        beside = [e for e in unread if e[0] == target[0]]
        if beside and draw(st.booleans()):
            values[hit][draw(st.sampled_from(beside))] = draw(COEFFS)
    return SuspendedHom(space, arity, total, sv_valued, values)


@st.composite
def brace_cases(draw):
    space = draw(st.sampled_from(SPACES))
    n = draw(st.integers(1, 3))
    m = n + draw(st.integers(0, 3 - n))
    g_arities = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    # Keep the output arity, and so the oracle's enumeration, small.
    if m - n + sum(g_arities) > 5:
        g_arities = [1] * n
    # Half of the time no key of the outer map holds one chosen basis element.
    hidden = draw(st.sampled_from(space.basis())) if draw(st.booleans()) else None
    f = draw(sparse_homs(space, m, draw(st.booleans()), avoid=hidden))
    # Each argument has a value along its own element of one key of f, so
    # that some routings reach a nonzero value of f; that value may also
    # have a component f never reads.
    key = draw(st.permutations(draw(st.sampled_from(sorted(f.values)))))
    read = {e for k in f.values for e in k}
    unread = [e for e in space.basis() if e not in read]
    gs = [
        draw(sparse_homs(space, a, True, target=key[t], unread=unread))
        for t, a in enumerate(g_arities)
    ]
    return f, gs


@SETTINGS
@given(brace_cases())
def test_brace_visits_every_word_with_a_nonzero_sum(case):
    f, gs = case
    braced = shuffle_brace(f, gs)
    assert braced == brace_subset_sum(f, gs)
    assert list(braced.values) == sorted(braced.values)


@st.composite
def unary_cases(draw):
    space = draw(st.sampled_from(SPACES))
    f = draw(sparse_homs(space, 1, draw(st.booleans())))
    # The argument has a value along an element f reads, and maybe along
    # one it does not.
    ((target,),) = [draw(st.sampled_from(sorted(f.values)))]
    read = {key[0] for key in f.values}
    unread = [e for e in space.basis() if e not in read]
    g = draw(sparse_homs(space, draw(st.integers(1, 3)), True, target=target, unread=unread))
    return f, g


@SETTINGS
@given(unary_cases())
def test_unary_brace_is_postcomposition(case):
    f, g = case
    braced = shuffle_brace(f, [g])
    assert braced == brace_subset_sum(f, [g])
    assert list(braced.values) == sorted(braced.values)
