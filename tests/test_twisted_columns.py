"""The twisted complex against the generic expansion of its differential,
and against the operator-pair mapping cone.

``_twisted_complex`` computes the brace terms that read only components of
``alpha`` (``nu{s tau}``, ``s tau{nu}``) once per complex and keeps them in
a table that lives in the complex's column closure. Every column must
still equal the expansion through the public ``NjlLInfty.l``, one
``l([alpha] * i + [x])`` per ``i`` (``tests/oracles.py``), entry for entry,
and the table must be freed with the complex. From degree 2 on, its
matrices are the cone's up to one diagonal sign change of basis.
"""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction
from math import factorial

import pytest

from njkit.braces import (
    CNjLElement,
    GradedSpace,
    NjlLInfty,
    SuspendedHom,
    _AlphaBraces,
    _twisted_complex,
    canonical_tuples,
    mc_candidate,
    nu_from_algebra,
    shuffle_brace,
    tau_from_operator,
)
from njkit.cohomology import _complexes
from njkit.lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    adjoint_nijenhuis,
    validate_nijenhuis,
    vector,
)

from oracles import twisted_column_by_l, twisted_l1
from structures import semidirect_nijenhuis
from test_acceptance import _book3, _sl2_centre, _solvable2


def _sl2() -> LieAlgebra:
    return LieAlgebra(
        3, {(0, 1): vector([0, 2, 0]), (0, 2): vector([0, 0, -2]), (1, 2): vector([1, 0, 0])}
    )


def _sl2_semidirect() -> tuple[LieAlgebra, Endomorphism]:
    base = NijenhuisLieAlgebra(_sl2(), Endomorphism.diagonal([1, 1, 2]))
    nja = semidirect_nijenhuis(base, adjoint_nijenhuis(base))
    assert nja.operator == Endomorphism.diagonal([1, 1, 2, 1, 1, 2])
    return nja.algebra, nja.operator


def _book5() -> tuple[LieAlgebra, Endomorphism]:
    # [e0, ei] = ei: every diagonal operator has zero torsion.
    brackets = {(0, i): vector([1 if k == i else 0 for k in range(5)]) for i in range(1, 5)}
    return LieAlgebra(5, brackets), Endomorphism.diagonal([1, 2, 3, -1, 2])


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def _rebased_sl2() -> tuple[LieAlgebra, Endomorphism]:
    # sl2 with diag(1, 1, 2) in the basis f_a = sum_b C[b][a] e_b: brackets
    # and operator pick up fractional constants and off-diagonal entries.
    alg, p = _sl2(), Endomorphism.diagonal([1, 1, 2])
    F = Fraction
    c = [[F(2, 3), F(0), F(1, 2)], [F(-1, 4), F(3), F(0)], [F(0), F(5, 7), F(-3, 2)]]
    cols = [[c[b][a] for b in range(3)] for a in range(3)]

    def in_f(v) -> list[Fraction]:
        return _solve(c, list(v))

    brackets = {}
    for a in range(3):
        for b in range(a + 1, 3):
            value = alg.bracket(vector(cols[a]), vector(cols[b]))
            brackets[(a, b)] = vector(in_f(value))
    rows = [[F(0)] * 3 for _ in range(3)]
    for a in range(3):
        image = in_f(p.apply(vector(cols[a])))
        for b in range(3):
            rows[b][a] = image[b]
    rebased = LieAlgebra(3, brackets), Endomorphism.from_rows(rows)
    assert validate_nijenhuis(*rebased).ok
    assert any(v.denominator > 1 for row in rows for v in row)
    return rebased


STRUCTURES = {
    "sl2xsl2": _sl2_semidirect,
    "book5": _book5,
    "sl2-diag252": lambda: (_sl2(), Endomorphism.diagonal([2, 5, 2])),
    "sl2-rebased": _rebased_sl2,
}


def _table(cx) -> _AlphaBraces:
    cells = [cell.cell_contents for cell in cx._column.__closure__]
    (table,) = [c for c in cells if isinstance(c, _AlphaBraces)]
    return table


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_every_column_matches_the_generic_expansion(name):
    alg, p = STRUCTURES[name]()
    cx = _twisted_complex(alg, p)
    structure = NjlLInfty(GradedSpace.suspended_ungraded(alg.dim))
    cand = mc_candidate(alg, p)
    alpha = CNjLElement(lie=[cand.b[2]], njo=[cand.r[1]])
    for n in (1, 2, 3):
        keys = cx.keys(n)
        assert keys
        for key in keys:
            assert cx._column(n, key) == twisted_column_by_l(structure, alpha, n, key), (n, key)
    # The shared table holds the alpha-only terms, each equal to its brace.
    table = _table(cx)
    nu, stau = table.alpha.lie[0], table.alpha.njo[0].suspend_output()
    for term in (shuffle_brace(nu, [stau]), shuffle_brace(stau, [nu])):
        assert any(h.values == term.values for h in table._done.values())


def test_public_twisted_l1_matches_the_generic_expansion():
    # A per-call table on mixed elements with several components per side;
    # alpha has two components on each side, so the table must tell apart
    # both the heads of chains and the maps that wrap them.
    rng = random.Random(61)
    alg, p = _rebased_sl2()
    structure = NjlLInfty(GradedSpace.suspended_ungraded(alg.dim))
    space = structure.space

    def hom(arity, sv_valued):
        values = {
            tup: {(1, j): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(3)}
            for tup in canonical_tuples(space, arity)
        }
        return SuspendedHom(space, arity, (1 if sv_valued else 0) - arity, sv_valued, values)

    alpha = CNjLElement(
        lie=[nu_from_algebra(alg), hom(2, True)], njo=[tau_from_operator(p), hom(1, False)]
    )
    x = CNjLElement(lie=[hom(1, True), hom(2, True)], njo=[hom(1, False), hom(2, False)])
    got = twisted_l1(structure, alpha, x)
    expected = CNjLElement()
    for i in range(1, 4):
        coeff = Fraction((-1) ** ((i * (i + 1) // 2) % 2), factorial(i))
        expected = expected.add(structure.l([alpha] * i + [x]).scale(coeff))
    assert got.collect() == expected.collect()


def test_the_alpha_table_dies_with_the_complex():
    # The table lives in the complex's closure and nowhere else: with the
    # cyclic collector off, dropping the complex frees it at once.
    alg, p = _book5()
    gc.collect()
    gc.disable()
    try:
        cx = _twisted_complex(alg, p)
        assert cx.betti(2) == [0, 6, 16]
        table = _table(cx)
        assert table._done
        ref = weakref.ref(table)
        del cx, table
        assert ref() is None
    finally:
        gc.enable()


# The criterion-4 fixtures of ``tests/test_acceptance.py``.
CRITERION_4 = {
    "sl2-diag112": lambda: (_sl2(), Endomorphism.diagonal([1, 1, 2])),
    "solvable2": lambda: (_solvable2(), Endomorphism.diagonal([1, 2])),
    "book3": lambda: (_book3(), Endomorphism.diagonal([1, 2, 3])),
    "sl2-centre": lambda: (_sl2_centre(), Endomorphism.diagonal([1, 1, 2, 3])),
}


def _cone_key(key: tuple) -> tuple:
    """A twisted basis key ``(tag, ((1, i1), ...), (1, b))`` as the cone key
    ``(tag, (i1, ...), b)`` of the same cochain."""
    tag, args, (_, b) = key
    return tag, tuple(i for _, i in args), b


def _sign(key: tuple) -> int:
    """The diagonal entry of S on a twisted basis key.

    ``to_suspended`` and ``cochain_to_plain`` carry a cochain's values over
    verbatim: the arity-n map sends ``(s x_1, ..., s x_n)`` to ``s c(x_1,
    ..., x_n)`` or ``c(x_1, ..., x_n)``. The decalage of Lada-Markl sends
    ``c`` to ``s c (s^-1)^n`` or ``c (s^-1)^n`` instead, and the k-th
    ``s^-1`` passes the k - 1 odd arguments in front of it, so on
    ``(s x_1, ..., s x_n)`` it carries the sign (-1)^(0 + 1 + ... + (n-1))
    = (-1)^(n(n-1)/2), on suspended-valued and plain-valued maps alike.
    The remaining sign is the cone's convention: ``MappingCone`` writes
    ``(a, b) -> (d_ce a, -psi a - d_njo b)``, and under the decalage the
    twisted operation is ``(a, b) -> (d_ce a, psi a - d_njo b)``, the same
    cone after the change of basis ``b -> -b`` on the njo block. So S is
    (-1)^(n(n-1)/2) on lie-n and -(-1)^(m(m-1)/2) on njo-m; being diagonal
    with entries +-1, it is its own inverse. The test below checks the
    whole identity, so a wrong sign in either source shows as a mismatch.
    """
    tag, args, _ = key
    n = len(args)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign if tag == "lie" else -sign


@pytest.mark.parametrize("name", sorted(CRITERION_4) + sorted(STRUCTURES))
def test_twisted_complex_is_the_cone_through_a_diagonal_sign(name):
    """``d_tw = S d_cone S`` entry by entry in every degree from 2 on. In
    degree 1 the cone also holds njo-0, the constants that the twisted
    complex leaves out (see ``njl_twisted_betti``)."""
    alg, p = {**CRITERION_4, **STRUCTURES}[name]()
    nja = NijenhuisLieAlgebra(alg, p)
    twisted = _twisted_complex(alg, p)
    cone = _complexes(nja, adjoint_nijenhuis(nja))["njl"]
    # The top of both complexes is degree dim + 1. sl2xsl2's degrees 4 to 6
    # would add about a second, so it stops at the degrees the column test
    # above reaches.
    top = alg.dim + 1 if alg.dim <= 5 else 3
    for n in range(2, top + 1):
        cols, rows = twisted.keys(n), twisted.keys(n + 1)
        assert [_cone_key(k) for k in cols] == cone.keys(n), n
        assert [_cone_key(k) for k in rows] == cone.keys(n + 1), n
        expected = {
            (r, c): _sign(rows[r]) * v * _sign(cols[c])
            for (r, c), v in cone.matrix(n).entries.items()
            if v
        }
        got = {pos: v for pos, v in twisted.matrix(n).entries.items() if v}
        assert got == expected, n
