"""The trusted internal constructors against the validating public ones.

Arithmetic on ``Poly``, the algebroid forms, ``Cochain`` and
``SuspendedHom``, and the action of a graded field on a scalar form, build
their results without re-checking them. Every such result must be exactly
what the public constructor would have built from the same data: equal to
its own re-validation, with no zero coefficient or entry left in, and with
``Fraction`` values only. The public constructors keep rejecting malformed
data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from njkit.algebroid import AlgebroidForm, FiberForm, GradedField, field_apply  # noqa: E402
from njkit.braces import GradedSpace, SuspendedHom  # noqa: E402
from njkit.cohomology import Cochain  # noqa: E402
from njkit.poly import Poly  # noqa: E402
from oracles import ScalarForm, de_rham_d, desuspend_output, wedge  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Few coefficients and low exponents, so that sums and products cancel often.
COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)])


@st.composite
def polys(draw, n_vars: int | None = None) -> Poly:
    n = draw(st.integers(0, 3)) if n_vars is None else n_vars
    keys = st.tuples(*[st.integers(0, 2)] * n)
    return Poly(n, draw(st.dictionaries(keys, COEFFS, max_size=4)))


@st.composite
def poly_pairs(draw) -> tuple[Poly, Poly]:
    p = draw(polys())
    # Half of the time the second operand shares terms with the first.
    q = draw(polys(p.n_vars))
    if draw(st.booleans()):
        q = q.sub(p.scale(draw(COEFFS)))
    return p, q


def assert_clean_poly(r: Poly) -> None:
    assert r == Poly(r.n_vars, dict(r.terms))
    assert all(r.terms.values())
    assert all(type(c) is Fraction for c in r.terms.values())


@SETTINGS
@given(poly_pairs(), COEFFS, st.integers(0, 2))
def test_poly_arithmetic_returns_validated_values(pair, c, i):
    p, q = pair
    results = [p.add(q), p.sub(q), p.neg(), p.scale(c), p.scale(0), p.mul(q), q.mul(p)]
    results += [p.add(p.neg()), p.sub(p), Poly.zero(p.n_vars), Poly.const(p.n_vars, c)]
    if p.n_vars:
        var = 1 + i % p.n_vars
        results += [p.partial(var), Poly.variable(p.n_vars, var)]
    for r in results:
        assert_clean_poly(r)
    assert p.add(p.neg()).is_zero()


@st.composite
def algebroid_forms(draw, base_dim: int, rank: int, degree: int) -> AlgebroidForm:
    keys = [(I, q) for I in combinations(range(1, rank + 1), degree) for q in range(1, rank + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return AlgebroidForm(base_dim, rank, degree, {k: draw(polys(base_dim)) for k in chosen})


@st.composite
def form_cases(draw):
    base_dim = draw(st.integers(0, 2))
    rank = draw(st.integers(1, 3))
    degree = draw(st.integers(0, min(rank, 2)))
    K = draw(algebroid_forms(base_dim, rank, degree))
    L = draw(algebroid_forms(base_dim, rank, degree))
    sections = [draw(algebroid_forms(base_dim, rank, 0)) for _ in range(degree)]
    return K, L, sections, draw(polys(base_dim)), draw(COEFFS)


def assert_clean_form(F) -> None:
    degree = F.form_degree if isinstance(F, AlgebroidForm) else F.degree
    assert F == type(F)(F.base_dim, F.rank, degree, dict(F.entries))
    for poly in F.entries.values():
        assert not poly.is_zero()
        assert_clean_poly(poly)


@SETTINGS
@given(form_cases())
def test_form_arithmetic_returns_validated_values(case):
    K, L, sections, h, c = case
    results = [K.add(L), K.sub(L), K.add(K.neg()), K.neg(), K.scale(c), K.scale(0)]
    results += [K.poly_scale(h), K.evaluate(sections), L.evaluate(sections)]
    # ``_with`` drops the entries whose coefficient is zero.
    cancelled = {key: poly.sub(poly) for key, poly in K.entries.items()}
    results += [K._with(cancelled), K._with({**dict(L.entries), **cancelled})]
    assert K._with(cancelled).is_zero()
    for r in results:
        assert_clean_form(r)
    F = FiberForm(K.base_dim, K.rank, 1, {(1,): h})
    for r in (F.add(F.neg()), F.scale(c), wedge(F, F)):
        assert_clean_form(r)
    assert_clean_poly(F.evaluate([K.evaluate(sections)]))


@st.composite
def graded_fields(draw, base_dim: int, rank: int, degree: int | None = None) -> GradedField:
    degree = draw(st.integers(0, 2)) if degree is None else degree
    parts = []
    for arity, bound in ((degree, base_dim), (degree + 1, rank)):
        keys = [
            (I, i) for I in combinations(range(1, rank + 1), arity) for i in range(1, bound + 1)
        ]
        chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)) if keys else []
        parts.append({k: draw(polys(base_dim)) for k in chosen})
    return GradedField(base_dim, rank, degree, *parts)


def assert_clean_field(X: GradedField) -> None:
    assert type(X) is GradedField
    assert X == GradedField(X.base_dim, X.rank, X.degree, dict(X.a_part), dict(X.d_part))
    for poly in [*X.a_part.values(), *X.d_part.values()]:
        assert not poly.is_zero()
        assert_clean_poly(poly)


@SETTINGS
@given(st.data())
def test_graded_field_arithmetic_returns_validated_fields(data):
    base_dim, rank = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    X = data.draw(graded_fields(base_dim, rank))
    # Half of the time Y shares some of X's entries.
    Y = data.draw(graded_fields(base_dim, rank, X.degree))
    if data.draw(st.booleans()):
        Y = Y.add(X.scale(data.draw(COEFFS)))
    c = data.draw(COEFFS)
    for r in (X.add(Y), X.sub(Y), X.neg(), X.scale(c), X.scale(0), X.sub(X)):
        assert_clean_field(r)
    cancelled = X.add(X.neg())
    assert cancelled.a_part == {} and cancelled.d_part == {} and cancelled.is_zero()
    # Sums and scalings agree with the public constructor on merged tables.
    assert X.scale(c) == GradedField(
        base_dim,
        rank,
        X.degree,
        {k: p.scale(c) for k, p in X.a_part.items()},
        {k: p.scale(c) for k, p in X.d_part.items()},
    )
    other_degree = GradedField.zero(base_dim, rank, X.degree + 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        X.add(other_degree)
    with pytest.raises(ValueError, match="shape mismatch"):
        X.sub(GradedField.zero(base_dim, rank + 1, X.degree))


@st.composite
def scalar_entries(draw, base_dim: int, rank: int) -> tuple[int, dict]:
    degree = draw(st.integers(0, rank))
    keys = list(combinations(range(1, rank + 1), degree))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    return degree, {k: draw(polys(base_dim)) for k in chosen}


@SETTINGS
@given(st.data())
def test_field_apply_returns_validated_forms_of_the_input_type(data):
    base_dim, rank = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    degree, entries = data.draw(scalar_entries(base_dim, rank))
    X = data.draw(graded_fields(base_dim, rank))
    r = field_apply(X, FiberForm(base_dim, rank, degree, entries))
    assert type(r) is FiberForm
    assert_clean_form(r)

    # On the tangent algebroid a ScalarForm stays one.
    degree, entries = data.draw(scalar_entries(rank, rank))
    beta = ScalarForm(rank, degree, entries)
    for r in (field_apply(data.draw(graded_fields(rank, rank)), beta), de_rham_d(beta)):
        assert type(r) is ScalarForm
        assert r == ScalarForm(r.n_vars, r.degree, dict(r.entries))
        for poly in r.entries.values():
            assert not poly.is_zero()
            assert_clean_poly(poly)


def test_cached_grouping_stays_with_its_form():
    x = Poly.variable(1, 1)
    K = AlgebroidForm(1, 2, 1, {((1,), 2): x})
    e1 = AlgebroidForm.basis_section(1, 2, 1)
    assert K.evaluate((e1,)) == AlgebroidForm.section(1, 2, {2: x})
    # A form built from K by arithmetic groups its own entries.
    assert K.neg().evaluate((e1,)) == AlgebroidForm.section(1, 2, {2: x.neg()})
    assert K == AlgebroidForm(1, 2, 1, {((1,), 2): x})


@SETTINGS
@given(
    st.dictionaries(
        st.sampled_from(list(combinations(range(3), 2))),
        st.tuples(COEFFS, COEFFS),
        max_size=3,
    ),
    COEFFS,
)
def test_cochain_and_suspended_hom_arithmetic_returns_validated_values(values, c):
    f = Cochain(2, 3, 2, values)
    g = Cochain(2, 3, 2, {k: (v[1], v[0]) for k, v in values.items()})
    for r in (f.add(g), f.sub(g), f.sub(f), f.scale(c), f.scale(0)):
        assert r == Cochain(r.degree, r.source_dim, r.target_dim, dict(r.values))
        assert all(any(v) for v in r.values.values())
        assert all(type(x) is Fraction for v in r.values.values() for x in v)
    space = GradedSpace.suspended_ungraded(2)
    hom_values = {
        ((1, i), (1, j)): {(1, 0): a, (1, 1): b} for (i, j), (a, b) in values.items() if j < 2
    }
    s = SuspendedHom(space, 2, -1, True, hom_values)
    for r in (s.add(s), s.sub(s), s.scale(c), s.scale(0), desuspend_output(s)):
        again = SuspendedHom(r.space, r.arity, r.total_degree, r.sv_valued, dict(r.values))
        assert r == again
        assert r.values == again.values
        assert all(type(x) is Fraction for gv in r.values.values() for x in gv.values())


def test_public_constructors_keep_their_checks():
    one = Fraction(1)
    with pytest.raises(ValueError, match="exponent"):
        Poly(2, {(1, -1): one})
    with pytest.raises(ValueError, match="exponent"):
        Poly(2, {(1,): one})

    with pytest.raises(ValueError, match="index tuple"):
        AlgebroidForm(1, 2, 2, {((2, 1), 1): Poly.const(1, 1)})
    with pytest.raises(ValueError, match="wrong length"):
        AlgebroidForm(1, 2, 1, {((1, 2), 1): Poly.const(1, 1)})
    with pytest.raises(ValueError, match="output index"):
        AlgebroidForm(1, 2, 1, {((1,), 3): Poly.const(1, 1)})

    with pytest.raises(ValueError, match="strictly increasing"):
        Cochain(2, 3, 1, {(1, 0): (one,)})
    with pytest.raises(ValueError, match="wrong length"):
        Cochain(2, 3, 1, {(0,): (one,)})
    with pytest.raises(ValueError, match="target dimension"):
        Cochain(1, 3, 1, {(0,): (one, one)})

    space = GradedSpace.suspended_ungraded(2)
    with pytest.raises(ValueError, match="not canonical"):
        SuspendedHom(space, 2, -1, True, {((1, 1), (1, 0)): {(1, 0): one}})
    with pytest.raises(ValueError, match="wrong length"):
        SuspendedHom(space, 2, -1, True, {((1, 0),): {(1, 0): one}})
    with pytest.raises(ValueError, match="outside the space"):
        SuspendedHom(space, 2, -1, True, {((1, 0), (1, 1)): {(1, 2): one}})
