"""Tests for polynomial forms on R^n and the bracket calculus on them.

The Frolicher-Nijenhuis bracket is checked along two permanently
independent routes (coordinate five-sum vs wedge/Lie-derivative
definition), the Richardson-Nijenhuis bracket against its operator
characterization and against the algebraic suspended-hom bracket, and the
diagonal operator's twisted complex against its explicit contracting
homotopy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import njkit.forms
from njkit.braces import rn_bracket, to_suspended
from njkit.cohomology import Cochain
from njkit.exact import enumerate_shuffles
from njkit.forms import (
    Poly,
    VectorValuedForm,
    check_homotopy,
    d_fn,
    diagonal_operator,
    fn_betti,
    fn_bracket,
    nijenhuis_torsion_form,
    poincare_h,
)
from oracles import (
    ScalarForm,
    de_rham_d,
    degree_support,
    fn_bracket_decomposable,
    fn_bracket_on_fields,
    from_suspended,
    gather,
    interior_product,
    lie_derivative,
    rn_bracket_forms,
    wedge,
)
from structures import basis_field, vector_field


def _rpoly(rng: random.Random, n: int, max_deg: int = 2, nterms: int = 2) -> Poly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(nterms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Poly(n, terms)


def _rscalar(rng: random.Random, n: int, deg: int, **kw) -> ScalarForm:
    entries = {I: _rpoly(rng, n, **kw) for I in combinations(range(1, n + 1), deg)}
    return ScalarForm(n, deg, entries)


def _rvvf(rng: random.Random, n: int, deg: int, **kw) -> VectorValuedForm:
    entries = {}
    for I in combinations(range(1, n + 1), deg):
        for a in range(1, n + 1):
            if rng.random() < 0.8:
                entries[(I, a)] = _rpoly(rng, n, **kw)
    return VectorValuedForm(n, deg, entries)


def _rfield(rng: random.Random, n: int, **kw) -> VectorValuedForm:
    return vector_field(
        n, {a: _rpoly(rng, n, **kw) for a in range(1, n + 1)}
    )


def _basis(n: int) -> list[VectorValuedForm]:
    return [basis_field(n, a) for a in range(1, n + 1)]


def _vf_bracket_oracle(v: VectorValuedForm, w: VectorValuedForm) -> VectorValuedForm:
    """Lie bracket of vector fields, written out independently."""
    n = v.n_vars
    out: dict[int, Poly] = {}
    for b in range(1, n + 1):
        acc = Poly.zero(n)
        for a, p in v.components().items():
            acc = acc.add(p.mul(w.components().get(b, Poly.zero(n)).partial(a)))
        for a, q in w.components().items():
            acc = acc.sub(q.mul(v.components().get(b, Poly.zero(n)).partial(a)))
        out[b] = acc
    return vector_field(n, out)


def _apply_field(v: VectorValuedForm, poly: Poly) -> Poly:
    out = Poly.zero(v.n_vars)
    for a, comp in v.components().items():
        out = out.add(comp.mul(poly.partial(a)))
    return out


def test_poly_parse_format_round_trip():
    rng = random.Random(1)
    parsed = Poly.parse("3*x1^2 - 1/2*x2 + 4", 2)
    assert parsed == Poly(
        2, {(2, 0): Fraction(3), (0, 1): Fraction(-1, 2), (0, 0): Fraction(4)}
    )
    assert Poly.parse("x1*x2", 2) == Poly(2, {(1, 1): Fraction(1)})
    assert Poly.parse("-x2^3", 2) == Poly(2, {(0, 3): Fraction(-1)})
    assert Poly.parse("2*x1 - 2*x1", 2).is_zero()
    for _ in range(20):
        p = _rpoly(rng, 3, max_deg=3, nterms=3)
        assert Poly.parse(p.format(), 3) == p
    assert Poly.parse("0", 2).format() == "0"
    with pytest.raises(ValueError):
        Poly.parse("", 2)
    with pytest.raises(ValueError):
        Poly.parse("x3", 2)
    with pytest.raises(ValueError):
        Poly.parse("2*y1", 2)
    with pytest.raises(ValueError):
        Poly.parse("1 + + 2", 2)


def test_poly_arithmetic_and_partials():
    rng = random.Random(2)
    for _ in range(15):
        p = _rpoly(rng, 2, max_deg=3)
        q = _rpoly(rng, 2, max_deg=3)
        assert p.mul(q) == q.mul(p)
        for i in (1, 2):
            product_rule = p.partial(i).mul(q).add(p.mul(q.partial(i)))
            assert p.mul(q).partial(i) == product_rule
    x1 = Poly.variable(2, 1)
    assert x1.partial(1) == Poly.const(2, 1)
    assert x1.partial(2).is_zero()
    assert degree_support(Poly(2, {(2, 1): Fraction(1)})) == {3}
    with pytest.raises(ValueError):
        x1.partial(3)
    with pytest.raises(ValueError):
        Poly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        x1.add(Poly.variable(3, 1))


def test_form_storage_and_antisymmetric_lookup():
    n = 3
    p = Poly.const(n, 1)
    with pytest.raises(ValueError):
        ScalarForm(n, 2, {(2, 1): p})
    with pytest.raises(ValueError):
        ScalarForm(n, 2, {(1, 4): p})
    with pytest.raises(ValueError):
        VectorValuedForm(n, 1, {((1,), 0): p})
    assert ScalarForm(n, 1, {(1,): Poly.zero(n)}).is_zero()

    beta = ScalarForm(n, 2, {(1, 2): Poly.variable(n, 3)})
    assert beta.coefficient((2, 1)) == Poly.variable(n, 3).neg()
    assert beta.coefficient((1, 1)).is_zero()
    with pytest.raises(ValueError):
        beta.coefficient((1,))

    K = VectorValuedForm(n, 2, {((1, 3), 2): p})
    assert K.coefficient((3, 1), 2) == p.neg()
    assert K.coefficient((1, 3), 1).is_zero()
    with pytest.raises(ValueError):
        K.components()


def test_wedge_matches_shuffle_evaluation():
    rng = random.Random(3)
    n = 3
    basis = _basis(n)
    for dk, dl in [(1, 1), (1, 2), (2, 1)]:
        alpha = _rscalar(rng, n, dk, max_deg=1)
        beta = _rscalar(rng, n, dl, max_deg=1)
        product = wedge(alpha, beta)
        for T in combinations(range(1, n + 1), dk + dl):
            fields = tuple(basis[t - 1] for t in T)
            expected = Poly.zero(n)
            for sigma in enumerate_shuffles((dk, dl)):
                word = gather(sigma, fields)
                term = alpha.evaluate(word[:dk]).mul(beta.evaluate(word[dk:]))
                expected = expected.add(term if sigma.sign() > 0 else term.neg())
            assert product.evaluate(fields) == expected
        sign = -1 if (dk * dl) % 2 else 1
        assert product == wedge(beta, alpha).scale(sign)
    a, b, c = (_rscalar(rng, n, 1, max_deg=1) for _ in range(3))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_de_rham_differential():
    rng = random.Random(4)
    n = 2
    assert de_rham_d(ScalarForm(n, 0, {(): Poly.const(n, 5)})).is_zero()
    d_x1 = de_rham_d(ScalarForm(n, 0, {(): Poly.variable(n, 1)}))
    assert dict(d_x1.entries) == {(1,): Poly.const(n, 1)}
    # d(x1 x2 dx1) = x1 dx2 ^ dx1 = -x1 dx1 ^ dx2
    mixed = ScalarForm(n, 1, {(1,): Poly.variable(n, 1).mul(Poly.variable(n, 2))})
    assert dict(de_rham_d(mixed).entries) == {(1, 2): Poly.variable(n, 1).neg()}
    for deg in (0, 1, 2):
        beta = _rscalar(rng, 3, deg)
        assert de_rham_d(de_rham_d(beta)).is_zero()
    alpha = _rscalar(rng, 3, 1)
    beta = _rscalar(rng, 3, 1)
    leibniz = wedge(de_rham_d(alpha), beta).sub(wedge(alpha, de_rham_d(beta)))
    assert de_rham_d(wedge(alpha, beta)) == leibniz


def test_interior_product_examples():
    rng = random.Random(5)
    n = 2
    dx2 = ScalarForm(n, 1, {(2,): Poly.const(n, 1)})
    V = _rfield(rng, n)
    assert interior_product(V, dx2).coefficient(()) == V.components().get(2, Poly.zero(n))
    K = VectorValuedForm(n, 1, {((1,), 2): Poly.const(n, 1)})
    assert dict(interior_product(K, dx2).entries) == {(1,): Poly.const(n, 1)}
    assert interior_product(V, ScalarForm(n, 0, {(): Poly.variable(n, 1)})).is_zero()
    # degree-0 insertion is a derivation of the wedge
    alpha = _rscalar(rng, 3, 1)
    beta = _rscalar(rng, 3, 2)
    X = _rfield(rng, 3)
    lhs = interior_product(X, wedge(alpha, beta))
    rhs = wedge(interior_product(X, alpha), beta).sub(
        wedge(alpha, interior_product(X, beta))
    )
    assert lhs == rhs


def test_interior_product_against_decomposable_route():
    # i_{alpha (x) X} beta = alpha ^ i_X beta, summed over stored summands.
    rng = random.Random(6)
    n = 3
    for dk, dl in [(1, 2), (2, 2), (2, 1)]:
        K = _rvvf(rng, n, dk, max_deg=1)
        beta = _rscalar(rng, n, dl, max_deg=1)
        expected = ScalarForm.zero(n, dk + dl - 1)
        for (I, a), p in K.entries.items():
            alpha = ScalarForm(n, dk, {I: p})
            inserted = interior_product(basis_field(n, a), beta)
            expected = expected.add(wedge(alpha, inserted))
        assert interior_product(K, beta) == expected


def test_rn_bracket_operator_characterization():
    rng = random.Random(7)
    for n, dk, dl in [(2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 1, 2)]:
        K = _rvvf(rng, n, dk, max_deg=1)
        L = _rvvf(rng, n, dl, max_deg=1)
        bracket = rn_bracket_forms(K, L)
        sign = -1 if ((dk - 1) * (dl - 1)) % 2 else 1
        for j in range(1, n + 1):
            theta = ScalarForm(n, 1, {(j,): Poly.const(n, 1)})
            lhs = interior_product(bracket, theta)
            rhs = interior_product(K, interior_product(L, theta)).sub(
                interior_product(L, interior_product(K, theta)).scale(sign)
            )
            assert lhs == rhs
        assert bracket == rn_bracket_forms(L, K).scale(sign).neg()
    v, w = _rfield(rng, 2), _rfield(rng, 2)
    assert rn_bracket_forms(v, w).is_zero()
    P = diagonal_operator(2)
    assert rn_bracket_forms(P, P).is_zero()


def test_rn_bracket_matches_the_algebraic_layer():
    # For constant forms, the geometric insertion bracket agrees with the
    # suspended-hom bracket with swapped operands: [K, L] here == [L, K] there.
    rng = random.Random(8)

    def to_cochain(F: VectorValuedForm) -> Cochain:
        values: dict[tuple[int, ...], list[Fraction]] = {}
        for (I, a), poly in F.entries.items():
            key = tuple(i - 1 for i in I)
            vec = values.setdefault(key, [Fraction(0)] * F.n_vars)
            vec[a - 1] = poly.terms.get((0,) * F.n_vars, Fraction(0))
        return Cochain(
            F.form_degree, F.n_vars, F.n_vars, {k: tuple(v) for k, v in values.items()}
        )

    def const_form(n: int, deg: int) -> VectorValuedForm:
        entries = {}
        for I in combinations(range(1, n + 1), deg):
            for a in range(1, n + 1):
                c = rng.randint(-2, 2)
                if c:
                    entries[(I, a)] = Poly.const(n, c)
        return VectorValuedForm(n, deg, entries)

    for n in (2, 3):
        for dk, dl in [(1, 1), (1, 2), (2, 2)]:
            K = const_form(n, dk)
            L = const_form(n, dl)
            geometric = to_cochain(rn_bracket_forms(K, L))
            algebraic = from_suspended(
                rn_bracket(to_suspended(to_cochain(L)), to_suspended(to_cochain(K)))
            )
            assert geometric.values == algebraic.values


def test_lie_derivative_pins():
    n = 2
    e1 = basis_field(n, 1)
    x1 = Poly.variable(n, 1)
    assert lie_derivative(e1, ScalarForm(n, 0, {(): x1})).coefficient(()) == Poly.const(n, 1)
    assert dict(lie_derivative(e1, ScalarForm(n, 1, {(1,): x1})).entries) == {
        (1,): Poly.const(n, 1)
    }


def test_lie_derivative_commutes_with_d():
    rng = random.Random(9)
    for dk, dl in [(0, 1), (1, 1), (2, 1), (1, 2)]:
        K = _rvvf(rng, 3, dk, max_deg=1)
        beta = _rscalar(rng, 3, dl, max_deg=1)
        lhs = lie_derivative(K, de_rham_d(beta))
        rhs = de_rham_d(lie_derivative(K, beta))
        assert lhs == rhs


def test_lie_derivative_three_sum_formula():
    rng = random.Random(10)
    n = 2
    basis = _basis(n)

    def three_sum(K, alpha, fields):
        k, l = K.form_degree, alpha.degree
        acc = Poly.zero(n)
        for sigma in enumerate_shuffles((k, l)):
            word = gather(sigma, fields)
            term = _apply_field(K.evaluate(word[:k]), alpha.evaluate(word[k:]))
            acc = acc.add(term if sigma.sign() > 0 else term.neg())
        if l >= 1:
            for sigma in enumerate_shuffles((k, 1, l - 1)):
                word = gather(sigma, fields)
                plugged = _vf_bracket_oracle(K.evaluate(word[:k]), word[k])
                term = alpha.evaluate((plugged,) + word[k + 1 :])
                acc = acc.sub(term if sigma.sign() > 0 else term.neg())
        if k >= 1 and l >= 1:
            outer = -1 if k % 2 else 1
            for sigma in enumerate_shuffles((2, k - 1, l - 1)):
                word = gather(sigma, fields)
                inner = K.evaluate(
                    (_vf_bracket_oracle(word[0], word[1]),) + word[2 : k + 1]
                )
                term = alpha.evaluate((inner,) + word[k + 1 :]).scale(outer)
                acc = acc.sub(term if sigma.sign() > 0 else term.neg())
        return acc

    for dk, dl in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
        K = _rvvf(rng, n, dk, max_deg=1, nterms=1)
        alpha = _rscalar(rng, n, dl, max_deg=1, nterms=1)
        result = lie_derivative(K, alpha)
        for T in combinations(range(1, n + 1), dk + dl):
            fields = tuple(basis[t - 1] for t in T)
            assert result.evaluate(fields) == three_sum(K, alpha, fields)
        # general fields exercise the argument-bracket sum as well
        general = tuple(_rfield(rng, n, max_deg=1, nterms=1) for _ in range(dk + dl))
        assert result.evaluate(general) == three_sum(K, alpha, general)


def test_fn_bracket_two_routes_agree():
    rng = random.Random(11)
    for dk, dl in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]:
        K = _rvvf(rng, 2, dk, max_deg=1)
        L = _rvvf(rng, 2, dl, max_deg=1)
        assert fn_bracket(K, L) == fn_bracket_decomposable(K, L)
    K = _rvvf(rng, 3, 1, max_deg=1, nterms=1)
    L = _rvvf(rng, 3, 2, max_deg=1, nterms=1)
    assert fn_bracket(K, L) == fn_bracket_decomposable(K, L)
    # The command-line workload's shape: R^4, cubic coefficients, degrees
    # (2, 1) and (1, 2).
    for dk, dl in [(2, 1), (1, 2)]:
        K = _rvvf(rng, 4, dk, max_deg=3)
        L = _rvvf(rng, 4, dl, max_deg=3)
        assert fn_bracket(K, L) == fn_bracket_decomposable(K, L)


def test_tangent_forms_keep_their_type():
    # The tangent forms are views on the algebroid forms of the tangent
    # algebroid; every operation hands back the tangent type, so results
    # compare equal to forms built by hand.
    rng = random.Random(21)
    n = 2
    K, L = _rvvf(rng, n, 1, max_deg=1), _rvvf(rng, n, 1, max_deg=1)
    X = _rfield(rng, n, max_deg=1)
    alpha, beta = _rscalar(rng, n, 1, max_deg=1), _rscalar(rng, n, 1, max_deg=1)
    assert K.n_vars == K.base_dim == K.rank == n
    vector_results = [
        K.add(L), K.sub(L), K.neg(), K.scale(3), K.evaluate((X,)),
        VectorValuedForm.zero(n, 2), fn_bracket(K, L), fn_bracket_on_fields(K, L, (X, X)),
        nijenhuis_torsion_form(K), d_fn(diagonal_operator(n), K), poincare_h(K, n),
        rn_bracket_forms(K, L),
    ]
    assert all(type(r) is VectorValuedForm for r in vector_results)
    scalar_results = [
        alpha.add(beta), alpha.neg(), alpha.scale(2), wedge(alpha, beta),
        ScalarForm.zero(n, 1), de_rham_d(alpha), interior_product(K, alpha),
        lie_derivative(X, alpha),
    ]
    assert all(type(r) is ScalarForm for r in scalar_results)
    assert K.add(VectorValuedForm.zero(n, 1)) == K


def test_fn_bracket_on_vector_fields_is_the_lie_bracket():
    rng = random.Random(12)
    for _ in range(5):
        v = _rfield(rng, 2, max_deg=2)
        w = _rfield(rng, 2, max_deg=2)
        assert fn_bracket(v, w) == _vf_bracket_oracle(v, w)


def test_fn_bracket_with_vector_field_is_a_lie_derivative():
    rng = random.Random(13)
    n = 2
    basis = _basis(n)

    def vvf_lie(X, L):
        entries = {}
        for T in combinations(range(1, n + 1), L.form_degree):
            fields = [basis[t - 1] for t in T]
            value = _vf_bracket_oracle(X, L.evaluate(fields))
            for pos in range(L.form_degree):
                replaced = list(fields)
                replaced[pos] = _vf_bracket_oracle(X, fields[pos])
                value = value.sub(L.evaluate(replaced))
            for a, p in value.components().items():
                entries[(T, a)] = p
        return VectorValuedForm(n, L.form_degree, entries)

    for deg in (1, 2):
        X = _rfield(rng, n, max_deg=1)
        L = _rvvf(rng, n, deg, max_deg=1)
        assert fn_bracket(X, L) == vvf_lie(X, L)


def test_fn_bracket_of_two_operators_polarizes_the_torsion():
    rng = random.Random(14)
    for _ in range(4):
        K = _rvvf(rng, 2, 1)
        L = _rvvf(rng, 2, 1)
        polarized = (
            nijenhuis_torsion_form(K.add(L))
            .sub(nijenhuis_torsion_form(K))
            .sub(nijenhuis_torsion_form(L))
        )
        assert fn_bracket(K, L) == polarized


def test_fn_bracket_graded_antisymmetry():
    rng = random.Random(15)
    for dk, dl in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]:
        K = _rvvf(rng, 2, dk, max_deg=1)
        L = _rvvf(rng, 2, dl, max_deg=1)
        sign = -1 if (dk * dl) % 2 else 1
        assert fn_bracket(K, L) == fn_bracket(L, K).scale(sign).neg()


def test_fn_bracket_graded_jacobi():
    rng = random.Random(16)
    for degs in [(1, 1, 1), (0, 1, 1), (1, 1, 2), (0, 1, 2)]:
        k1, k2, k3 = degs
        A, B, C = (_rvvf(rng, 2, d, max_deg=1, nterms=1) for d in degs)
        t1 = fn_bracket(fn_bracket(A, B), C).scale(-1 if (k1 * k3) % 2 else 1)
        t2 = fn_bracket(fn_bracket(B, C), A).scale(-1 if (k2 * k1) % 2 else 1)
        t3 = fn_bracket(fn_bracket(C, A), B).scale(-1 if (k3 * k2) % 2 else 1)
        assert t1.add(t2).add(t3).is_zero()


def test_fn_bracket_five_sum_is_tensorial():
    # On non-coordinate fields the five-sum picks up its argument-bracket
    # terms; multilinearity of the assembled tensor pins their signs.
    rng = random.Random(17)
    for dk, dl in [(1, 1), (1, 2), (2, 1)]:
        K = _rvvf(rng, 2, dk, max_deg=1, nterms=1)
        L = _rvvf(rng, 2, dl, max_deg=1, nterms=1)
        fields = tuple(_rfield(rng, 2, max_deg=1, nterms=1) for _ in range(dk + dl))
        assert fn_bracket_on_fields(K, L, fields) == fn_bracket(K, L).evaluate(fields)

    # [P, P] on two general fields carries the P^2 [X, Y] term explicitly.
    P = _rvvf(rng, 2, 1, max_deg=1)
    X, Y = (_rfield(rng, 2, max_deg=1) for _ in range(2))
    px, py = P.evaluate((X,)), P.evaluate((Y,))
    torsion_value = _vf_bracket_oracle(px, py)
    torsion_value = torsion_value.sub(P.evaluate((_vf_bracket_oracle(px, Y),)))
    torsion_value = torsion_value.sub(P.evaluate((_vf_bracket_oracle(X, py),)))
    torsion_value = torsion_value.add(
        P.evaluate((P.evaluate((_vf_bracket_oracle(X, Y),)),))
    )
    assert fn_bracket_on_fields(P, P, (X, Y)) == torsion_value.scale(2)


def test_nijenhuis_torsion():
    rng = random.Random(18)
    n = 2
    assert nijenhuis_torsion_form(diagonal_operator(n)).is_zero()
    assert nijenhuis_torsion_form(diagonal_operator(3)).is_zero()
    constant = VectorValuedForm(
        n,
        1,
        {
            ((1,), 1): Poly.const(n, 2),
            ((1,), 2): Poly.const(n, 1),
            ((2,), 2): Poly.const(n, 3),
        },
    )
    assert nijenhuis_torsion_form(constant).is_zero()
    skew = VectorValuedForm(n, 1, {((1,), 1): Poly.variable(n, 2)})
    assert dict(nijenhuis_torsion_form(skew).entries) == {
        ((1, 2), 1): Poly.variable(n, 2)
    }
    for _ in range(4):
        P = _rvvf(rng, n, 1)
        assert fn_bracket(P, P) == nijenhuis_torsion_form(P).scale(2)
    # classical coefficient formula
    P = _rvvf(rng, 3, 1)
    torsion = nijenhuis_torsion_form(P)
    for i, j in combinations(range(1, 4), 2):
        for k in range(1, 4):
            expected = Poly.zero(3)
            for a in range(1, 4):
                pa_k = P.coefficient((a,), k)
                expected = expected.add(
                    P.coefficient((i,), a).mul(P.coefficient((j,), k).partial(a))
                )
                expected = expected.sub(
                    P.coefficient((j,), a).mul(P.coefficient((i,), k).partial(a))
                )
                expected = expected.sub(pa_k.mul(P.coefficient((j,), a).partial(i)))
                expected = expected.add(pa_k.mul(P.coefficient((i,), a).partial(j)))
            assert torsion.coefficient((i, j), k) == expected
    with pytest.raises(ValueError):
        nijenhuis_torsion_form(_rvvf(rng, 2, 2))


def test_twisted_differential():
    rng = random.Random(19)
    n = 2
    P = diagonal_operator(n)
    e1 = basis_field(n, 1)
    assert dict(d_fn(P, e1).entries) == {((1,), 1): Poly.const(n, -1)}
    assert d_fn(P, P).is_zero()
    assert d_fn(P, VectorValuedForm(n, 1, {((1,), 1): Poly.const(n, 1)})).is_zero()
    with pytest.raises(ValueError):
        d_fn(VectorValuedForm(n, 1, {((1,), 1): Poly.variable(n, 2)}), e1)
    constant = VectorValuedForm(
        n, 1, {((1,), 2): Poly.const(n, 1), ((2,), 1): Poly.const(n, -1)}
    )
    for twist in (P, constant):
        for deg in (0, 1):
            K = _rvvf(rng, n, deg)
            assert d_fn(twist, d_fn(twist, K)).is_zero()


def test_poincare_homotopy_values():
    rng = random.Random(20)
    n = 2
    one = Poly.const(n, 1)
    assert poincare_h(basis_field(n, 1), n).is_zero()
    assert poincare_h(VectorValuedForm(n, 1, {((1,), 1): one}), n) == (
        basis_field(n, 1).neg()
    )
    assert poincare_h(VectorValuedForm(n, 1, {((2,), 1): one}), n).is_zero()
    # one position deeper: the deleted index sits second, so the sign flips
    top = VectorValuedForm(n, 2, {((1, 2), 2): one, ((1, 2), 1): one})
    assert dict(poincare_h(top, n).entries) == {
        ((1,), 2): one,
        ((2,), 1): one.neg(),
    }
    for deg in (1, 2):
        K = _rvvf(rng, n, deg, max_deg=2)
        assert poincare_h(poincare_h(K, n), n).is_zero()
    homogeneous = VectorValuedForm(n, 2, {((1, 2), 1): Poly(n, {(2, 1): Fraction(5)})})
    image = poincare_h(homogeneous, n)
    assert all(degree_support(p) == {3} for p in image.entries.values())
    with pytest.raises(ValueError):
        poincare_h(homogeneous, 3)


def test_homotopy_identity_sweeps():
    single = check_homotopy(2, 0, (1,))
    assert single.ok
    small = check_homotopy(2, 3, (0, 1, 2))
    assert small.ok and small.checked == 80
    bigger = check_homotopy(3, 2, (0, 1, 2, 3))
    assert bigger.ok and bigger.checked == 240
    # Past the two slices that the ``check_homotopy`` docstring argues
    # decide the rest: every slice up to the bound, every form degree.
    for n, max_poly_degree in ((2, 4), (3, 4), (4, 3)):
        report = check_homotopy(n, max_poly_degree, tuple(range(n + 1)))
        assert report.ok
        assert report.checked == n * 2**n * comb(n + max_poly_degree, n)


def _constant_basis_forms(n: int) -> list[VectorValuedForm]:
    """Every ``dx^I (x) d/dx_a`` with a constant coefficient, all form degrees."""
    one = Poly.const(n, 1)
    return [
        VectorValuedForm(n, j, {(I, a): one})
        for j in range(n + 1)
        for I in combinations(range(1, n + 1), j)
        for a in range(1, n + 1)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poincare_h_is_function_linear(n):
    """``h(x^e w) = x^e h(w)`` for constant basis forms ``w``: the first
    step of the argument in the ``check_homotopy`` docstring."""
    rng = random.Random(40 + n)
    forms = _constant_basis_forms(n)
    for _ in range(6):
        monomial = Poly(n, {tuple(rng.randint(0, 3) for _ in range(n)): Fraction(1)})
        for w in forms:
            assert poincare_h(w.poly_scale(monomial), n) == poincare_h(w, n).poly_scale(monomial)


def _h_with_one_wrong_sign(position: int):
    """``poincare_h`` with the sign flipped where the deleted index sat at
    ``position``: still function-linear, since it only signs entries."""

    def mutant(K: VectorValuedForm, n: int) -> VectorValuedForm:
        entries = {}
        for (J, a), poly in poincare_h(K, n).entries.items():
            deleted_at = sum(1 for j in J if j < a)
            entries[(J, a)] = poly.neg() if deleted_at == position else poly
        return VectorValuedForm(n, K.form_degree - 1 if K.form_degree else 0, entries)

    return mutant


@pytest.mark.parametrize("n, position", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_a_wrong_sign_in_h_fails_slice_zero_or_one(monkeypatch, n, position):
    monkeypatch.setattr(njkit.forms, "poincare_h", _h_with_one_wrong_sign(position))
    assert not check_homotopy(n, 1, tuple(range(n + 1))).ok


def test_fn_betti_all_slices_vanish():
    reports = fn_betti(2, 3, 2)
    for degree, report in reports.items():
        assert report.betti == [0, 0, 0], f"poly degree {degree}"
        assert report.dims[0] > 0
    assert reports[0].dims == [2, 4, 2]
    bigger = fn_betti(3, 2, 3)
    for degree, report in bigger.items():
        assert report.betti == [0, 0, 0, 0], f"poly degree {degree}"


def test_d_fn_is_polynomial_degree_homogeneous_for_diag():
    n = 2
    P = diagonal_operator(n)
    K = VectorValuedForm(n, 1, {((1,), 2): Poly(n, {(1, 2): Fraction(3)})})
    image = d_fn(P, K)
    assert not image.is_zero()
    assert all(degree_support(p) == {3} for p in image.entries.values())
