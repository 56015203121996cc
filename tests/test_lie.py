"""Tests for Lie algebras, Nijenhuis operators, and module constructions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from njkit.lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    deformed_bracket,
    deformed_representation,
    nijenhuis_torsion,
    validate_lie,
    validate_nijenhuis,
    validate_nijenhuis_representation,
    validate_representation,
    vector,
)
from structures import (
    block_diagonal,
    semidirect_nijenhuis,
    semidirect_product,
    trivial_representation,
)


def sl2() -> LieAlgebra:
    # Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    return LieAlgebra(
        3,
        {
            (0, 1): vector([0, 2, 0]),
            (0, 2): vector([0, 0, -2]),
            (1, 2): vector([1, 0, 0]),
        },
        basis_names=("h", "e", "f"),
    )


def solvable2() -> LieAlgebra:
    # [e1, e2] = e1.
    return LieAlgebra(2, {(0, 1): vector([1, 0])})


def heisenberg3() -> LieAlgebra:
    # [e1, e2] = e3.
    return LieAlgebra(3, {(0, 1): vector([0, 0, 1])})


def test_bracket_antisymmetry_and_bilinearity():
    alg = sl2()
    x = vector([1, 2, -1])
    y = vector([0, 3, 5])
    assert alg.bracket(x, y) == tuple(-c for c in alg.bracket(y, x))
    z = vector([2, -1, 1])
    lhs = alg.bracket(tuple(a + b for a, b in zip(x, z)), y)
    rhs = tuple(a + b for a, b in zip(alg.bracket(x, y), alg.bracket(z, y)))
    assert lhs == rhs
    assert alg.bracket(x, x) == vector([0, 0, 0])


def test_basis_bracket_handles_both_orders():
    alg = sl2()
    assert alg.basis_bracket(0, 1) == vector([0, 2, 0])
    assert alg.basis_bracket(1, 0) == vector([0, -2, 0])
    assert alg.basis_bracket(2, 2) == vector([0, 0, 0])


def test_validate_lie_accepts_sl2_and_solvable():
    assert validate_lie(sl2()).ok
    assert validate_lie(solvable2()).ok
    assert validate_lie(heisenberg3()).ok


def test_validate_lie_rejects_broken_jacobi():
    # Perturb sl2: set [e,f] = h + e; Jacobi fails.
    bad = LieAlgebra(
        3,
        {
            (0, 1): vector([0, 2, 0]),
            (0, 2): vector([0, 0, -2]),
            (1, 2): vector([1, 1, 0]),
        },
    )
    report = validate_lie(bad)
    assert not report.ok
    assert report.failures
    assert report.checked == 1


def test_endomorphism_column_convention():
    # P(e_0) = e_1 means the matrix has a 1 in row 1, column 0.
    p = Endomorphism.from_rows([[0, 0], [1, 0]])
    assert p.apply(vector([1, 0])) == vector([0, 1])
    assert p.apply(vector([0, 1])) == vector([0, 0])


def test_endomorphism_algebra():
    p = Endomorphism.from_rows([[1, 2], [0, 1]])
    q = Endomorphism.from_rows([[0, 1], [1, 0]])
    assert p.compose(q).apply(vector([1, 0])) == p.apply(q.apply(vector([1, 0])))
    assert p.power(0).apply(vector([3, 4])) == vector([3, 4])
    assert p.power(2).apply(vector([1, 0])) == p.apply(p.apply(vector([1, 0])))
    assert p.sub(p).is_zero()
    assert block_diagonal(p, q).apply(vector([1, 0, 1, 0])) == vector([1, 0, 0, 1])


def test_diagonal_operator_on_solvable_is_nijenhuis():
    # For [e1,e2] = e1 and P = diag(a, b) the torsion vanishes identically:
    # N(e1,e2) = ab*e1 - P((a + b - a) e1) = ab*e1 - ab*e1 = 0.
    alg = solvable2()
    for a, b in [(1, 2), (Fraction(3, 2), -1), (0, 5)]:
        p = Endomorphism.diagonal([a, b])
        torsion = nijenhuis_torsion(alg, p)
        assert torsion[(0, 1)] == vector([0, 0])
        assert validate_nijenhuis(alg, p).ok


def test_heisenberg_diagonal_family():
    # For [e1,e2] = e3 and P = diag(a, b, c) the torsion on (e1, e2) is
    # (ab - c(a + b - c)) e3; choosing c = a kills it.
    alg = heisenberg3()
    good = Endomorphism.diagonal([2, 5, 2])
    assert validate_nijenhuis(alg, good).ok
    bad = Endomorphism.diagonal([2, 5, 1])
    report = validate_nijenhuis(alg, bad)
    assert not report.ok
    residual = nijenhuis_torsion(alg, bad)[(0, 1)]
    expected = Fraction(2 * 5 - 1 * (2 + 5 - 1))
    assert residual == vector([0, 0, expected])


def test_non_nijenhuis_on_sl2_pinned_value():
    # P(h) = e, P(e) = P(f) = 0. Then
    # N(h,f) = [e, 0] - P([e,f] + 0 - P(-2f)) = -P(h) = -e.
    alg = sl2()
    p = Endomorphism.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    torsion = nijenhuis_torsion(alg, p)
    assert torsion[(0, 2)] == vector([0, -1, 0])
    assert not validate_nijenhuis(alg, p).ok


def test_scalar_and_identity_operators_always_nijenhuis():
    for alg in [sl2(), solvable2(), heisenberg3()]:
        assert validate_nijenhuis(alg, Endomorphism.identity(alg.dim)).ok
        assert validate_nijenhuis(alg, Endomorphism.diagonal([Fraction(5, 3)] * alg.dim)).ok
        assert validate_nijenhuis(alg, Endomorphism.zero(alg.dim)).ok


def test_deformed_bracket_pinned_value():
    # [e1, e2]_P = b e1 for P = diag(a, b) on the solvable algebra.
    alg = solvable2()
    p = Endomorphism.diagonal([7, 2])
    deformed = deformed_bracket(alg, p)
    assert deformed.basis_bracket(0, 1) == vector([2, 0])


def test_deformed_bracket_is_lie_and_p_stays_nijenhuis():
    alg = solvable2()
    p = Endomorphism.diagonal([Fraction(1, 2), 3])
    deformed = deformed_bracket(alg, p)
    assert validate_lie(deformed).ok
    assert validate_nijenhuis(deformed, p).ok


def test_morphism_property_of_deformed_bracket():
    # P is a morphism (g, mu_P) -> (g, mu): P[x,y]_P = [Px, Py].
    rng = random.Random(5)
    alg = heisenberg3()
    p = Endomorphism.diagonal([3, 4, 3])
    deformed = deformed_bracket(alg, p)
    for _ in range(10):
        x = vector([rng.randint(-3, 3) for _ in range(3)])
        y = vector([rng.randint(-3, 3) for _ in range(3)])
        assert p.apply(deformed.bracket(x, y)) == alg.bracket(p.apply(x), p.apply(y))


def test_adjoint_representation_valid_for_lie_algebras():
    for alg in [sl2(), solvable2(), heisenberg3()]:
        assert validate_representation(Representation.adjoint(alg)).ok
    assert validate_representation(trivial_representation(sl2(), 2)).ok


def test_adjoint_representation_matches_bracket():
    alg = sl2()
    adj = Representation.adjoint(alg)
    for i in range(3):
        for j in range(3):
            assert adj.act_basis(i, alg.basis_vector(j)) == alg.basis_bracket(i, j)


def test_adjoint_module_operator_compatibility():
    # (g, P) acts on itself with P_M = P.
    alg = solvable2()
    p = Endomorphism.diagonal([1, 2])
    adj = Representation.adjoint(alg)
    assert validate_nijenhuis_representation(adj, p, p).ok


def test_trivial_module_accepts_any_operator():
    alg = sl2()
    rep = trivial_representation(alg, 2)
    p = Endomorphism.identity(3)
    p_m = Endomorphism.from_rows([[1, 5], [0, 3]])
    assert validate_nijenhuis_representation(rep, p, p_m).ok


def test_module_compatibility_failure_detected():
    # On the solvable algebra with P = diag(1,2), the nilpotent module
    # operator P_M(e2) = e1 breaks compatibility: at a = e2, x = e2 the
    # left side is ad(2e2)(e1) = -2e1 but the right side is
    # P_M(-e1) = 0.
    alg = solvable2()
    adj = Representation.adjoint(alg)
    p = Endomorphism.diagonal([1, 2])
    p_m = Endomorphism.from_rows([[0, 1], [0, 0]])
    report = validate_nijenhuis_representation(adj, p, p_m)
    assert not report.ok
    assert {"generator": 1, "module_index": 1, "residual": ["-2", "0"]} in report.failures


def test_semidirect_product_structure():
    alg = solvable2()
    adj = Representation.adjoint(alg)
    sd = semidirect_product(adj)
    assert sd.dim == 4
    assert validate_lie(sd).ok
    # Algebra part embeds: [E0, E1] = E0.
    assert sd.basis_bracket(0, 1) == vector([1, 0, 0, 0])
    # Mixed bracket is the action: [e_i, m_b] = ad(e_i)(e_b).
    assert sd.basis_bracket(0, 3) == vector([0, 0, 1, 0])
    # Module part is abelian.
    assert sd.basis_bracket(2, 3) == vector([0, 0, 0, 0])


def test_semidirect_nijenhuis_block_operator():
    alg = solvable2()
    p = Endomorphism.diagonal([1, 2])
    adj = Representation.adjoint(alg)
    nja = NijenhuisLieAlgebra(alg, p)
    nrep = NijenhuisRepresentation(adj, p)
    big = semidirect_nijenhuis(nja, nrep)
    assert big.algebra.dim == 4
    assert validate_lie(big.algebra).ok
    assert validate_nijenhuis(big.algebra, big.operator).ok


def test_deformed_representation_is_valid_and_compatible():
    alg = solvable2()
    p = Endomorphism.diagonal([1, 2])
    adj = Representation.adjoint(alg)
    new_rep = deformed_representation(adj, p, p)
    # It is a representation of the deformed algebra...
    assert validate_representation(new_rep).ok
    # ... and (new_rep, P_M) is again a compatible module pair.
    assert validate_nijenhuis_representation(new_rep, p, p).ok
    # Action on the deformed algebra: a > x = P(a).x.
    x = vector([2, -1])
    assert new_rep.act_basis(1, x) == adj.act(p.apply(alg.basis_vector(1)), x)


def test_structural_errors_raise():
    with pytest.raises(ValueError):
        LieAlgebra(2, {(1, 0): vector([1, 0])})
    with pytest.raises(ValueError):
        LieAlgebra(2, {(0, 1): vector([1, 0, 0])})
    with pytest.raises(ValueError):
        Endomorphism.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        Representation(sl2(), 2, (Endomorphism.zero(2),) * 2)
