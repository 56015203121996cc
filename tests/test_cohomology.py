"""Tests for the three cochain complexes and their interactions."""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

import njkit.cohomology
from njkit.cohomology import (
    Cochain,
    PairCochain,
    _complexes,
    betti,
    delta_lie,
    delta_njl,
    delta_njo,
    les_verify,
    psi,
)
from njkit.exact import Permutation
from njkit.lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    adjoint_nijenhuis,
    deformed_representation,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)

from oracles import (
    delta_lie_slot_sum,
    delta_njl_slot_sum,
    delta_njo_slot_sum,
    evaluate_mixed,
    oracle_matrix,
    psi_subset_sum,
)
from structures import constant_cochain, semidirect_nijenhuis, trivial_representation


def sl2() -> LieAlgebra:
    return LieAlgebra(
        3,
        {
            (0, 1): vector([0, 2, 0]),
            (0, 2): vector([0, 0, -2]),
            (1, 2): vector([1, 0, 0]),
        },
    )


def solvable2() -> LieAlgebra:
    return LieAlgebra(2, {(0, 1): vector([1, 0])})


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def _random_cochain(rng, degree, sdim, tdim) -> Cochain:
    values = {}
    for idx in combinations(range(sdim), degree):
        vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(tdim))
        values[idx] = vec
    return Cochain(degree, sdim, tdim, values)


def _fixtures():
    """(algebra, operator) pairs that are honestly Nijenhuis."""
    out = []
    out.append(NijenhuisLieAlgebra(solvable2(), Endomorphism.diagonal([1, 2])))
    out.append(NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([3, 3, 3])))
    out.append(
        NijenhuisLieAlgebra(
            LieAlgebra(3, {(0, 1): vector([0, 0, 1])}),
            Endomorphism.diagonal([2, 5, 2]),
        )
    )
    out.append(
        NijenhuisLieAlgebra(abelian(3), Endomorphism.from_rows(
            [[1, 1, 0], [0, 2, 1], [0, 0, 3]]
        ))
    )
    return out


def test_cochain_evaluate_antisymmetry():
    f = Cochain(2, 3, 1, {(0, 1): (Fraction(5),), (1, 2): (Fraction(2),)})
    assert f.evaluate((1, 0)) == (Fraction(-5),)
    assert f.evaluate((0, 0)) == (Fraction(0),)
    assert f.evaluate((2, 1)) == (Fraction(-2),)
    # Every word over the basis, unsorted and with repeats: zero on a
    # repeat, else the stored value on the sorted word times the sign of
    # the sorting permutation, counted by inversions.
    rng = random.Random(59)
    for degree in range(5):
        f = _random_cochain(rng, degree, 5, 2)
        for word in product(range(5), repeat=degree):
            if len(set(word)) < degree:
                expected = zero_vector(2)
            else:
                ranks = tuple(sorted(word).index(i) + 1 for i in word)
                stored = f.values.get(tuple(sorted(word)), zero_vector(2))
                expected = vec_scale(Permutation(ranks).sign(), stored)
            assert f.evaluate(word) == expected, word


def test_degree_zero_differential_is_the_action():
    # For the adjoint module, (d f)(a) = [a, f].
    alg = sl2()
    adj = Representation.adjoint(alg)
    m = vector([1, 2, 3])
    f = constant_cochain(3, m)
    df = delta_lie(adj, f)
    for i in range(3):
        assert df.evaluate((i,)) == alg.bracket(alg.basis_vector(i), m)


def test_delta_lie_squares_to_zero():
    rng = random.Random(3)
    for nja in _fixtures():
        adj = Representation.adjoint(nja.algebra)
        for degree in range(0, 3):
            f = _random_cochain(rng, degree, nja.algebra.dim, nja.algebra.dim)
            assert delta_lie(adj, delta_lie(adj, f)).is_zero()


def _four_sum_partial(rep, p, f):
    """Independent oracle for the deformed-complex differential.

    Expands the action through P plus the three bracket insertions, instead
    of delegating to the deformed module.
    """
    alg = rep.algebra
    n = f.degree
    values = {}
    for idx in combinations(range(alg.dim), n + 1):
        total = zero_vector(rep.dim)
        for pos in range(n + 1):
            rest = idx[:pos] + idx[pos + 1 :]
            pa = p.apply(alg.basis_vector(idx[pos]))
            total = vec_add(
                total, vec_scale((-1) ** pos, rep.act(pa, f.evaluate(rest)))
            )
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                rest = tuple(idx[t] for t in range(n + 1) if t not in (a, b))
                ea = alg.basis_vector(idx[a])
                eb = alg.basis_vector(idx[b])
                ins = vec_sub(
                    vec_add(
                        alg.bracket(p.apply(ea), eb),
                        alg.bracket(ea, p.apply(eb)),
                    ),
                    p.apply(alg.bracket(ea, eb)),
                )
                total = vec_add(
                    total,
                    vec_scale((-1) ** (a + b), evaluate_mixed(f, (ins,) + rest)),
                )
        if any(total):
            values[idx] = total
    return Cochain(n + 1, alg.dim, rep.dim, values)


def test_delta_njo_matches_four_sum_oracle():
    rng = random.Random(17)
    for nja in _fixtures():
        nrep = adjoint_nijenhuis(nja)
        rep = nrep.representation
        for degree in range(0, 3):
            f = _random_cochain(rng, degree, nja.algebra.dim, rep.dim)
            direct = delta_njo(nja, nrep, f)
            oracle = _four_sum_partial(rep, nja.operator, f).sub(
                delta_lie(rep, f).map_values(nrep.operator)
            )
            assert direct == oracle


def test_delta_njo_squares_to_zero():
    rng = random.Random(23)
    for nja in _fixtures():
        nrep = adjoint_nijenhuis(nja)
        for degree in range(0, 3):
            f = _random_cochain(rng, degree, nja.algebra.dim, nja.algebra.dim)
            assert delta_njo(nja, nrep, delta_njo(nja, nrep, f)).is_zero()


def test_delta_njo_vanishes_for_identity_operator():
    # With P = P_M = id the deformed action equals the plain one, so the
    # two halves cancel identically.
    alg = sl2()
    nja = NijenhuisLieAlgebra(alg, Endomorphism.identity(3))
    nrep = adjoint_nijenhuis(nja)
    rng = random.Random(1)
    for degree in range(0, 3):
        f = _random_cochain(rng, degree, 3, 3)
        assert delta_njo(nja, nrep, f).is_zero()


def test_psi_degree_zero_is_identity_and_pinned_values():
    alg = solvable2()
    p = Endomorphism.diagonal([1, 2])
    nja = NijenhuisLieAlgebra(alg, p)
    nrep = adjoint_nijenhuis(nja)
    f0 = constant_cochain(2, vector([4, 5]))
    assert psi(nja, nrep, f0) == f0

    # With P = P_M = id in degree 1: psi(f)(a) = f(Pa) - P_M f(a) = 0.
    nja_id = NijenhuisLieAlgebra(alg, Endomorphism.identity(2))
    nrep_id = adjoint_nijenhuis(nja_id)
    f1 = Cochain(1, 2, 2, {(0,): vector([1, 2]), (1,): vector([3, 4])})
    assert psi(nja_id, nrep_id, f1).is_zero()

    # With P = 0 every summand carries a P or P_M factor, except the k = n
    # term which feeds P into every slot; all vanish for n >= 1.
    nja_zero = NijenhuisLieAlgebra(alg, Endomorphism.zero(2))
    nrep_zero = adjoint_nijenhuis(nja_zero)
    assert psi(nja_zero, nrep_zero, f1).is_zero()


def test_psi_is_a_chain_map():
    rng = random.Random(31)
    for nja in _fixtures():
        nrep = adjoint_nijenhuis(nja)
        rep = nrep.representation
        for degree in range(0, 3):
            f = _random_cochain(rng, degree, nja.algebra.dim, rep.dim)
            lhs = psi(nja, nrep, delta_lie(rep, f))
            rhs = delta_njo(nja, nrep, psi(nja, nrep, f))
            assert lhs == rhs


def test_delta_njl_squares_to_zero():
    rng = random.Random(41)
    for nja in _fixtures():
        nrep = adjoint_nijenhuis(nja)
        d = nja.algebra.dim
        for degree in range(0, 3):
            lie = _random_cochain(rng, degree, d, d)
            njo = None if degree == 0 else _random_cochain(rng, degree - 1, d, d)
            pair = PairCochain(degree, lie, njo)
            once = delta_njl(nja, nrep, pair)
            twice = delta_njl(nja, nrep, once)
            assert twice.is_zero()


def test_betti_dim1_abelian_adjoint():
    # One-dimensional abelian algebra, adjoint module: both differentials
    # vanish, so b0 = b1 = 1.
    nja = NijenhuisLieAlgebra(abelian(1), Endomorphism.diagonal([5]))
    nrep = adjoint_nijenhuis(nja)
    report = betti(nja, nrep, "ce", 1)
    assert report.betti == [1, 1]


def test_betti_abelian_adjoint_full_spaces():
    # Abelian algebra, adjoint action is zero: b_k = n * C(n, k).
    for n in [2, 3]:
        nja = NijenhuisLieAlgebra(abelian(n), Endomorphism.identity(n))
        nrep = adjoint_nijenhuis(nja)
        report = betti(nja, nrep, "ce", n)
        assert report.betti == [n * comb(n, k) for k in range(n + 1)]


def test_betti_njo_identity_operator_gives_full_spaces():
    # delta_njo = 0 for P = P_M = id, so Betti numbers equal space dims.
    alg = sl2()
    nja = NijenhuisLieAlgebra(alg, Endomorphism.identity(3))
    nrep = adjoint_nijenhuis(nja)
    report = betti(nja, nrep, "njo", 3)
    assert report.betti == [3 * comb(3, k) for k in range(4)]


def test_betti_sl2_adjoint_all_vanish():
    # Semisimple algebra, nontrivial irreducible coefficients: the Casimir
    # acts invertibly, so every cohomology group vanishes.
    nja = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([2, 2, 2]))
    nrep = adjoint_nijenhuis(nja)
    report = betti(nja, nrep, "ce", 3)
    assert report.betti == [0, 0, 0, 0]


def test_betti_sl2_trivial_coefficients_classical():
    # H(sl2; trivial) is an exterior algebra on one degree-3 class.
    alg = sl2()
    nja = NijenhuisLieAlgebra(alg, Endomorphism.diagonal([1, 1, 1]))
    triv = trivial_representation(alg, 1)
    nrep = NijenhuisRepresentation(triv, Endomorphism.identity(1))
    report = betti(nja, nrep, "ce", 3)
    assert report.betti == [1, 0, 0, 1]


def test_betti_euler_characteristic_identities():
    for nja in _fixtures():
        nrep = adjoint_nijenhuis(nja)
        n = nja.algebra.dim
        ce_report = betti(nja, nrep, "ce", n)
        njo_report = betti(nja, nrep, "njo", n)
        njl_report = betti(nja, nrep, "njl", n + 1)
        for report in (ce_report, njo_report):
            assert sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0
            assert sum((-1) ** k * d for k, d in enumerate(report.dims)) == 0
        # The cone interleaves the two, so its alternating sums vanish over
        # the full range 0..n+1 as well.
        assert sum((-1) ** k * b for k, b in enumerate(njl_report.betti)) == 0
        assert sum((-1) ** k * d for k, d in enumerate(njl_report.dims)) == 0


def test_betti_beyond_top_degree_is_zero():
    nja = NijenhuisLieAlgebra(solvable2(), Endomorphism.diagonal([1, 2]))
    nrep = adjoint_nijenhuis(nja)
    report = betti(nja, nrep, "ce", 4)
    assert report.dims[3:] == [0, 0]
    assert report.betti[3:] == [0, 0]


def test_cone_betti_matches_les_bookkeeping():
    # dim H^n(cone) must equal ker + coker contributions from psi*:
    # from the long sequence, dim H^n_cone = dim ker(psi*_n) + coker(psi*_{n-1}).
    # We only check the weaker Euler consequence plus exactness elsewhere,
    # so here just pin a full cone Betti vector on a fixture.
    nja = NijenhuisLieAlgebra(solvable2(), Endomorphism.diagonal([1, 2]))
    nrep = adjoint_nijenhuis(nja)
    report = betti(nja, nrep, "njl", 3)
    ce_report = betti(nja, nrep, "ce", 2)
    njo_report = betti(nja, nrep, "njo", 2)
    # Consistency: alternating sums agree with the two factors.
    assert sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0
    assert report.dims[0] == ce_report.dims[0]
    assert report.dims[1] == ce_report.dims[1] + njo_report.dims[0]


def test_les_exact_on_fixtures():
    nja = NijenhuisLieAlgebra(solvable2(), Endomorphism.diagonal([1, 2]))
    nrep = adjoint_nijenhuis(nja)
    report = les_verify(nja, nrep, 2)
    assert report.ok, report.nodes

    nja2 = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([2, 2, 2]))
    report2 = les_verify(nja2, adjoint_nijenhuis(nja2), 3)
    assert report2.ok, report2.nodes


def test_semidirect_embedding_route_agrees():
    # Extending (f, g) by zero to the semidirect product, applying the cone
    # differential there, and projecting back must reproduce the direct
    # module-coefficient differential.
    alg = solvable2()
    p = Endomorphism.diagonal([1, 2])
    nja = NijenhuisLieAlgebra(alg, p)
    nrep = adjoint_nijenhuis(nja)
    big = semidirect_nijenhuis(nja, nrep)
    big_nrep = adjoint_nijenhuis(big)
    dim_g = alg.dim
    dim_m = nrep.representation.dim
    big_dim = dim_g + dim_m
    rng = random.Random(8)

    def embed(c: Cochain) -> Cochain:
        values = {}
        for idx, vec in c.values.items():
            values[idx] = zero_vector(dim_g) + vec
        return Cochain(c.degree, big_dim, big_dim, values)

    def restrict(c: Cochain) -> Cochain:
        values = {}
        for idx, vec in c.values.items():
            if all(i < dim_g for i in idx):
                values[idx] = vec[dim_g:]
        return Cochain(c.degree, dim_g, dim_m, values)

    for degree in [1, 2]:
        f = _random_cochain(rng, degree, dim_g, dim_m)
        g = _random_cochain(rng, degree - 1, dim_g, dim_m)
        pair = PairCochain(degree, f, g)
        direct = delta_njl(nja, nrep, pair)
        big_pair = PairCochain(degree, embed(f), embed(g))
        routed = delta_njl(big, big_nrep, big_pair)
        # Embedded images live inside the subcomplex: g-components vanish
        # and mixed/module-index tuples vanish.
        for part in (routed.lie_part, routed.njo_part):
            for idx, vec in part.values.items():
                assert all(v == 0 for v in vec[:dim_g])
                assert all(i < dim_g for i in idx)
        assert restrict(routed.lie_part) == direct.lie_part
        assert restrict(routed.njo_part) == direct.njo_part


def sl2_semidirect() -> NijenhuisLieAlgebra:
    """sl2 acting on a second copy of itself, with diag(1, 1, 2, 1, 1, 2)."""
    base = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 1, 2]))
    return semidirect_nijenhuis(base, adjoint_nijenhuis(base))


def _book(dim: int) -> LieAlgebra:
    # [e0, ei] = ei
    return LieAlgebra(
        dim, {(0, i): vector([1 if k == i else 0 for k in range(dim)]) for i in range(1, dim)}
    )


def _matrix_fixtures():
    """(name, algebra with operator, module with operator) for the oracle check."""
    heis3 = LieAlgebra(3, {(0, 1): vector([0, 0, 1])})
    cases = [
        ("sl2xsl2", sl2_semidirect()),
        ("book6", NijenhuisLieAlgebra(_book(6), Endomorphism.diagonal([1, 2, 3, -1, 2, 5]))),
        ("abelian2-jordan", NijenhuisLieAlgebra(abelian(2), Endomorphism.from_rows([[1, 1], [0, 1]]))),
        (
            "heis3-upper",
            NijenhuisLieAlgebra(heis3, Endomorphism.from_rows([[1, 2, 1], [0, 1, 3], [0, 0, 2]])),
        ),
        # Torsion T(e, f) = h: not a Nijenhuis operator.
        ("sl2-twisted", NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 0, 0]))),
    ]
    out = [(name, nja, adjoint_nijenhuis(nja)) for name, nja in cases]
    nja = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 1, 2]))
    trivial = NijenhuisRepresentation(
        trivial_representation(sl2(), 2), Endomorphism.from_rows([[1, 1], [0, 2]])
    )
    out.append(("sl2-trivial2", nja, trivial))
    return out


_MATRIX_FIXTURES = _matrix_fixtures()


@pytest.mark.parametrize(
    "name, nja, nrep", _MATRIX_FIXTURES, ids=[case[0] for case in _MATRIX_FIXTURES]
)
def test_differential_matrices_match_dense_oracle(name, nja, nrep):
    for which in ("ce", "njo", "njl"):
        cx = _complexes(nja, nrep)[which]
        for degree in range(4):
            expected = oracle_matrix(nja, nrep, which, degree)
            got = cx.matrix(degree)
            assert (got.nrows, got.ncols) == (expected.nrows, expected.ncols)
            assert got.entries == expected.entries, (name, which, degree)


def test_differentials_match_dense_oracles_on_random_cochains():
    rng = random.Random(53)
    cases = [(nja, adjoint_nijenhuis(nja)) for nja in _fixtures()]
    cases += [(nja, nrep) for _, nja, nrep in _MATRIX_FIXTURES if nja.algebra.dim < 6]
    # A dense, non-Nijenhuis P reaches every sign of the wedge expansion in psi.
    dense = NijenhuisLieAlgebra(sl2(), Endomorphism.from_rows([[1, -2, 3], [2, 0, 1], [-1, 1, 2]]))
    cases.append((dense, adjoint_nijenhuis(dense)))
    for nja, nrep in cases:
        rep = nrep.representation
        deformed = deformed_representation(rep, nja.operator, nrep.operator)
        d, m = nja.algebra.dim, rep.dim
        for degree in range(0, 3):
            f = _random_cochain(rng, degree, d, m)
            g = None if degree == 0 else _random_cochain(rng, degree - 1, d, m)
            assert delta_lie(rep, f) == delta_lie_slot_sum(rep, f)
            assert delta_njo(nja, nrep, f) == delta_njo_slot_sum(rep, deformed, nrep.operator, f)
            assert psi(nja, nrep, f) == psi_subset_sum(nja, nrep, f)
            pair = PairCochain(degree, f, g)
            direct = delta_njl(nja, nrep, pair)
            oracle = delta_njl_slot_sum(nja, nrep, deformed, pair)
            assert direct.lie_part == oracle.lie_part
            assert direct.njo_part == oracle.njo_part


def _count_deformed_builds(monkeypatch) -> list:
    calls = []
    original = njkit.cohomology.deformed_representation

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(njkit.cohomology, "deformed_representation", counted)
    return calls


def test_deformed_module_is_built_once_per_complex(monkeypatch):
    nja = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 1, 2]))
    nrep = adjoint_nijenhuis(nja)
    calls = _count_deformed_builds(monkeypatch)
    betti(nja, nrep, "njo", 2)
    assert len(calls) == 1
    calls.clear()
    betti(nja, nrep, "ce", 2)
    assert calls == []
    # les_verify's three complexes share one deformed module.
    assert les_verify(nja, nrep, 2).ok
    assert len(calls) == 1


def test_betti_refuses_a_candidate_operator_that_is_not_a_complex():
    # Torsion T(e, f) = h: d_1 d_0 != 0 on njo and d_2 d_1 != 0 on njl,
    # where Betti numbers would otherwise come out as [0, 1, 2, 1].
    nja = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 0, 0]))
    nrep = adjoint_nijenhuis(nja)
    assert betti(nja, nrep, "ce", 3).betti == [0, 0, 0, 0]
    with pytest.raises(ValueError, match="d_1 d_0"):
        betti(nja, nrep, "njo", 3)
    with pytest.raises(ValueError, match="d_2 d_1"):
        betti(nja, nrep, "njl", 3)


def test_les_verify_refuses_a_candidate_operator_that_is_not_a_complex():
    # The same torsion: njo fails first, where exactness would be read off
    # meaningless ranks.
    nja = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 0, 0]))
    with pytest.raises(ValueError, match="njo: not a complex: d_1 d_0"):
        les_verify(nja, adjoint_nijenhuis(nja), 2)


@pytest.mark.parametrize("which", ["ce", "njo", "njl", "les"])
def test_complexes_leave_no_cyclic_garbage(which):
    # A reference cycle through the complexes would keep every cached
    # matrix alive until the cyclic collector runs, raising peak memory.
    nja = sl2_semidirect()
    nrep = adjoint_nijenhuis(nja)
    gc.collect()
    gc.disable()
    try:
        if which == "les":
            assert les_verify(nja, nrep, 2).ok
        else:
            betti(nja, nrep, which, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cone_betti_of_sl2_semidirect_to_degree_3():
    # Pinned by an assembly from the defining formulas ranked with sympy
    # (perfbench/pin_reference.py); the case the twisted route once got wrong.
    nja = sl2_semidirect()
    nrep = adjoint_nijenhuis(nja)
    assert betti(nja, nrep, "njl", 3).betti == [0, 3, 13, 26]
    assert les_verify(nja, nrep, 2).ok
