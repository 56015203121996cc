"""Tests for the suspended graded calculus: braces, the graded Lie bracket,
the homotopy structure on bracket-operator pairs, Maurer-Cartan residuals,
and twisting.

Sign conventions are pinned by cross-module oracles: the cochain-complex
differentials from the cohomology module serve as independent references for
the suspended-side computations, and vice versa.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from njkit.braces import (
    CNjLElement,
    GradedSpace,
    MaurerCartanCandidate,
    NjlLInfty,
    SuspendedHom,
    _AlphaBraces,
    canonical_tuples,
    mc_candidate,
    mc_residual,
    njl_twisted_betti,
    nu_from_algebra,
    rn_bracket,
    shuffle_brace,
    tau_from_operator,
    to_suspended,
)
from njkit.cohomology import Cochain, betti, delta_lie, delta_njo, psi
from njkit.exact import Permutation, chi_sign, enumerate_shuffles, koszul_sign
from njkit.lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    adjoint_nijenhuis,
    validate_lie,
    validate_nijenhuis,
    vector,
)

import pytest

from oracles import (
    brace_subset_sum,
    cochain_to_plain,
    desuspend_output,
    from_suspended,
    graded_lie_on_plain_side,
    inverse,
    l_tagged,
    mc_families,
    mc_residual_by_hand,
    njl_generalized_jacobi,
    plain_to_cochain,
    twisted_l1,
)
from structures import semidirect_nijenhuis


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


def broken3() -> LieAlgebra:
    """A bracket that fails Jacobi, for negative checks."""
    return LieAlgebra(
        3,
        {
            (0, 1): vector([0, 0, 1]),
            (0, 2): vector([1, 0, 0]),
            (1, 2): vector([0, 3, 0]),
        },
    )


MIXED = GradedSpace.from_dims({1: 2, 2: 1})
# An odd part in degree 3 next to odd and even parts in degrees 1 and 2.
ODD3 = GradedSpace.from_dims({1: 1, 2: 1, 3: 2})


def _random_cochain(rng, degree, dim) -> Cochain:
    values = {}
    for idx in combinations(range(dim), degree):
        values[idx] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
    return Cochain(degree, dim, dim, values)


def _random_hom(rng, space, arity, total, sv_valued) -> SuspendedHom:
    shift = 0 if sv_valued else 1
    values = {}
    for tup in canonical_tuples(space, arity):
        d = total + sum(x[0] for x in tup) + shift
        gv = {}
        for i in range(space.dim(d)):
            c = rng.randint(-2, 2)
            if c:
                gv[(d, i)] = Fraction(c)
        if gv:
            values[tup] = gv
    return SuspendedHom(space, arity, total, sv_valued, values)


def test_suspended_hom_rejects_bad_data():
    space = GradedSpace.suspended_ungraded(2)
    with pytest.raises(ValueError):
        SuspendedHom(space, 0, 1, True, {})
    with pytest.raises(ValueError):  # non-canonical argument order
        SuspendedHom(space, 2, -1, True, {((1, 1), (1, 0)): {(1, 0): Fraction(1)}})
    with pytest.raises(ValueError):  # odd-degree element repeated
        SuspendedHom(space, 2, -1, True, {((1, 0), (1, 0)): {(1, 0): Fraction(1)}})
    with pytest.raises(ValueError):  # inhomogeneous output degree
        SuspendedHom(space, 1, 1, True, {((1, 0),): {(1, 0): Fraction(1)}})


def test_mc_candidate_rejects_bad_components():
    # Every component of both families is checked, also where b and r
    # share an arity, and each must have total degree -1: the Maurer-Cartan
    # families and the curvature agree only there.
    rng = random.Random(5)
    tau = _random_hom(rng, MIXED, 1, -1, False)
    for bad in (_random_hom(rng, MIXED, 2, -1, True), _random_hom(rng, MIXED, 1, 0, True)):
        with pytest.raises(ValueError, match="wrong arity|total degree -1"):
            MaurerCartanCandidate(MIXED, {1: bad}, {1: tau})
    with pytest.raises(ValueError, match="total degree -1"):
        MaurerCartanCandidate(MIXED, {}, {1: _random_hom(rng, MIXED, 1, 0, False)})


def test_evaluation_is_koszul_symmetric():
    # Graded symmetry under every permutation, arity up to 4 where the space
    # allows nonzero values.
    rng = random.Random(5)
    for arity in (2, 3, 4):
        for total in (-1, 0):
            h = _random_hom(rng, MIXED, arity, total, True)
            for tup in canonical_tuples(MIXED, arity):
                base = h.evaluate(tup)
                degrees = [d for d, _ in tup]
                for images in permutations(range(1, arity + 1)):
                    sigma = Permutation(images)
                    shuffled = tuple(tup[i - 1] for i in images)
                    sign = koszul_sign(inverse(sigma), degrees)
                    got = h.evaluate(shuffled)
                    want = {k: sign * v for k, v in base.items()}
                    assert got == want


def test_evaluate_mixed_checks_the_number_of_slots():
    rng = random.Random(6)
    h = _random_hom(rng, MIXED, 2, -1, True)
    a, b = (1, 0), (1, 1)
    assert h.evaluate_mixed([a, b]) == h.evaluate((a, b))
    for slots in ([a], [a, b, a], [{a: Fraction(1)}], []):
        with pytest.raises(ValueError, match="wrong number of arguments"):
            h.evaluate_mixed(slots)
        with pytest.raises(ValueError, match="wrong number of arguments"):
            h.evaluate([s if isinstance(s, tuple) else a for s in slots])


def test_suspension_identifications_round_trip():
    rng = random.Random(7)
    for degree in (1, 2, 3):
        f = _random_cochain(rng, degree, 3)
        sf = to_suspended(f)
        assert sf.arity == degree and sf.total_degree == 1 - degree
        assert from_suspended(sf) == f
        g = cochain_to_plain(f)
        assert g.total_degree == -degree and not g.sv_valued
        assert plain_to_cochain(g) == f
        assert desuspend_output(g.suspend_output()) == g


def test_brace_with_unary_maps_is_composition():
    rng = random.Random(9)
    sf = _random_hom(rng, MIXED, 1, 0, True)
    sg = _random_hom(rng, MIXED, 1, -1, True)
    composed = shuffle_brace(sf, [sg])
    for b in MIXED.basis():
        assert composed.evaluate((b,)) == sf.evaluate_mixed([sg.evaluate((b,))])


def test_brace_single_argument_matches_slot_sum():
    # Inserting one argument must equal the sum over input slots with the
    # Koszul prefactor for carrying the argument past earlier inputs.
    rng = random.Random(13)
    # The last two cases reach output arity 4 and 5, where a local shuffle
    # and its inverse can pick different argument subsets.
    cases = [
        (2, 1, -1, 0),
        (3, 1, -1, -1),
        (2, 2, 0, -1),
        (2, 3, -2, -3),
        (3, 3, -3, -3),
    ]
    for f_arity, g_arity, f_total, g_total in cases:
        sf = _random_hom(rng, MIXED, f_arity, f_total, True)
        sg = _random_hom(rng, MIXED, g_arity, g_total, True)
        braced = shuffle_brace(sf, [sg])
        for tup in canonical_tuples(MIXED, braced.arity):
            expected: dict = {}
            # Choose which inputs feed sg (contiguity is not required; the
            # local shuffle reorders), then route the rest to sf in order.
            for chosen in combinations(range(len(tup)), g_arity):
                rest = [tup[i] for i in range(len(tup)) if i not in chosen]
                picked = [tup[i] for i in chosen]
                # Koszul sign of extracting the picked elements to the front
                # of their insertion point, computed by bubbling.
                sign = 1
                seq = list(range(len(tup)))
                for slot, src in enumerate(chosen):
                    cur = seq.index(src)
                    insert_at = slot
                    while cur > insert_at:
                        left = seq[cur - 1]
                        if (tup[left][0] * tup[src][0]) % 2:
                            sign = -sign
                        seq[cur - 1], seq[cur] = seq[cur], seq[cur - 1]
                        cur -= 1
                inner = sg.evaluate(tuple(picked))
                if not inner:
                    continue
                # sg then moves past nothing: it acts at the front; account
                # for its own degree passing the elements before the front,
                # which is none after the extraction above.
                val = sf.evaluate_mixed([inner] + rest)
                for k, v in val.items():
                    expected[k] = expected.get(k, Fraction(0)) + sign * v
            expected = {k: v for k, v in expected.items() if v}
            assert braced.evaluate(tup) == expected


def test_brace_matches_subset_sum_oracle():
    # One to three arguments, output arity 3 to 5, on two mixed-parity
    # spaces: the even degree-2 element of MIXED repeats inside a tuple.
    rng = random.Random(17)
    cases = [
        (2, -2, [(2, -2)]),
        (3, -3, [(2, -2)]),
        (2, -2, [(3, -3)]),
        (3, -3, [(3, -3)]),
        (2, -2, [(1, 0), (2, -2)]),
        (3, -3, [(2, -2), (1, -1)]),
        (2, -2, [(2, -2), (2, -3)]),
        (3, -3, [(2, -2), (2, -2)]),
        (3, -3, [(1, 0), (1, -1), (1, 0)]),
        (3, -3, [(1, 0), (2, -2), (1, -1)]),
        (3, -4, [(2, -2), (1, 0), (2, -3)]),
    ]
    for space in (MIXED, ODD3):
        nonzero = 0
        for f_arity, f_total, g_specs in cases:
            f = _random_hom(rng, space, f_arity, f_total, True)
            gs = [_random_hom(rng, space, a, t, True) for a, t in g_specs]
            braced = shuffle_brace(f, gs)
            assert braced == brace_subset_sum(f, gs)
            nonzero += not braced.is_zero()
        assert nonzero >= len(cases) - 2


def test_brace_is_graded_pre_lie():
    # (f{g}){h} - f{g{h}} = (-1)^{|g||h|} ((f{h}){g} - f{h{g}})
    rng = random.Random(19)
    specs = [(1, 0), (1, -1), (2, -2), (2, -3), (3, -3)]
    for space in (MIXED, ODD3):
        nonzero = 0
        for _ in range(10):
            f, g, h = (
                _random_hom(rng, space, *specs[rng.randrange(len(specs))], True)
                for _ in range(3)
            )
            left = shuffle_brace(shuffle_brace(f, [g]), [h]).sub(
                shuffle_brace(f, [shuffle_brace(g, [h])])
            )
            right = shuffle_brace(shuffle_brace(f, [h]), [g]).sub(
                shuffle_brace(f, [shuffle_brace(h, [g])])
            )
            sign = -1 if (g.total_degree * h.total_degree) % 2 else 1
            assert left == right.scale(sign)
            nonzero += not left.is_zero()
        assert nonzero >= 3


def test_brace_argument_validation():
    rng = random.Random(15)
    sf = _random_hom(rng, MIXED, 2, -1, True)
    plain = _random_hom(rng, MIXED, 1, -1, False)
    with pytest.raises(ValueError):
        shuffle_brace(sf, [plain])
    unary = _random_hom(rng, MIXED, 1, 0, True)
    with pytest.raises(ValueError):
        shuffle_brace(unary, [unary, unary])


def test_nu_self_brace_is_the_jacobiator():
    assert shuffle_brace(nu_from_algebra(sl2()), [nu_from_algebra(sl2())]).is_zero()

    nub = nu_from_algebra(broken3())
    br = shuffle_brace(nub, [nub])
    assert not br.is_zero()
    # Hand-expanded alternating Jacobiator in the suspended picture.
    for i, j, k in combinations(range(3), 3):
        acc: dict = {}

        def add(gv, c):
            for kk, v in gv.items():
                acc[kk] = acc.get(kk, Fraction(0)) + c * v

        add(nub.evaluate_mixed([(1, i), nub.evaluate(((1, j), (1, k)))]), Fraction(-1))
        add(nub.evaluate_mixed([nub.evaluate(((1, i), (1, j))), (1, k)]), Fraction(1))
        add(nub.evaluate_mixed([nub.evaluate(((1, i), (1, k))), (1, j)]), Fraction(-1))
        assert br.evaluate(((1, i), (1, j), (1, k))) == {
            z: v for z, v in acc.items() if v
        }


def test_brace_composition_identity():
    # (f{g}){h} = f{g{h}} + f{g, h} + (-1)^{|g||h|} f{h, g}
    rng = random.Random(21)
    for g_arity, h_arity, g_total, h_total in [(1, 1, 0, -1), (2, 1, -1, 0), (1, 2, 0, -1)]:
        f = _random_hom(rng, MIXED, 2, -1, True)
        g = _random_hom(rng, MIXED, g_arity, g_total, True)
        h = _random_hom(rng, MIXED, h_arity, h_total, True)
        lhs = shuffle_brace(shuffle_brace(f, [g]), [h])
        rhs = shuffle_brace(f, [shuffle_brace(g, [h])])
        rhs = rhs.add(shuffle_brace(f, [g, h]))
        swap = shuffle_brace(f, [h, g])
        sign = -1 if (g.total_degree * h.total_degree) % 2 else 1
        rhs = rhs.add(swap.scale(sign))
        assert lhs == rhs


def test_rn_bracket_antisymmetry():
    rng = random.Random(23)
    nub = nu_from_algebra(broken3())
    assert rn_bracket(nub, nub) == shuffle_brace(nub, [nub]).scale(2)
    for a_arity, a_total, b_arity, b_total in [(1, 0, 2, -1), (2, -1, 2, -1), (1, -1, 1, 0)]:
        a = _random_hom(rng, MIXED, a_arity, a_total, True)
        b = _random_hom(rng, MIXED, b_arity, b_total, True)
        sign = -1 if (a.total_degree * b.total_degree) % 2 else 1
        assert rn_bracket(a, b) == rn_bracket(b, a).scale(-sign)


def test_rn_bracket_graded_jacobi():
    # Graded Leibniz form of Jacobi on random triples over a space of total
    # dimension 3 with mixed degrees.
    rng = random.Random(29)
    specs = [(1, 0), (2, -1), (1, -1), (2, 0), (3, -1)]
    for _ in range(12):
        sa = specs[rng.randrange(len(specs))]
        sb = specs[rng.randrange(len(specs))]
        sc = specs[rng.randrange(len(specs))]
        a = _random_hom(rng, MIXED, sa[0], sa[1], True)
        b = _random_hom(rng, MIXED, sb[0], sb[1], True)
        c = _random_hom(rng, MIXED, sc[0], sc[1], True)
        lhs = rn_bracket(a, rn_bracket(b, c))
        rhs = rn_bracket(rn_bracket(a, b), c)
        sign = -1 if (a.total_degree * b.total_degree) % 2 else 1
        rhs = rhs.add(rn_bracket(b, rn_bracket(a, c)).scale(sign))
        assert lhs == rhs


def test_delta_lie_is_rn_bracket_with_the_structure_element():
    rng = random.Random(31)
    alg = sl2()
    adj = Representation.adjoint(alg)
    nu = nu_from_algebra(alg)
    for degree in (1, 2):
        f = _random_cochain(rng, degree, 3)
        routed = from_suspended(rn_bracket(to_suspended(f), nu).scale(-1))
        assert routed == delta_lie(adj, f)


def test_mixed_component_equals_six_term_expansion():
    rng = random.Random(37)
    alg = sl2()
    nu = nu_from_algebra(alg)
    structure = NjlLInfty(nu.space)
    for n, k in [(1, 1), (1, 2), (2, 1)]:
        f = cochain_to_plain(_random_cochain(rng, n, 3))
        g = cochain_to_plain(_random_cochain(rng, k, 3))
        expanded = graded_lie_on_plain_side(nu, f, g)
        out = l_tagged(structure, [("lie", nu), ("njo", f), ("njo", g)])
        lie, njo = out.collect()
        assert not lie
        assert njo[n + k] == expanded


def test_mixed_component_chi_symmetry_in_operator_slots():
    rng = random.Random(41)
    alg = sl2()
    structure = NjlLInfty(nu_from_algebra(alg).space)
    sh = to_suspended(_random_cochain(rng, 2, 3))
    g1 = cochain_to_plain(_random_cochain(rng, 1, 3))
    g2 = cochain_to_plain(_random_cochain(rng, 2, 3))
    a = l_tagged(structure, [("lie", sh), ("njo", g1), ("njo", g2)])
    b = l_tagged(structure, [("lie", sh), ("njo", g2), ("njo", g1)])
    chi = chi_sign(Permutation((2, 1)), [g1.total_degree, g2.total_degree])
    _, na = a.collect()
    _, nb = b.collect()
    assert na[3] == nb[3].scale(chi)


def test_operator_power_component_matches_nested_braces():
    # The all-operator component against an independently nested expansion:
    # scaling the arity-(n+1) component by (-1)^{n(n+1)/2}/n! must reproduce
    # the alternating sum of k-fold outer insertions.
    rng = random.Random(43)
    alg = sl2()
    p = Endomorphism.diagonal([2, 5, 2])
    nu = nu_from_algebra(alg)
    tau = tau_from_operator(p)
    stau = tau.suspend_output()
    structure = NjlLInfty(nu.space)
    saw_nonzero = False
    for n in (1, 2):
        for _ in range(3):
            sf = to_suspended(_random_cochain(rng, n, 3))
            out = l_tagged(structure, [("njo", tau)] * n + [("lie", sf)])
            _, njo = out.collect()
            acc = None
            for k in range(n + 1):
                term = shuffle_brace(sf, [stau] * (n - k))
                for _ in range(k):
                    term = shuffle_brace(stau, [term])
                term = desuspend_output(term).scale((-1) ** (k % 2))
                acc = term if acc is None else acc.add(term)
            got = njo.get(n)
            if got is None:
                assert acc.is_zero()
                continue
            saw_nonzero = True
            scale = Fraction((-1) ** ((n * (n + 1) // 2) % 2), factorial(n))
            assert got.scale(scale) == acc
    assert saw_nonzero


def _twisted_parts(alg: LieAlgebra, p: Endomorphism):
    nu = nu_from_algebra(alg)
    tau = tau_from_operator(p)
    structure = NjlLInfty(nu.space)
    alpha = CNjLElement(lie=[nu], njo=[tau])
    return structure, alpha


def test_twisted_differential_blocks_match_cone_blocks():
    # Regression constants: the twisted unary operation reproduces the three
    # cochain differentials blockwise, with per-arity scalars measured once
    # against the cohomology module and frozen here.
    rng = random.Random(47)
    alg = sl2()
    p = Endomorphism.diagonal([2, 5, 2])
    nja = NijenhuisLieAlgebra(alg, p)
    nrep = adjoint_nijenhuis(nja)
    adj = nrep.representation
    structure, alpha = _twisted_parts(alg, p)
    for n in (1, 2):
        f = _random_cochain(rng, n, 3)
        out = twisted_l1(structure, alpha, CNjLElement(lie=[to_suspended(f)]))
        lie, njo = out.collect()
        assert lie[n + 1] == to_suspended(delta_lie(adj, f)).scale((-1) ** n)
        assert plain_to_cochain(njo[n]) == psi(nja, nrep, f)
    for a in (1, 2):
        g = _random_cochain(rng, a, 3)
        out = twisted_l1(structure, alpha, CNjLElement(njo=[cochain_to_plain(g)]))
        lie, njo = out.collect()
        assert not lie
        assert plain_to_cochain(njo[a + 1]) == delta_njo(nja, nrep, g).scale(
            (-1) ** (a + 1)
        )


def test_twisted_differential_squares_to_zero():
    rng = random.Random(53)
    for alg, p in [
        (sl2(), Endomorphism.diagonal([2, 5, 2])),
        (solvable2(), Endomorphism.diagonal([1, 2])),
    ]:
        structure, alpha = _twisted_parts(alg, p)
        for _ in range(3):
            lie = [to_suspended(_random_cochain(rng, n, alg.dim)) for n in (1, 2)]
            njo = [cochain_to_plain(_random_cochain(rng, a, alg.dim)) for a in (1, 2)]
            e = CNjLElement(lie=lie, njo=njo)
            assert twisted_l1(structure, alpha, twisted_l1(structure, alpha, e)).is_zero()


def test_twisted_betti_equals_cone_betti():
    for alg, p in [
        (sl2(), Endomorphism.diagonal([2, 5, 2])),
        (solvable2(), Endomorphism.diagonal([1, 2])),
    ]:
        nja = NijenhuisLieAlgebra(alg, p)
        nrep = adjoint_nijenhuis(nja)
        assert njl_twisted_betti(alg, p, 3) == betti(nja, nrep, "njl", 3).betti


def test_twisted_betti_pinned_value_for_sl2():
    # H(sl2, diagonal operator with a repeated eigenvalue): computed by the
    # cone route and frozen.
    assert njl_twisted_betti(sl2(), Endomorphism.diagonal([2, 5, 2]), 3) == [0, 1, 4, 4]


def test_twisted_betti_refuses_a_candidate_operator_with_torsion():
    # diag(1, 0, 0) on sl2 has torsion T(e, f) = h, and d_2 d_1 != 0.
    with pytest.raises(ValueError, match="d_2 d_1"):
        njl_twisted_betti(sl2(), Endomorphism.diagonal([1, 0, 0]), 3)


def test_twisted_betti_of_sl2_semidirect_matches_cone_to_degree_3():
    # Dimension 6 takes the brace to output arity 5 with many nonzero terms;
    # the local-shuffle route that gathered inputs through the inverse
    # shuffle gave b_3 = 8 here.
    base = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 1, 2]))
    nja = semidirect_nijenhuis(base, adjoint_nijenhuis(base))
    twisted = njl_twisted_betti(nja.algebra, nja.operator, 3)
    assert twisted == [0, 3, 13, 26]
    assert twisted == betti(nja, adjoint_nijenhuis(nja), "njl", 3).betti


def test_generalized_jacobi_residual_vanishes():
    rng = random.Random(59)
    alg = solvable2()
    space = nu_from_algebra(alg).space
    structure = NjlLInfty(space)

    def lie_hom(arity, total):
        return ("lie", _random_hom(rng, space, arity, total, True))

    def njo_hom(arity, total):
        return ("njo", _random_hom(rng, space, arity, total, False))

    cases = [
        [lie_hom(1, 0), lie_hom(2, -1), lie_hom(1, 0)],
        [lie_hom(2, -1), njo_hom(1, -1), njo_hom(1, -1)],
        [lie_hom(1, 0), lie_hom(1, 0), njo_hom(1, -1)],
        [lie_hom(2, -1), lie_hom(2, -1), njo_hom(2, -2)],
        [lie_hom(2, -1), njo_hom(2, -2), njo_hom(1, -1)],
        [lie_hom(3, -2), njo_hom(1, -1), njo_hom(1, -1), njo_hom(1, 0)],
    ]
    for inputs in cases:
        assert njl_generalized_jacobi(structure, inputs).is_zero()


def test_graded_lie_on_plain_side_properties():
    rng = random.Random(61)
    alg = sl2()
    nu = nu_from_algebra(alg)
    tau_good = tau_from_operator(Endomorphism.diagonal([2, 5, 2]))
    tau_bad = tau_from_operator(Endomorphism.diagonal([2, 5, 1]))
    # Maurer-Cartan elements of the bracket are exactly the torsion-free
    # operators.
    assert graded_lie_on_plain_side(nu, tau_good, tau_good).is_zero()
    assert not graded_lie_on_plain_side(nu, tau_bad, tau_bad).is_zero()
    # chi-symmetry under swapping the two slots.
    for n, k in [(1, 1), (1, 2), (2, 2)]:
        f = cochain_to_plain(_random_cochain(rng, n, 3))
        g = cochain_to_plain(_random_cochain(rng, k, 3))
        chi = chi_sign(Permutation((2, 1)), [f.total_degree, g.total_degree])
        assert graded_lie_on_plain_side(nu, f, g) == graded_lie_on_plain_side(
            nu, g, f
        ).scale(chi)


def test_bracketing_with_operator_gives_operator_differential():
    # Frozen scalar: inserting the operator element in the first slot of the
    # induced bracket reproduces the operator-complex differential up to
    # (-1)^n, measured against the cohomology module.
    rng = random.Random(67)
    alg = sl2()
    p = Endomorphism.diagonal([2, 5, 2])
    nja = NijenhuisLieAlgebra(alg, p)
    nrep = adjoint_nijenhuis(nja)
    nu = nu_from_algebra(alg)
    tau = tau_from_operator(p)
    for n in (1, 2):
        f = _random_cochain(rng, n, 3)
        routed = graded_lie_on_plain_side(nu, tau, cochain_to_plain(f))
        assert plain_to_cochain(routed) == delta_njo(nja, nrep, f).scale((-1) ** n)


def _linfty(space: GradedSpace, operations: dict) -> MaurerCartanCandidate:
    # An L-infinity algebra is a candidate without operator components.
    return MaurerCartanCandidate(space, operations, {})


def test_linfty_validate_accepts_dg_structure():
    # A three-term complex with a compatible square-zero bracket, written
    # directly in suspended form.
    space = GradedSpace.from_dims({1: 1, 2: 1, 3: 1})
    b1 = SuspendedHom(space, 1, -1, True, {((2, 0),): {(1, 0): Fraction(1)}})
    b2 = SuspendedHom(space, 2, -1, True, {((2, 0), (2, 0)): {(3, 0): Fraction(1)}})
    report = mc_residual(_linfty(space, {1: b1, 2: b2}), 4)
    assert report.ok
    assert report.bracket_residuals == {1: 0, 2: 0, 3: 0}
    assert report.operator_residuals == {}

    assert mc_residual(_linfty(space, {}), 3).ok

    # Perturbing the bracket breaks compatibility with the differential.
    b2_bad = b2.add(
        SuspendedHom(space, 2, -1, True, {((1, 0), (2, 0)): {(2, 0): Fraction(1)}})
    )
    report = mc_residual(_linfty(space, {1: b1, 2: b2_bad}), 3)
    assert not report.ok
    assert report.bracket_residuals[2] > 0


def test_linfty_validate_accepts_lie_structure_element():
    nu = nu_from_algebra(sl2())
    assert mc_residual(_linfty(nu.space, {2: nu}), 4).ok
    nub = nu_from_algebra(broken3())
    report = mc_residual(_linfty(nub.space, {2: nub}), 3)
    assert not report.ok and report.bracket_residuals[3] > 0


def test_mc_residual_fixture_examples():
    # Bracket alone.
    nu = nu_from_algebra(sl2())
    cand = MaurerCartanCandidate(nu.space, {2: nu}, {})
    assert mc_residual(cand, 2).ok

    # Bracket plus operator on the 2-dimensional solvable algebra.
    report = mc_residual(
        mc_candidate(solvable2(), Endomorphism.diagonal([1, 2])), 2
    )
    assert report.ok
    assert report.bracket_residuals == {3: 0}
    assert report.operator_residuals == {2: 0}

    # A non-Nijenhuis perturbation shows up in the operator family at
    # arity 2; a Jacobi failure shows up in the bracket family at arity 3.
    bad_p = mc_residual(mc_candidate(sl2(), Endomorphism.diagonal([2, 5, 1])), 2)
    assert not bad_p.ok and bad_p.operator_residuals[2] > 0
    bad_mu = mc_residual(mc_candidate(broken3(), Endomorphism.diagonal([1, 1, 1])), 2)
    assert not bad_mu.ok and bad_mu.bracket_residuals[3] > 0


def test_mc_residual_rejects_a_truncation_that_drops_a_component():
    # At n_max 1 the arity-2 bracket would be dropped and no equation
    # evaluated: the broken bracket must not come out flat.
    cand = mc_candidate(broken3(), Endomorphism.diagonal([1, 1, 1]))
    with pytest.raises(ValueError, match="lowest value .* is 2"):
        mc_residual(cand, 1)
    assert not mc_residual(cand, 2).ok
    # Only nonzero components count: an abelian bracket is zero.
    abelian = mc_candidate(LieAlgebra(2, {}), Endomorphism.diagonal([1, 2]))
    assert mc_residual(abelian, 1).ok


def test_mc_residual_iff_validators():
    rng = random.Random(71)
    cases = []
    cases.append((sl2(), Endomorphism.diagonal([2, 5, 2])))
    cases.append((solvable2(), Endomorphism.diagonal([1, 2])))
    for _ in range(6):
        dim = rng.randint(2, 3)
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                vec = tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim))
                if any(vec):
                    brackets[(i, j)] = vec
        alg = LieAlgebra(dim, brackets)
        p = Endomorphism.from_rows(
            [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
        )
        cases.append((alg, p))
    for alg, p in cases:
        valid = validate_lie(alg).ok and validate_nijenhuis(alg, p).ok
        assert mc_residual(mc_candidate(alg, p), 2).ok == valid


def _random_graded_space(rng) -> GradedSpace:
    dims = {d: rng.randint(0, 2) for d in (0, 1, 2)}
    dims[rng.choice((0, 1, 2))] += 1
    return GradedSpace.from_dims(dims)


def _random_family(rng, space, sv_valued) -> dict[int, SuspendedHom]:
    """Degree -1 components at a random subset of arities 1..3, some zero,
    some sparse."""
    family = {}
    for arity in (1, 2, 3):
        kind = rng.choice(("absent", "absent", "zero", "sparse", "dense"))
        if kind == "absent":
            continue
        h = _random_hom(rng, space, arity, -1, sv_valued)
        if kind != "dense":
            keep = [] if kind == "zero" else rng.sample(sorted(h.values), len(h.values) // 3)
            h = SuspendedHom(space, arity, -1, sv_valued, {k: h.values[k] for k in keep})
        family[arity] = h
    return family


def _random_candidates(seed: int, count: int) -> list[MaurerCartanCandidate]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        space = _random_graded_space(rng)
        b, r = _random_family(rng, space, True), _random_family(rng, space, False)
        out.append(MaurerCartanCandidate(space, b, r))
    return out


def test_curvature_is_minus_the_bracket_family_plus_the_operator_family():
    # The one alpha-expansion with an empty tail, side by side and arity by
    # arity, against both families expanded brace by brace.
    for cand in _random_candidates(79, 30):
        alpha = CNjLElement(list(cand.b.values()), list(cand.r.values()))
        lie, njo = NjlLInfty(cand.space)._alpha_expansion(_AlphaBraces(alpha), []).collect()
        bracket, operator = mc_families(cand, 3)
        for got, family, sign in ((lie, bracket, -1), (njo, operator, 1)):
            for n in set(got) | set(family):
                want = family[n].scale(sign).values if n in family else {}
                assert (got[n].values if n in got else {}) == want, n


def test_mc_residual_matches_the_families_expanded_by_hand():
    for cand in _random_candidates(83, 40):
        needed = max(
            (a for fam in (cand.b, cand.r) for a, h in fam.items() if not h.is_zero()), default=1
        )
        for n_max in range(needed, 4):
            got = mc_residual(cand, n_max).to_dict()
            assert got == mc_residual_by_hand(cand, n_max).to_dict()
        if needed > 1:
            with pytest.raises(ValueError, match=f"keeps the candidate whole is {needed}$"):
                mc_residual(cand, needed - 1)


def test_linfty_validate_matches_the_family_expanded_by_hand():
    rng = random.Random(89)
    for _ in range(40):
        space = _random_graded_space(rng)
        cand = _linfty(space, _random_family(rng, space, True))
        needed = max((a for a, h in cand.b.items() if not h.is_zero()), default=1)
        n_max = rng.randint(needed, 5)
        got = mc_residual(cand, n_max).to_dict()
        assert got == mc_residual_by_hand(cand, n_max).to_dict()
        assert got["operator_residuals"] == {}


def test_rn_bracket_of_a_map_with_itself_is_one_brace():
    # [a, a] = (1 - (-1)^|a|) a{a}: twice the brace for odd |a|, zero for
    # even |a|, as the two-brace formula gives on an equal copy.
    # Each map is redrawn until its self-brace is nonzero, so that every
    # case, the even one included, tells a{a} from zero.
    rng = random.Random(97)
    for total in (-1, 0, 1):
        a = _random_hom(rng, MIXED, 2, total, True)
        while shuffle_brace(a, [a]).is_zero():
            a = _random_hom(rng, rng.choice((MIXED, ODD3)), rng.choice((1, 2)), total, True)
        copy = SuspendedHom(a.space, a.arity, a.total_degree, True, a.values)
        assert rn_bracket(a, a) == rn_bracket(a, copy)
        assert rn_bracket(a, a) == shuffle_brace(a, [a]).scale(2 if total % 2 else 0)


def _sl2_semidirect() -> NijenhuisLieAlgebra:
    base = NijenhuisLieAlgebra(sl2(), Endomorphism.diagonal([1, 1, 2]))
    return semidirect_nijenhuis(base, adjoint_nijenhuis(base))


_GARBAGE_FREE = {
    "njl_twisted_betti": lambda: njl_twisted_betti(sl2(), Endomorphism.diagonal([2, 5, 2]), 2),
    "mc_residual": lambda: mc_residual(
        mc_candidate(_sl2_semidirect().algebra, _sl2_semidirect().operator), 2
    ),
    "shuffle_brace": lambda: shuffle_brace(nu_from_algebra(sl2()), [nu_from_algebra(sl2())]),
    "enumerate_shuffles": lambda: enumerate_shuffles((2, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(_GARBAGE_FREE))
def test_brace_routes_leave_no_cyclic_garbage(name):
    # A recursive closure refers to itself, so each call that builds one
    # leaves a reference cycle for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        _GARBAGE_FREE[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_njl_linfty_two_lie_arguments_is_rn_bracket():
    rng = random.Random(73)
    structure = NjlLInfty(GradedSpace.suspended_ungraded(3))
    a = to_suspended(_random_cochain(rng, 2, 3))
    b = to_suspended(_random_cochain(rng, 1, 3))
    out = l_tagged(structure, [("lie", a), ("lie", b)])
    lie, njo = out.collect()
    assert not njo
    assert lie[2] == rn_bracket(a, b)
    # Components outside the two families vanish.
    g = cochain_to_plain(_random_cochain(rng, 1, 3))
    assert l_tagged(structure, [("njo", g), ("njo", g)]).is_zero()
    assert l_tagged(structure, [("lie", a), ("lie", b), ("njo", g)]).is_zero()
