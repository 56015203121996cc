"""End-to-end acceptance gate: ten checks covering the package's headline
guarantees.

Each test prints a single ``acceptance NN [PASS/FAIL] label`` line on the
real stdout (so the verdicts survive pytest's capture) and then asserts.
Every equality is exact; randomized samples come from seeded constructions
that are Nijenhuis by design, and their validity is asserted as a
precondition so a failure always points at the property under test. Checks
whose guarantee includes a wall-clock budget enforce it.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from itertools import combinations

from njkit.algebroid import (
    AlgebroidForm,
    ConePair,
    GradedField,
    PolyAlgebroid,
    algebroid_fn_bracket,
    algebroid_over_point,
    b_from_field,
    delta_njld,
    graded_commutator,
    homological_field_q,
    phi_map,
    section_bracket,
    trivial_algebroid,
    validate_algebroid,
)
from njkit.braces import (
    GradedSpace,
    SuspendedHom,
    canonical_tuples,
    mc_candidate,
    mc_residual,
    njl_twisted_betti,
    rn_bracket,
)
from njkit.cohomology import (
    Cochain,
    PairCochain,
    betti,
    delta_lie,
    delta_njl,
    delta_njo,
    les_verify,
    psi,
)
from njkit.forms import (
    Poly,
    VectorValuedForm,
    check_homotopy,
    fn_betti,
    fn_bracket,
    nijenhuis_torsion_form,
)
from njkit.lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    adjoint_nijenhuis,
    deformed_bracket,
    validate_lie,
    validate_nijenhuis,
    validate_nijenhuis_representation,
    validate_representation,
    vector,
)
from oracles import (
    commutator_shuffle_expansion,
    fn_bracket_decomposable,
    validate_algebroid_on_frames,
)
from structures import semidirect_nijenhuis, trivial_representation


def _finish(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {num:02d} [{status}] {label}", file=sys.__stdout__, flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


# ---------------------------------------------------------------------------
# Fixture algebras


def _sl2() -> LieAlgebra:
    return LieAlgebra(
        3,
        {
            (0, 1): vector([0, 2, 0]),
            (0, 2): vector([0, 0, -2]),
            (1, 2): vector([1, 0, 0]),
        },
    )


def _sl2_centre() -> LieAlgebra:
    # sl2 plus a central fourth basis vector (gl2 up to basis).
    return LieAlgebra(
        4,
        {
            (0, 1): vector([0, 2, 0, 0]),
            (0, 2): vector([0, 0, -2, 0]),
            (1, 2): vector([1, 0, 0, 0]),
        },
    )


def _solvable2() -> LieAlgebra:
    return LieAlgebra(2, {(0, 1): vector([1, 0])})


def _heisenberg() -> LieAlgebra:
    return LieAlgebra(3, {(0, 1): vector([0, 0, 1])})


def _book3() -> LieAlgebra:
    # [e1, e2] = e2, [e1, e3] = e3: every diagonal operator has zero torsion.
    return LieAlgebra(3, {(0, 1): vector([0, 1, 0]), (0, 2): vector([0, 0, 1])})


def _broken3() -> LieAlgebra:
    return LieAlgebra(
        3,
        {
            (0, 1): vector([0, 0, 1]),
            (0, 2): vector([1, 0, 0]),
            (1, 2): vector([0, 3, 0]),
        },
    )


def _one_dim_rep(alg: LieAlgebra, scalars: list[int]) -> Representation:
    return Representation(
        alg, 1, tuple(Endomorphism.from_rows([[c]]) for c in scalars)
    )


def _nijenhuis_samples(rng: random.Random):
    """Six exactly-valid (algebra, module) pairs with randomized parameters.

    Constructions: diagonal operators on solvable algebras, scalar
    operators, repeated-eigenvalue diagonals on the Heisenberg algebra,
    arbitrary operators on abelian algebras, and a deformed bracket. Module
    operators are scalars, arbitrary on trivial modules, or the algebra
    operator itself (adjoint); each family satisfies the compatibility
    identity for structural reasons, re-verified by the validators below.
    """
    samples = []

    alg = _solvable2()
    p = Endomorphism.diagonal([rng.randint(-3, 3), rng.randint(-3, 3)])
    rep = _one_dim_rep(alg, [0, rng.randint(-3, 3)])
    p_m = Endomorphism.from_rows([[rng.randint(-3, 3)]])
    samples.append((NijenhuisLieAlgebra(alg, p), NijenhuisRepresentation(rep, p_m)))

    lam = rng.randint(-3, 3)
    nja = NijenhuisLieAlgebra(_sl2(), Endomorphism.diagonal([lam, lam, lam]))
    samples.append((nja, adjoint_nijenhuis(nja)))

    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    heis = NijenhuisLieAlgebra(_heisenberg(), Endomorphism.diagonal([a, b, a]))
    triv = trivial_representation(heis.algebra, 2)
    p_m = Endomorphism.from_rows(
        [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
    )
    samples.append((heis, NijenhuisRepresentation(triv, p_m)))

    ab = LieAlgebra(4, {})
    p = Endomorphism.from_rows(
        [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
    )
    actions = tuple(
        Endomorphism.diagonal([rng.randint(-2, 2), rng.randint(-2, 2)])
        for _ in range(4)
    )
    mu = rng.randint(-3, 3)
    samples.append(
        (
            NijenhuisLieAlgebra(ab, p),
            NijenhuisRepresentation(
                Representation(ab, 2, actions), Endomorphism.diagonal([mu, mu])
            ),
        )
    )

    book = _book3()
    p = Endomorphism.diagonal([rng.randint(-3, 3) for _ in range(3)])
    rep = _one_dim_rep(book, [rng.randint(-3, 3), 0, 0])
    p_m = Endomorphism.from_rows([[rng.randint(-3, 3)]])
    samples.append((NijenhuisLieAlgebra(book, p), NijenhuisRepresentation(rep, p_m)))

    p = Endomorphism.diagonal([rng.randint(-3, 3), rng.randint(-3, 3)])
    deformed = NijenhuisLieAlgebra(deformed_bracket(_solvable2(), p), p)
    samples.append((deformed, adjoint_nijenhuis(deformed)))

    return samples


def _assert_valid_sample(nja, nrep) -> None:
    assert validate_lie(nja.algebra).ok
    assert validate_nijenhuis(nja.algebra, nja.operator).ok
    assert validate_representation(nrep.representation).ok
    assert validate_nijenhuis_representation(
        nrep.representation, nja.operator, nrep.operator
    ).ok


def _basis_cochains(degree: int, sdim: int, tdim: int):
    for idx in combinations(range(sdim), degree):
        for t in range(tdim):
            vec = tuple(
                Fraction(1) if k == t else Fraction(0) for k in range(tdim)
            )
            yield Cochain(degree, sdim, tdim, {idx: vec})


def _basis_pairs(degree: int, sdim: int, tdim: int):
    for f in _basis_cochains(degree, sdim, tdim):
        g = None if degree == 0 else Cochain(degree - 1, sdim, tdim, {})
        yield PairCochain(degree, f, g)
    if degree >= 1:
        zero = Cochain(degree, sdim, tdim, {})
        for g in _basis_cochains(degree - 1, sdim, tdim):
            yield PairCochain(degree, zero, g)


# ---------------------------------------------------------------------------
# Criteria 1 and 2: the three differentials and the comparison map


def test_criterion_01_differentials_square_to_zero():
    start = time.perf_counter()
    failures: list[str] = []
    samples = _nijenhuis_samples(random.Random(101))
    assert len(samples) >= 5
    for s, (nja, nrep) in enumerate(samples):
        _assert_valid_sample(nja, nrep)
        rep = nrep.representation
        dim, rdim = nja.algebra.dim, rep.dim
        for degree in range(0, 5):
            for f in _basis_cochains(degree, dim, rdim):
                if not delta_lie(rep, delta_lie(rep, f)).is_zero():
                    failures.append(f"lie, sample {s}, degree {degree}")
                if not delta_njo(nja, nrep, delta_njo(nja, nrep, f)).is_zero():
                    failures.append(f"njo, sample {s}, degree {degree}")
            for pair in _basis_pairs(degree, dim, rdim):
                if not delta_njl(nja, nrep, delta_njl(nja, nrep, pair)).is_zero():
                    failures.append(f"njl, sample {s}, degree {degree}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(1, "three differentials square to zero on full bases", failures)


def test_criterion_02_comparison_map_intertwines():
    failures: list[str] = []
    for s, (nja, nrep) in enumerate(_nijenhuis_samples(random.Random(101))):
        rep = nrep.representation
        for degree in range(0, 5):
            for f in _basis_cochains(degree, nja.algebra.dim, rep.dim):
                lhs = psi(nja, nrep, delta_lie(rep, f))
                rhs = delta_njo(nja, nrep, psi(nja, nrep, f))
                if lhs != rhs:
                    failures.append(f"sample {s}, degree {degree}")
    _finish(2, "comparison map intertwines the two differentials", failures)


# ---------------------------------------------------------------------------
# Criterion 3: structure-equation residual vs the validators


def _bracket_operator_pairs(rng: random.Random):
    """Ten valid (bracket, operator) pairs of dim <= 4."""
    pairs = []
    pairs.append(
        (_solvable2(), Endomorphism.diagonal([rng.randint(-3, 3), rng.randint(-3, 3)]))
    )
    lam = rng.randint(-3, 3)
    pairs.append((_sl2(), Endomorphism.diagonal([lam, lam, lam])))
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    pairs.append((_heisenberg(), Endomorphism.diagonal([a, b, a])))
    pairs.append(
        (_book3(), Endomorphism.diagonal([rng.randint(-3, 3) for _ in range(3)]))
    )
    for dim in (2, 3, 4):
        p = Endomorphism.from_rows(
            [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        )
        pairs.append((LieAlgebra(dim, {}), p))
    for base in (_solvable2(), _book3()):
        p = Endomorphism.diagonal([rng.randint(-3, 3) for _ in range(base.dim)])
        pairs.append((deformed_bracket(base, p), p))
    alg = _solvable2()
    p = Endomorphism.diagonal([rng.randint(-3, 3), rng.randint(-3, 3)])
    rep = _one_dim_rep(alg, [0, rng.randint(-3, 3)])
    nrep = NijenhuisRepresentation(rep, Endomorphism.from_rows([[rng.randint(-3, 3)]]))
    big = semidirect_nijenhuis(NijenhuisLieAlgebra(alg, p), nrep)
    pairs.append((big.algebra, big.operator))
    return pairs


def _perturb(alg: LieAlgebra, p: Endomorphism, rng: random.Random):
    if rng.random() < 0.5:
        rows = [list(row) for row in p.rows]
        i = rng.randrange(alg.dim)
        j = (i + rng.randrange(1, alg.dim)) % alg.dim
        rows[i][j] = rows[i][j] + rng.choice([1, 2])
        return alg, Endomorphism.from_rows(rows)
    i = rng.randrange(alg.dim - 1)
    j = rng.randint(i + 1, alg.dim - 1)
    vec = list(
        alg.brackets.get((i, j), tuple(Fraction(0) for _ in range(alg.dim)))
    )
    vec[rng.randrange(alg.dim)] += rng.choice([1, 2])
    table = dict(alg.brackets)
    table[(i, j)] = tuple(vec)
    return LieAlgebra(alg.dim, table), p


def test_criterion_03_mc_residual_iff_validators():
    start = time.perf_counter()
    rng = random.Random(303)
    failures: list[str] = []
    valid = _bracket_operator_pairs(rng)
    assert len(valid) == 10
    cases = list(valid) + [_perturb(alg, p, rng) for alg, p in valid]
    invalid_seen = 0
    for k, (alg, p) in enumerate(cases):
        expected = validate_lie(alg).ok and validate_nijenhuis(alg, p).ok
        if k < 10 and not expected:
            failures.append(f"constructed pair {k} is not actually valid")
        if not expected:
            invalid_seen += 1
        if mc_residual(mc_candidate(alg, p), 2).ok != expected:
            failures.append(f"pair {k}: residual disagrees with validators")
    if invalid_seen < 5:
        failures.append(f"only {invalid_seen} invalid pairs; both sides undersampled")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _finish(3, "structure-equation residual matches the validators", failures)


# ---------------------------------------------------------------------------
# Criterion 4: twisted-complex Betti numbers match the cone's


def test_criterion_04_twisted_betti_matches_cone():
    failures: list[str] = []
    fixtures = [
        (_sl2(), Endomorphism.diagonal([1, 1, 2])),
        (_solvable2(), Endomorphism.diagonal([1, 2])),
        (_book3(), Endomorphism.diagonal([1, 2, 3])),
        # Dimension 4 reaches output arity 4 in the brace, where a local
        # shuffle is no longer its own inverse.
        (_sl2_centre(), Endomorphism.diagonal([1, 1, 2, 3])),
    ]
    for k, (alg, p) in enumerate(fixtures):
        assert validate_lie(alg).ok and validate_nijenhuis(alg, p).ok
        nja = NijenhuisLieAlgebra(alg, p)
        nrep = adjoint_nijenhuis(nja)
        twisted = njl_twisted_betti(alg, p, 3)
        cone = betti(nja, nrep, "njl", 3).betti
        if twisted != cone:
            failures.append(f"fixture {k}: {twisted} vs {cone}")
    _finish(4, "twisted-complex Betti numbers equal the cone's", failures)


# ---------------------------------------------------------------------------
# Criterion 5: graded bracket laws on suspended maps


_SPACE3 = GradedSpace.from_dims({1: 2, 2: 1})


def _random_hom(rng: random.Random, arity: int, total: int) -> SuspendedHom:
    values = {}
    for tup in canonical_tuples(_SPACE3, arity):
        d = total + sum(x[0] for x in tup)
        gv = {}
        for i in range(_SPACE3.dim(d)):
            c = rng.randint(-2, 2)
            if c:
                gv[(d, i)] = Fraction(c)
        if gv:
            values[tup] = gv
    return SuspendedHom(_SPACE3, arity, total, True, values)


def test_criterion_05_graded_bracket_laws():
    rng = random.Random(505)
    failures: list[str] = []
    low = [(1, 0), (1, -1), (1, 1), (2, -1), (2, 0), (2, -2)]
    tall = low + [(3, -2), (3, -3)]
    triples = 0
    for t in range(50):
        pool = tall if t % 10 == 0 else low
        a = _random_hom(rng, *pool[rng.randrange(len(pool))])
        b = _random_hom(rng, *pool[rng.randrange(len(pool))])
        c = _random_hom(rng, *pool[rng.randrange(len(pool))])
        triples += 1
        sign_ab = -1 if (a.total_degree * b.total_degree) % 2 else 1
        if rn_bracket(a, b) != rn_bracket(b, a).scale(-sign_ab):
            failures.append(f"triple {t}: antisymmetry")
        lhs = rn_bracket(a, rn_bracket(b, c))
        rhs = rn_bracket(rn_bracket(a, b), c).add(
            rn_bracket(b, rn_bracket(a, c)).scale(sign_ab)
        )
        if lhs != rhs:
            failures.append(f"triple {t}: graded Jacobi")
    assert triples >= 50
    _finish(5, "graded antisymmetry and Jacobi for the operator bracket", failures)


# ---------------------------------------------------------------------------
# Criterion 6: form-bracket dual routes and graded laws


def _rpoly(rng: random.Random, n: int, max_deg: int = 2, nterms: int = 2) -> Poly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(nterms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Poly(n, terms)


def test_criterion_06_form_bracket_calculus():
    start = time.perf_counter()
    rng = random.Random(606)
    failures: list[str] = []
    made = 0

    def rform(n: int, deg: int, nterms: int = 2) -> VectorValuedForm:
        nonlocal made
        made += 1
        entries = {}
        for I in combinations(range(1, n + 1), deg):
            for a in range(1, n + 1):
                if rng.random() < 0.8:
                    entries[(I, a)] = _rpoly(rng, n, nterms=nterms)
        return VectorValuedForm(n, deg, entries)

    for n in (2, 3):
        for dk, dl in [(0, 1), (1, 1), (1, 2), (2, 1)]:
            K, L = rform(n, dk), rform(n, dl)
            if fn_bracket(K, L) != fn_bracket_decomposable(K, L):
                failures.append(f"dual route, n={n}, degrees ({dk},{dl})")
    for dk, dl in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]:
        K, L = rform(2, dk), rform(2, dl)
        sign = -1 if (dk * dl) % 2 else 1
        if fn_bracket(K, L) != fn_bracket(L, K).scale(sign).neg():
            failures.append(f"antisymmetry, degrees ({dk},{dl})")
    for n, degs in [(2, (1, 1, 1)), (2, (0, 1, 1)), (2, (1, 1, 2)), (3, (0, 1, 1))]:
        k1, k2, k3 = degs
        A, B, C = (rform(n, d, nterms=1) for d in degs)
        t1 = fn_bracket(fn_bracket(A, B), C).scale(-1 if (k1 * k3) % 2 else 1)
        t2 = fn_bracket(fn_bracket(B, C), A).scale(-1 if (k2 * k1) % 2 else 1)
        t3 = fn_bracket(fn_bracket(C, A), B).scale(-1 if (k3 * k2) % 2 else 1)
        if not t1.add(t2).add(t3).is_zero():
            failures.append(f"graded Jacobi, n={n}, degrees {degs}")
    for n in (2, 3):
        for _ in range(2):
            P = rform(n, 1)
            if fn_bracket(P, P) != nijenhuis_torsion_form(P).scale(2):
                failures.append(f"self-bracket vs twice the torsion, n={n}")
    if made < 30:
        failures.append(f"only {made} random forms sampled")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _finish(6, "form-bracket dual routes and graded laws", failures)


# ---------------------------------------------------------------------------
# Criterion 7: contractible coordinate-space complex


def test_criterion_07_contracting_homotopy_and_vanishing():
    start = time.perf_counter()
    failures: list[str] = []
    small = check_homotopy(2, 3, (0, 1, 2))
    if not (small.ok and small.checked == 80):
        failures.append("homotopy identity fails for n=2, poly degree <= 3")
    big = check_homotopy(3, 2, (0, 1, 2, 3))
    if not (big.ok and big.checked == 240):
        failures.append("homotopy identity fails for n=3, poly degree <= 2")
    for slice_deg, report in fn_betti(2, 3, 2).items():
        if report.betti != [0, 0, 0]:
            failures.append(f"nonzero Betti, n=2, poly slice {slice_deg}")
    for slice_deg, report in fn_betti(3, 2, 3).items():
        if report.betti != [0, 0, 0, 0]:
            failures.append(f"nonzero Betti, n=3, poly slice {slice_deg}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    _finish(7, "contracting homotopy and all-zero Betti numbers", failures)


# ---------------------------------------------------------------------------
# Criterion 8: algebroid validation routes and the odd field's bracket


def _affine_line() -> PolyAlgebroid:
    one, zero = Poly.const(1, 1), Poly.zero(1)
    return PolyAlgebroid(
        1, 2, ((one,), (Poly.variable(1, 1),)), {(1, 2): (one, zero)}
    )


def _algebroid_fixtures():
    one2, zero2 = Poly.const(2, 1), Poly.zero(2)
    identity_anchor = ((one2, zero2), (zero2, one2))
    c0 = lambda v: Poly.const(0, v)

    valid = [
        trivial_algebroid(2),
        algebroid_over_point(_sl2()),
        algebroid_over_point(LieAlgebra(3, {})),
        PolyAlgebroid(2, 2, ((zero2, zero2), (zero2, zero2)), {}),
        _affine_line(),
    ]
    invalid = [
        algebroid_over_point(_broken3()),
        # Identity anchor with an invented structure function.
        PolyAlgebroid(2, 2, identity_anchor, {(1, 2): (one2, zero2)}),
        # sl2 over a point with the last bracket bent off the structure.
        PolyAlgebroid(
            0,
            3,
            ((), (), ()),
            {
                (1, 2): (c0(0), c0(2), c0(0)),
                (1, 3): (c0(0), c0(0), c0(-2)),
                (2, 3): (c0(1), c0(1), c0(0)),
            },
        ),
        # Anchor whose image is not closed under the zero bracket.
        PolyAlgebroid(
            2, 2, ((Poly.variable(2, 2), zero2), (zero2, one2)), {}
        ),
        # The affine-line fixture with the wrong structure section.
        PolyAlgebroid(
            1,
            2,
            ((Poly.const(1, 1),), (Poly.variable(1, 1),)),
            {(1, 2): (Poly.zero(1), Poly.const(1, 1))},
        ),
    ]
    return [(A, True) for A in valid] + [(A, False) for A in invalid]


def _anchor_witnesses(report) -> list:
    return sorted(
        (f["pair"], f["component"]) for f in report.failures if f["identity"] == "anchor"
    )


def test_criterion_08_algebroid_routes_and_odd_field():
    failures: list[str] = []
    fixtures = _algebroid_fixtures()
    assert len(fixtures) == 10
    for k, (A, expect_valid) in enumerate(fixtures):
        report = validate_algebroid(A)
        oracle = validate_algebroid_on_frames(A)
        if report.ok != oracle.ok:
            failures.append(f"fixture {k}: Q^2 = 0 and the frame oracle disagree")
        if _anchor_witnesses(report) != _anchor_witnesses(oracle):
            failures.append(f"fixture {k}: anchor witnesses differ from the frame oracle")
        if report.ok != expect_valid:
            failures.append(f"fixture {k}: expected valid={expect_valid}")
        Q = homological_field_q(A)
        if graded_commutator(Q, Q) != commutator_shuffle_expansion(Q, Q):
            failures.append(f"fixture {k}: Q^2 differs from the shuffle expansion")
        if not expect_valid:
            continue
        bee = b_from_field(Q)
        basis = [
            AlgebroidForm.basis_section(A.base_dim, A.rank, i)
            for i in range(1, A.rank + 1)
        ]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                if bee((x, y)) != section_bracket(A, x, y):
                    failures.append(f"fixture {k}: odd field misses pair ({i},{j})")
    _finish(8, "algebroid routes agree; odd field encodes the bracket", failures)


# ---------------------------------------------------------------------------
# Criterion 9: comparison chain map and the coupled differential


def _monomial_fields(m: int, n: int, degree: int, monomials):
    for poly in monomials:
        for I in combinations(range(1, n + 1), degree):
            for alpha in range(1, m + 1):
                yield GradedField(m, n, degree, {(I, alpha): poly}, {})
        for J in combinations(range(1, n + 1), degree + 1):
            for beta in range(1, n + 1):
                yield GradedField(m, n, degree, {}, {(J, beta): poly})


def _random_cone_pair(rng: random.Random, m: int, n: int, degree: int) -> ConePair:
    def rp() -> Poly:
        terms = {}
        for _ in range(2):
            exps = [0] * m
            if m and rng.randint(0, 1):
                exps[rng.randrange(m)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-2, 2))
        return Poly(m, terms)

    a_part = {
        (I, alpha): rp()
        for I in combinations(range(1, n + 1), degree)
        for alpha in range(1, m + 1)
    }
    d_part = {
        (J, beta): rp()
        for J in combinations(range(1, n + 1), degree + 1)
        for beta in range(1, n + 1)
    }
    entries = {
        (I, q): rp()
        for I in combinations(range(1, n + 1), degree)
        for q in range(1, n + 1)
    }
    return ConePair(
        GradedField(m, n, degree, a_part, d_part),
        AlgebroidForm(m, n, degree, entries),
    )


def test_criterion_09_chain_map_and_cone_differential():
    failures: list[str] = []
    A = trivial_algebroid(2)
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    P = AlgebroidForm(2, 2, 1, {((1,), 1): x1, ((2,), 2): x2})
    Q = homological_field_q(A)
    monomials = [Poly.const(2, 1), x1, x2, x1.mul(x1), x1.mul(x2), x2.mul(x2)]
    checked = 0
    for degree in range(0, 3):
        for X in _monomial_fields(2, 2, degree, monomials):
            checked += 1
            lhs = phi_map(A, P, graded_commutator(Q, X).neg())
            rhs = algebroid_fn_bracket(A, P, phi_map(A, P, X))
            if lhs != rhs:
                failures.append(f"monomial field of degree {degree}")
    assert checked == 84
    rng = random.Random(909)
    for degree in range(0, 3):
        for _ in range(2):
            pair = _random_cone_pair(rng, 2, 2, degree)
            if not delta_njld(A, P, delta_njld(A, P, pair)).is_zero():
                failures.append(f"cone differential square, degree {degree}")
    _finish(9, "comparison chain map; coupled differential squares to zero", failures)


# ---------------------------------------------------------------------------
# Criterion 10: long exact sequence


def test_criterion_10_long_exact_sequence():
    failures: list[str] = []
    fixtures = [
        NijenhuisLieAlgebra(_solvable2(), Endomorphism.diagonal([1, 2])),
        NijenhuisLieAlgebra(_sl2(), Endomorphism.diagonal([1, 1, 2])),
    ]
    for k, nja in enumerate(fixtures):
        report = les_verify(nja, adjoint_nijenhuis(nja), 3)
        if not report.ok:
            failures.append(f"fixture {k}: sequence not exact")
        for node in report.nodes:
            if not (node["exact"] and node["composition_zero"]):
                failures.append(f"fixture {k}: node {node['node']}")
    _finish(10, "long exact sequence exact at every node to degree 3", failures)
