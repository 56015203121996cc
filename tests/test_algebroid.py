"""Tests for polynomial Lie algebroids and the shifted-bundle calculus.

Every layer is checked along two independent routes: axiom validation
(squaring the odd field vs the bracket identities on frames, witness by
witness), the graded commutator (coefficient formula vs composing
derivation actions), the extracted binary bracket (vs the extended
section bracket), the comparison map
(vs the operator torsion computed from its definition and from the
expanded coefficient formula), and the structure-equation residuals.
Orientation conventions the contracts leave open are frozen here as
regression pins.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from njkit.algebroid import (
    AlgebroidForm,
    ConePair,
    FiberForm,
    GradedField,
    PolyAlgebroid,
    algebroid_fn_bracket,
    algebroid_mc_residual,
    algebroid_over_point,
    algebroid_torsion,
    b_from_field,
    delta_njld,
    field_apply,
    graded_commutator,
    homological_field_q,
    phi_map,
    phi_on_sections,
    section_bracket,
    trivial_algebroid,
    validate_algebroid,
    validate_phi_chain_map,
)
from njkit.exact import enumerate_shuffles
from njkit.cli import parse_algebroid_file, parse_lie_file
from njkit.forms import Poly, VectorValuedForm
from njkit.lie import Endomorphism, LieAlgebra, nijenhuis_torsion, vector
from oracles import (
    algebroid_torsion_coefficients,
    ScalarForm,
    anchor_apply,
    commutator_shuffle_expansion,
    de_rham_coordinates,
    derived_bracket_torsion,
    fn_bracket_decomposable,
    fn_bracket_on_sections,
    gather,
    structure_vector,
    validate_algebroid_on_frames,
    wedge,
)
from test_acceptance import _algebroid_fixtures


FIXTURES = Path(__file__).parent / "fixtures"


def _p(text: str, n_vars: int = 2) -> Poly:
    return Poly.parse(text, n_vars)


def _rpoly(rng: random.Random, m: int, max_deg: int = 1, nterms: int = 2) -> Poly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(nterms):
        exps = [0] * m
        for _ in range(rng.randint(0, max_deg)):
            if m:
                exps[rng.randrange(m)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-2, 2))
    return Poly(m, terms)


def _rsection(rng: random.Random, m: int, n: int, **kw) -> AlgebroidForm:
    comps = {q: _rpoly(rng, m, **kw) for q in range(1, n + 1)}
    return AlgebroidForm.section(m, n, comps)


def _rform(rng: random.Random, m: int, n: int, degree: int, **kw) -> AlgebroidForm:
    entries = {
        (I, q): _rpoly(rng, m, **kw)
        for I in combinations(range(1, n + 1), degree)
        for q in range(1, n + 1)
    }
    return AlgebroidForm(m, n, degree, entries)


def _rfield(rng: random.Random, m: int, n: int, degree: int, **kw) -> GradedField:
    a_part = {
        (I, alpha): _rpoly(rng, m, **kw)
        for I in combinations(range(1, n + 1), degree)
        for alpha in range(1, m + 1)
    }
    d_part = {
        (J, beta): _rpoly(rng, m, **kw)
        for J in combinations(range(1, n + 1), degree + 1)
        for beta in range(1, n + 1)
    }
    return GradedField(m, n, degree, a_part, d_part)


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


def affine_line() -> PolyAlgebroid:
    # Rank 2 over R^1: anchors d/dx and x d/dx, bracket [e1, e2] = e1.
    return PolyAlgebroid(
        1,
        2,
        ((Poly.const(1, 1),), (Poly.variable(1, 1),)),
        {(1, 2): (Poly.const(1, 1), Poly.zero(1))},
    )


def _diag_x(n: int) -> AlgebroidForm:
    entries = {((i,), i): Poly.variable(n, i) for i in range(1, n + 1)}
    return AlgebroidForm(n, n, 1, entries)


def _identity_p(m: int, n: int) -> AlgebroidForm:
    entries = {((i,), i): Poly.const(m, 1) for i in range(1, n + 1)}
    return AlgebroidForm(m, n, 1, entries)


# ---------------------------------------------------------------------------
# Storage types


def test_fiber_form_storage_wedge_and_pairing():
    x2 = Poly.variable(2, 2)
    F = FiberForm(2, 2, 1, {(1,): x2})
    assert F.coefficient((1,)) == x2
    assert F.coefficient((2,)).is_zero()

    eta1 = FiberForm.fiber_coordinate(2, 2, 1)
    eta2 = FiberForm.fiber_coordinate(2, 2, 2)
    w = wedge(eta1, eta2)
    assert w.entries == {(1, 2): Poly.const(2, 1)}
    assert w.coefficient((2, 1)) == Poly.const(2, -1)
    assert wedge(eta2, eta1).entries == {(1, 2): Poly.const(2, -1)}
    assert wedge(eta1, eta1).is_zero()

    e1 = AlgebroidForm.basis_section(2, 2, 1)
    e2 = AlgebroidForm.basis_section(2, 2, 2)
    assert w.evaluate((e1, e2)) == Poly.const(2, 1)
    assert w.evaluate((e2, e1)) == Poly.const(2, -1)
    assert w.evaluate((e1, e1)).is_zero()

    with pytest.raises(ValueError):
        FiberForm(2, 2, 2, {(2, 1): Poly.const(2, 1)})
    with pytest.raises(ValueError):
        FiberForm(2, 2, 1, {(3,): Poly.const(2, 1)})
    with pytest.raises(ValueError):
        FiberForm(2, 2, 1, {(1,): Poly.const(1, 1)})
    with pytest.raises(ValueError):
        w.evaluate((e1,))


def test_algebroid_form_storage_and_evaluation():
    rng = random.Random(3)
    K = _rform(rng, 2, 2, 1)
    e1 = AlgebroidForm.basis_section(2, 2, 1)
    f = _p("1 + x1*x2")
    # Evaluation is function-linear slot by slot.
    assert K.evaluate((e1.poly_scale(f),)) == K.evaluate((e1,)).poly_scale(f)

    X = _rsection(rng, 2, 2)
    assert AlgebroidForm.section(2, 2, X.components()) == X
    with pytest.raises(ValueError):
        K.components()
    with pytest.raises(ValueError):
        K.evaluate((e1, e1))
    with pytest.raises(ValueError):
        AlgebroidForm(2, 2, 0, {((), 3): Poly.const(2, 1)})
    with pytest.raises(ValueError):
        AlgebroidForm(2, 2, 1, {((1,), 1): Poly.const(3, 1)})

    # Zero coefficients are dropped at construction.
    assert AlgebroidForm(2, 2, 1, {((1,), 1): Poly.zero(2)}).is_zero()


def test_poly_algebroid_storage_and_frame_data():
    A = affine_line()
    v12 = structure_vector(A, 1, 2)
    assert v12 == (Poly.const(1, 1), Poly.zero(1))
    assert structure_vector(A, 2, 1) == (Poly.const(1, -1), Poly.zero(1))
    assert all(p.is_zero() for p in structure_vector(A, 1, 1))
    assert A.anchor[1] == (Poly.variable(1, 1),)

    with pytest.raises(ValueError):
        PolyAlgebroid(1, 2, ((Poly.const(1, 1),),), {})
    with pytest.raises(ValueError):
        PolyAlgebroid(1, 2, A.anchor, {(2, 2): (Poly.zero(1), Poly.zero(1))})
    with pytest.raises(ValueError):
        PolyAlgebroid(1, 2, A.anchor, {(1, 2): (Poly.zero(1),)})


def test_trivial_and_over_point_constructors():
    T = trivial_algebroid(2)
    assert T.base_dim == 2 and T.rank == 2
    assert T.anchor[0] == (Poly.const(2, 1), Poly.zero(2))
    assert not T.structure

    S = algebroid_over_point(sl2())
    assert S.base_dim == 0 and S.rank == 3
    assert structure_vector(S, 1, 2) == (
        Poly.zero(0),
        Poly.const(0, 2),
        Poly.zero(0),
    )
    assert structure_vector(S, 2, 3) == (
        Poly.const(0, 1),
        Poly.zero(0),
        Poly.zero(0),
    )

    abelian = algebroid_over_point(LieAlgebra(2, {}))
    assert not abelian.structure


# ---------------------------------------------------------------------------
# The extended bracket


def test_section_bracket_leibniz_and_antisymmetry():
    A = affine_line()
    e1 = AlgebroidForm.basis_section(1, 2, 1)
    e2 = AlgebroidForm.basis_section(1, 2, 2)
    g = _p("x1^2", 1)
    # [e1, g e2] = g [e1, e2] + (rho(e1) g) e2 = g e1 + g' e2.
    got = section_bracket(A, e1, e2.poly_scale(g))
    assert got.components() == {1: g, 2: _p("2*x1", 1)}

    rng = random.Random(9)
    for _ in range(4):
        X, Y = _rsection(rng, 1, 2), _rsection(rng, 1, 2)
        f = _rpoly(rng, 1, max_deg=2)
        assert section_bracket(A, X, Y) == section_bracket(A, Y, X).neg()
        lhs = section_bracket(A, X, Y.poly_scale(f))
        rhs = section_bracket(A, X, Y).poly_scale(f).add(
            Y.poly_scale(anchor_apply(A, X, f))
        )
        assert lhs == rhs

    assert anchor_apply(A, e2, _p("x1^2", 1)) == _p("2*x1^2", 1)
    with pytest.raises(ValueError):
        section_bracket(A, e1, _rform(rng, 1, 2, 1))


def test_validate_algebroid_accepts_the_standard_fixtures():
    # One coefficient of Q^2 per frame pair and base index, and one per
    # frame triple and fiber index.
    rep = validate_algebroid(trivial_algebroid(2))
    assert rep.ok and rep.checked == 2
    assert rep.description == "lie-algebroid axioms (Q^2 = 0 for the odd field)"

    assert validate_algebroid(algebroid_over_point(sl2())).checked == 3
    assert validate_algebroid(algebroid_over_point(sl2())).ok
    assert validate_algebroid(affine_line()).checked == 1
    assert validate_algebroid(affine_line()).ok
    assert validate_algebroid(algebroid_over_point(LieAlgebra(2, {}))).ok


def test_frame_oracle_accepts_the_standard_fixtures():
    rep = validate_algebroid_on_frames(trivial_algebroid(2))
    assert rep.ok and rep.checked == 14
    assert validate_algebroid_on_frames(algebroid_over_point(sl2())).checked == 9
    assert validate_algebroid_on_frames(algebroid_over_point(sl2())).ok
    assert validate_algebroid_on_frames(affine_line()).checked == 7
    assert validate_algebroid_on_frames(affine_line()).ok
    assert validate_algebroid_on_frames(algebroid_over_point(LieAlgebra(2, {}))).ok


def _bent_sl2() -> PolyAlgebroid:
    # sl2 perturbed to [e, f] = h + e: Jacobi fails.
    S = algebroid_over_point(sl2())
    return PolyAlgebroid(
        0,
        3,
        S.anchor,
        dict(S.structure)
        | {(2, 3): (Poly.const(0, 1), Poly.const(0, 1), Poly.const(0, 0))},
    )


def _crooked_plane() -> PolyAlgebroid:
    # Nonzero bracket with a flat anchor on R^2 breaks anchor compatibility.
    T = trivial_algebroid(2)
    return PolyAlgebroid(2, 2, T.anchor, {(1, 2): (Poly.const(2, 1), Poly.zero(2))})


def test_validate_algebroid_rejects_broken_structures():
    # The Jacobiator of (h, e, f) is -2e.
    rep = validate_algebroid(_bent_sl2())
    assert not rep.ok
    assert rep.failures == [
        {"identity": "jacobi", "triple": [1, 2, 3], "component": 2, "coefficient": "-2"}
    ]
    # [rho(e1), rho(e2)] - rho([e1, e2]) = -d/dx1; rank 2 has no triple.
    rep = validate_algebroid(_crooked_plane())
    assert not rep.ok
    assert rep.failures == [
        {"identity": "anchor", "pair": [1, 2], "component": 1, "coefficient": "-1"}
    ]


def test_frame_oracle_rejects_broken_structures():
    rep = validate_algebroid_on_frames(_bent_sl2())
    assert not rep.ok
    assert sorted({f["identity"] for f in rep.failures}) == ["jacobi"]

    # The test functions see the failed anchor in the Jacobi identity too.
    rep = validate_algebroid_on_frames(_crooked_plane())
    assert not rep.ok
    assert sorted({f["identity"] for f in rep.failures}) == ["anchor", "jacobi"]


def _random_algebroid(rng: random.Random, m: int, n: int) -> PolyAlgebroid:
    flat = rng.random() < 0.3
    anchor = tuple(
        tuple(Poly.zero(m) if flat or rng.random() < 0.5 else _rpoly(rng, m) for _ in range(m))
        for _ in range(n)
    )
    structure = {
        pair: tuple(
            _rpoly(rng, m, nterms=1) if rng.random() < 0.5 else Poly.zero(m) for _ in range(n)
        )
        for pair in combinations(range(1, n + 1), 2)
        if rng.random() < 0.7
    }
    return PolyAlgebroid(m, n, anchor, structure)


def _frame_jacobiators(A: PolyAlgebroid) -> dict[tuple, str]:
    """Nonzero components of the Jacobiator of each frame triple."""
    basis = [AlgebroidForm.basis_section(A.base_dim, A.rank, i) for i in range(1, A.rank + 1)]

    def br(X, Y):
        return section_bracket(A, X, Y)

    out = {}
    for J in combinations(range(1, A.rank + 1), 3):
        x, y, z = (basis[i - 1] for i in J)
        jac = br(br(x, y), z).add(br(br(y, z), x)).add(br(br(z, x), y))
        for q, poly in jac.components().items():
            out[(J, q)] = poly.format()
    return out


def _anchor_records(report) -> list:
    return sorted(
        (f["pair"], f["component"], f["coefficient"])
        for f in report.failures
        if f["identity"] == "anchor"
    )


def test_q_squared_witnesses_match_the_frame_oracle():
    rng = random.Random(101)
    cases = [A for A, _ in _algebroid_fixtures()]
    cases += [_random_algebroid(rng, rng.randint(0, 2), rng.randint(2, 4)) for _ in range(50)]
    invalid = 0
    for k, A in enumerate(cases):
        rep, oracle = validate_algebroid(A), validate_algebroid_on_frames(A)
        assert rep.ok == oracle.ok, k
        invalid += not rep.ok
        assert _anchor_records(rep) == _anchor_records(oracle), k
        jacobi = {
            (tuple(f["triple"]), f["component"]): f["coefficient"]
            for f in rep.failures
            if f["identity"] == "jacobi"
        }
        assert jacobi == _frame_jacobiators(A), k
        if _anchor_records(oracle):
            # The test functions flag more triples where the anchor fails.
            continue
        assert {J for J, _ in jacobi} == {
            tuple(sorted(f["triple"]))
            for f in oracle.failures
            if f["identity"] == "jacobi" and len(set(f["triple"])) == 3
        }, k
    assert invalid > len(cases) // 2


# ---------------------------------------------------------------------------
# The odd field and the graded commutator


def test_homological_field_pins():
    Q = homological_field_q(trivial_algebroid(2))
    assert Q.degree == 1
    assert Q.a_part == {
        ((1,), 1): Poly.const(2, 1),
        ((2,), 2): Poly.const(2, 1),
    }
    assert not Q.d_part

    QS = homological_field_q(algebroid_over_point(sl2()))
    assert not QS.a_part
    assert QS.d_part == {
        ((1, 2), 2): Poly.const(0, -2),
        ((1, 3), 3): Poly.const(0, 2),
        ((2, 3), 1): Poly.const(0, -1),
    }

    assert homological_field_q(algebroid_over_point(LieAlgebra(2, {}))).is_zero()


def test_graded_field_storage_and_arithmetic():
    X = GradedField(2, 2, 1, {((1,), 1): Poly.const(2, 2)}, {})
    assert X.add(X.neg()).is_zero()
    assert X.scale(Fraction(1, 2)).a_part[((1,), 1)] == Poly.const(2, 1)
    with pytest.raises(ValueError):
        GradedField(0, 2, 0, {((), 1): Poly.const(0, 1)}, {})
    with pytest.raises(ValueError):
        GradedField(2, 2, 1, {}, {((2, 1), 1): Poly.const(2, 1)})
    with pytest.raises(ValueError):
        X.add(GradedField.zero(2, 2, 2))


def test_field_apply_is_the_de_rham_differential_on_the_trivial_algebroid():
    rng = random.Random(11)
    for n in (2, 3):
        Q = homological_field_q(trivial_algebroid(n))
        for deg in range(n + 1):
            entries = {
                I: _rpoly(rng, n, max_deg=2)
                for I in combinations(range(1, n + 1), deg)
            }
            lhs = field_apply(Q, FiberForm(n, n, deg, entries))
            rhs = de_rham_coordinates(ScalarForm(n, deg, entries))
            assert lhs.entries == dict(rhs.entries)

    Q2 = homological_field_q(trivial_algebroid(2))
    closed = FiberForm(2, 2, 1, {(1,): Poly.variable(2, 1)})
    assert field_apply(Q2, closed).is_zero()
    hot = FiberForm(2, 2, 1, {(1,): Poly.variable(2, 2)})
    assert field_apply(Q2, hot).entries == {(1, 2): Poly.const(2, -1)}


def test_field_apply_satisfies_the_graded_leibniz_rule():
    rng = random.Random(47)
    for dX in (0, 1, 2):
        for dF, dG in ((0, 1), (1, 1), (1, 2)):
            X = _rfield(rng, 2, 3, dX)
            F = FiberForm(
                2, 3, dF,
                {I: _rpoly(rng, 2) for I in combinations(range(1, 4), dF)},
            )
            G = FiberForm(
                2, 3, dG,
                {I: _rpoly(rng, 2) for I in combinations(range(1, 4), dG)},
            )
            sign = -1 if (dX * dF) % 2 else 1
            lhs = field_apply(X, wedge(F, G))
            rhs = wedge(field_apply(X, F), G).add(
                wedge(F, field_apply(X, G)).scale(sign)
            )
            assert lhs == rhs


def test_graded_commutator_matches_the_shuffle_expansion():
    rng = random.Random(21)
    # Degree-3 fields are the top of validate_phi_chain_map's sweep; rank 4
    # and 5 leave room for their fiber parts and for the commutator.
    shapes = {
        (2, 2): [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)],
        (1, 2): [(0, 1), (1, 2)],
        (0, 3): [(1, 1), (2, 2)],
        (1, 4): [(1, 3), (3, 0), (2, 3)],
        (0, 5): [(1, 3), (0, 3)],
    }
    for (m, n), pairs in shapes.items():
        for dX, dY in pairs:
            for _ in range(2):
                X = _rfield(rng, m, n, dX)
                Y = _rfield(rng, m, n, dY)
                Z = graded_commutator(X, Y)
                assert Z == commutator_shuffle_expansion(X, Y)
                # [X, X] reads one composite for both orders.
                assert graded_commutator(X, X) == commutator_shuffle_expansion(X, X)
                sgn = -1 if (dX * dY) % 2 else 1
                assert graded_commutator(Y, X) == Z.scale(-sgn)

    with pytest.raises(ValueError):
        graded_commutator(GradedField.zero(2, 2, 0), GradedField.zero(2, 3, 0))


def test_odd_field_squares_to_zero_exactly_on_valid_algebroids():
    for A in (trivial_algebroid(2), algebroid_over_point(sl2()), affine_line()):
        Q = homological_field_q(A)
        assert graded_commutator(Q, Q).is_zero()

    S = algebroid_over_point(sl2())
    bad = PolyAlgebroid(
        0,
        3,
        S.anchor,
        dict(S.structure)
        | {(2, 3): (Poly.const(0, 1), Poly.const(0, 1), Poly.const(0, 0))},
    )
    Qbad = homological_field_q(bad)
    sq = graded_commutator(Qbad, Qbad)
    assert not sq.is_zero()
    assert sq == commutator_shuffle_expansion(Qbad, Qbad)


def test_odd_field_square_matches_the_shuffle_expansion_on_the_fixture_files():
    valid = {}
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if "rank" in data:
            A = parse_algebroid_file(data).algebroid
        elif "brackets" in data:
            A = algebroid_over_point(parse_lie_file(data).algebra)
        else:
            continue
        Q = homological_field_q(A)
        sq = graded_commutator(Q, Q)
        assert sq == commutator_shuffle_expansion(Q, Q), path.name
        valid[path.name] = sq.is_zero()
    assert valid == {
        "bad-anchor.json": False,
        "bad-jacobi.json": False,
        "dim2-diag.json": True,
        "dim2-rep.json": True,
        "sl2-diag.json": True,
        "sl2-point.json": True,
        "sl2.json": True,
        "tangent2.json": True,
    }


def test_degree_zero_commutator_over_a_point_is_a_matrix_commutator():
    # d_part key ((j,), k) holds the eta^j coefficient of the image of
    # eta^k, so composing actions multiplies the stored matrices in
    # reversed order: [X, Y] stores psi.g - g.psi.
    g = [[1, 2], [3, 4]]
    psi = [[0, 1], [1, 0]]

    def from_matrix(mat):
        return GradedField(
            0, 2, 0,
            {},
            {
                ((j + 1,), k + 1): Poly.const(0, mat[k][j])
                for k in range(2)
                for j in range(2)
            },
        )

    Z = graded_commutator(from_matrix(g), from_matrix(psi))
    zmat = [
        [
            Z.d_part.get(((j + 1,), k + 1), Poly.zero(0)).terms.get((), Fraction(0))
            for j in range(2)
        ]
        for k in range(2)
    ]
    assert zmat == [[1, 3], [-3, -1]]

    bee = b_from_field(from_matrix(g))
    e1 = AlgebroidForm.basis_section(0, 2, 1)
    assert bee((e1,)).components() == {1: Poly.const(0, 1), 2: Poly.const(0, 3)}


# ---------------------------------------------------------------------------
# Extracting brackets from fields


def test_b_from_field_recovers_the_section_bracket():
    rng = random.Random(33)
    for A in (trivial_algebroid(2), affine_line()):
        bee = b_from_field(homological_field_q(A))
        for _ in range(4):
            X = _rsection(rng, A.base_dim, A.rank, max_deg=2)
            Y = _rsection(rng, A.base_dim, A.rank, max_deg=2)
            assert bee((X, Y)) == section_bracket(A, X, Y)


def test_b_from_field_pins():
    T = trivial_algebroid(2)
    bq = b_from_field(homological_field_q(T))
    e1 = AlgebroidForm.basis_section(2, 2, 1)
    e2 = AlgebroidForm.basis_section(2, 2, 2)
    g = _p("x1^2*x2")
    assert bq((e1, e2.poly_scale(g),)).components() == {2: _p("2*x1*x2")}
    assert bq((e1, e2)).is_zero()

    bqs = b_from_field(homological_field_q(algebroid_over_point(sl2())))
    h, e, f = (AlgebroidForm.basis_section(0, 3, i) for i in (1, 2, 3))
    assert bqs((h, e)).components() == {2: Poly.const(0, 2)}
    assert bqs((e, f)).components() == {1: Poly.const(0, 1)}
    assert bqs((h, f)).components() == {3: Poly.const(0, -2)}

    # A purely even field acts through minus its base part on arguments.
    X = GradedField(1, 1, 0, {((), 1): Poly.variable(1, 1)}, {})
    bx = b_from_field(X)
    one = AlgebroidForm.basis_section(1, 1, 1)
    got = bx((one.poly_scale(_p("x1^3", 1)),))
    assert got.components() == {1: _p("-3*x1^3", 1)}

    with pytest.raises(ValueError):
        bq((e1,))


def _rn_insertion(bx, by, b, c, zero, args):
    """Shuffle-signed mutual insertions of two multilinear bracket values."""
    swap = -1 if ((b - 1) * (c - 1)) % 2 else 1
    total = zero
    for sigma in enumerate_shuffles((c, b - 1)):
        word = gather(sigma, args)
        term = bx((by(word[:c]),) + word[c:])
        total = total.add(term if sigma.sign() > 0 else term.neg())
    for sigma in enumerate_shuffles((b, c - 1)):
        word = gather(sigma, args)
        term = by((bx(word[:b]),) + word[b:]).scale(-swap)
        total = total.add(term if sigma.sign() > 0 else term.neg())
    return total


def test_commutator_bracket_is_the_reversed_insertion_bracket():
    # Orientation pin: the insertion bracket of B_X and B_Y agrees with
    # the bracket extracted from [Y, X], not [X, Y]. The two differ
    # whenever the degree product is even, and the sweep below checks a
    # mismatch is actually visible there, so the pin is not vacuous.
    rng = random.Random(55)
    shapes = [(2, 3, 0, 1), (2, 3, 0, 2), (2, 3, 1, 2), (1, 4, 2, 2)]
    nonzero = 0
    distinguished = 0
    for m, n, dX, dY in shapes:
        b, c = dX + 1, dY + 1
        X = _rfield(rng, m, n, dX)
        Y = _rfield(rng, m, n, dY)
        bx, by = b_from_field(X), b_from_field(Y)
        rev = b_from_field(graded_commutator(Y, X))
        fwd = b_from_field(graded_commutator(X, Y))
        zero = AlgebroidForm.zero(m, n, 0)
        for _ in range(3):
            args = tuple(_rsection(rng, m, n) for _ in range(b + c - 1))
            got = _rn_insertion(bx, by, b, c, zero, args)
            assert got == rev(args)
            if not got.is_zero():
                nonzero += 1
            if got != fwd(args):
                distinguished += 1
    assert nonzero >= 8
    assert distinguished >= 4


# ---------------------------------------------------------------------------
# The comparison map and the torsion


def test_phi_of_the_odd_field_is_the_torsion():
    rng = random.Random(77)
    for A in (trivial_algebroid(2), affine_line()):
        Q = homological_field_q(A)
        for _ in range(3):
            P = _rform(rng, A.base_dim, A.rank, 1)
            N1 = phi_map(A, P, Q)
            N2 = algebroid_torsion(A, P)
            N3 = algebroid_torsion_coefficients(A, P)
            assert N1 == N2 == N3


def test_phi_vanishes_on_trivial_operators():
    A = trivial_algebroid(2)
    P0 = AlgebroidForm.zero(2, 2, 1)
    P1 = _identity_p(2, 2)
    rng = random.Random(10)
    for deg in (0, 1, 2):
        X = _rfield(rng, 2, 2, deg)
        assert phi_map(A, P0, X).is_zero()
        assert phi_map(A, P1, X).is_zero()


def test_phi_on_sections_matches_the_assembled_form():
    A = affine_line()
    rng = random.Random(13)
    P = _rform(rng, 1, 2, 1)
    X = _rfield(rng, 1, 2, 1)
    secs = tuple(_rsection(rng, 1, 2) for _ in range(2))
    assembled = phi_map(A, P, X)
    assert phi_on_sections(P, X, secs) == assembled.evaluate(secs)
    with pytest.raises(ValueError):
        phi_on_sections(P, X, secs[:1])
    with pytest.raises(ValueError):
        phi_on_sections(_rform(rng, 1, 2, 2), X, secs)


def test_nijenhuis_examples_have_zero_torsion():
    T2 = trivial_algebroid(2)
    assert algebroid_torsion(T2, _diag_x(2)).is_zero()
    assert algebroid_torsion_coefficients(T2, _diag_x(2)).is_zero()

    S = algebroid_over_point(sl2())
    PS = AlgebroidForm(
        0, 3, 1,
        {
            ((1,), 1): Poly.const(0, 1),
            ((2,), 2): Poly.const(0, 1),
            ((3,), 3): Poly.const(0, 2),
        },
    )
    assert algebroid_torsion(S, PS).is_zero()
    assert phi_map(S, PS, homological_field_q(S)).is_zero()


def test_torsion_over_a_point_matches_the_lie_algebra_oracle():
    algebra = sl2()
    S = algebroid_over_point(algebra)
    rng = random.Random(19)
    for _ in range(3):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        p = Endomorphism(3, tuple(tuple(r) for r in rows))
        P = AlgebroidForm(
            0, 3, 1,
            {
                ((j,), i): Poly.const(0, rows[i - 1][j - 1])
                for i in range(1, 4)
                for j in range(1, 4)
            },
        )
        torsion = nijenhuis_torsion(algebra, p)
        N = algebroid_torsion(S, P)
        assert N == algebroid_torsion_coefficients(S, P)
        for i, j in combinations(range(1, 4), 2):
            col = torsion[(i - 1, j - 1)]
            for k in range(1, 4):
                got = N.coefficient((i, j), k)
                assert got == Poly.const(0, col[k - 1])


def test_phi_is_a_chain_map_with_the_negative_commutator_differential():
    A = trivial_algebroid(2)
    P = _diag_x(2)
    Q = homological_field_q(A)
    rng = random.Random(61)
    plus_breaks = 0
    for deg in (0, 1):
        X = _rfield(rng, 2, 2, deg)
        minus = graded_commutator(Q, X).neg()
        plus = graded_commutator(Q, X)
        rhs = algebroid_fn_bracket(A, P, phi_map(A, P, X))
        assert phi_map(A, P, minus) == rhs
        if phi_map(A, P, plus) != rhs:
            plus_breaks += 1
    assert plus_breaks >= 1


def test_validate_phi_chain_map_reports():
    rep = validate_phi_chain_map(trivial_algebroid(2), _diag_x(2))
    assert rep.ok and rep.checked == 45
    assert rep.description == "phi chain map (seed=0, samples=1)"

    S = algebroid_over_point(sl2())
    PS = AlgebroidForm(
        0, 3, 1,
        {
            ((1,), 1): Poly.const(0, 1),
            ((2,), 2): Poly.const(0, 1),
            ((3,), 3): Poly.const(0, 2),
        },
    )
    rep = validate_phi_chain_map(S, PS)
    assert rep.ok and rep.checked == 24

    # Preconditions: the algebroid must be valid and the operator
    # torsion-free.
    bad = PolyAlgebroid(
        0,
        3,
        S.anchor,
        dict(S.structure)
        | {(2, 3): (Poly.const(0, 1), Poly.const(0, 1), Poly.const(0, 0))},
    )
    with pytest.raises(ValueError):
        validate_phi_chain_map(bad, PS)
    T = trivial_algebroid(2)
    twisted = _diag_x(2).add(AlgebroidForm(2, 2, 1, {((1,), 2): _p("x1^2")}))
    with pytest.raises(ValueError):
        validate_phi_chain_map(T, twisted)


# ---------------------------------------------------------------------------
# The bracket on forms and the mapping cone


def test_algebroid_fn_bracket_matches_the_tangent_space_module():
    # On the trivial algebroid the frame five-sum must reproduce the
    # wedge/Lie-derivative definition of the bracket on R^n.
    rng = random.Random(29)
    T = trivial_algebroid(2)

    def to_alg(K: VectorValuedForm) -> AlgebroidForm:
        return AlgebroidForm(2, 2, K.form_degree, dict(K.entries))

    def rvvf(deg: int) -> VectorValuedForm:
        entries = {
            (I, a): _rpoly(rng, 2, max_deg=2)
            for I in combinations(range(1, 3), deg)
            for a in (1, 2)
        }
        return VectorValuedForm(2, deg, entries)

    for dK, dL in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)):
        K, L = rvvf(dK), rvvf(dL)
        assert algebroid_fn_bracket(T, to_alg(K), to_alg(L)) == to_alg(
            fn_bracket_decomposable(K, L)
        )

    K = rvvf(1)
    assert algebroid_torsion(T, to_alg(K)).scale(2) == to_alg(fn_bracket_decomposable(K, K))


def test_fn_bracket_on_sections_is_tensorial():
    A = affine_line()
    rng = random.Random(37)
    K = _rform(rng, 1, 2, 1)
    L = _rform(rng, 1, 2, 1)
    tensor = algebroid_fn_bracket(A, K, L)
    for _ in range(3):
        secs = tuple(
            _rsection(rng, 1, 2, max_deg=2) for _ in range(2)
        )
        assert fn_bracket_on_sections(A, K, L, secs) == tensor.evaluate(secs)
    with pytest.raises(ValueError):
        fn_bracket_on_sections(A, K, L, secs[:1])


def test_cone_pairs_enforce_the_degree_offset():
    X = GradedField.zero(2, 2, 1)
    E = AlgebroidForm.zero(2, 2, 1)
    pair = ConePair(X, E)
    assert pair.field_part.degree + 1 == 2
    assert pair.is_zero()
    with pytest.raises(ValueError):
        ConePair(X, AlgebroidForm.zero(2, 2, 2))
    with pytest.raises(ValueError):
        ConePair(X, AlgebroidForm.zero(2, 3, 1))


def test_cone_differential_components():
    A = trivial_algebroid(2)
    P = _diag_x(2)
    Q = homological_field_q(A)
    rng = random.Random(41)
    for deg in (0, 1):
        X = _rfield(rng, 2, 2, deg)
        E = _rform(rng, 2, 2, deg)

        out = delta_njld(A, P, ConePair(X, AlgebroidForm.zero(2, 2, deg)))
        assert out.field_part == graded_commutator(Q, X).neg()
        assert out.form_part == phi_map(A, P, X).neg()

        out = delta_njld(A, P, ConePair(GradedField.zero(2, 2, deg), E))
        assert out.field_part.is_zero()
        assert out.form_part == algebroid_fn_bracket(A, P, E).neg()


def test_cone_differential_squares_to_zero():
    A = trivial_algebroid(2)
    P = _diag_x(2)
    rng = random.Random(31)
    for deg in (0, 1, 2):
        pair = ConePair(_rfield(rng, 2, 2, deg), _rform(rng, 2, 2, deg))
        assert delta_njld(A, P, delta_njld(A, P, pair)).is_zero()


# ---------------------------------------------------------------------------
# Structure-equation residuals


def test_mc_residuals_vanish_for_nijenhuis_pairs():
    for n in (2, 3):
        rep = algebroid_mc_residual(trivial_algebroid(n), _diag_x(n))
        assert rep.ok
        assert rep.lie_residual.is_zero()
        assert rep.torsion_residual.is_zero()
        assert rep.to_dict() == {
            "lie_residual_entries": 0,
            "torsion_residual_entries": 0,
            "ok": True,
        }


def test_algebroid_torsion_matches_the_derived_bracket_oracle():
    # The torsion that algebroid_mc_residual reads, against the same
    # assembly with the bracket derived from the odd field, on candidates
    # that need not be algebroids: base dim 0-3, rank 1-4, operators with
    # polynomial entries of degree up to 2.
    rng = random.Random(5)
    valid = nonzero = 0
    for k in range(100):
        m, n = rng.randint(0, 3), rng.randint(1, 4)
        if rng.random() < 0.3:
            # Constant anchors and no bracket: always an algebroid.
            anchor = tuple(
                tuple(Poly.const(m, rng.randint(-2, 2)) for _ in range(m)) for _ in range(n)
            )
            A = PolyAlgebroid(m, n, anchor, {})
        else:
            A = _random_algebroid(rng, m, n)
        P = _rform(rng, m, n, 1, max_deg=2)
        N = algebroid_torsion(A, P)
        assert N == derived_bracket_torsion(A, P), k
        valid += validate_algebroid(A).ok
        nonzero += not N.is_zero()
    # 59 valid and 63 with nonzero torsion at this seed.
    assert 30 < valid < 80 and nonzero > 40


def test_mc_residual_detects_torsion():
    T = trivial_algebroid(2)
    P = _diag_x(2).add(AlgebroidForm(2, 2, 1, {((1,), 2): _p("x1^2")}))
    rep = algebroid_mc_residual(T, P)
    assert not rep.ok
    assert rep.lie_residual.is_zero()
    # N(e1, e2) = (P rho(e1) - rho(P e1)) applied through the x1^2 leg:
    # the single surviving component is x1^2 on e2.
    expected = AlgebroidForm(2, 2, 2, {((1, 2), 2): _p("x1^2")})
    assert rep.torsion_residual == expected
    assert algebroid_torsion(T, P) == expected
    assert algebroid_torsion_coefficients(T, P) == expected


def test_mc_residual_detects_broken_algebroids():
    S = algebroid_over_point(sl2())
    bad = PolyAlgebroid(
        0,
        3,
        S.anchor,
        dict(S.structure)
        | {(2, 3): (Poly.const(0, 1), Poly.const(0, 1), Poly.const(0, 0))},
    )
    PS = _identity_p(0, 3)
    rep = algebroid_mc_residual(bad, PS)
    assert not rep.ok
    assert not rep.lie_residual.is_zero()
