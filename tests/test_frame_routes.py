"""The frame-word routes of the comparison map, the Frolicher-Nijenhuis
bracket and the Poincare homotopy check, against their oracles.

``phi_map`` sums the outer powers of P by Horner's rule and
``algebroid_fn_bracket`` runs the five-sum on frame index words; the oracles
in ``oracles.py`` apply every subset's power on its own and evaluate the
five-sum on sections. ``validate_phi_chain_map`` extends one ``phi_map``
per constant slot field by the field's coefficients; its oracle runs
``phi_map`` on every field of the sweep. ``check_homotopy`` is a matrix
identity on the polynomial slices; its oracle takes both differentials
form by form. Each pair must agree entry for entry, including on zero
forms and on inputs the frame routes skip terms for.
"""

from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import njkit.algebroid
import njkit.forms
from njkit.algebroid import (
    AlgebroidForm,
    GradedField,
    PolyAlgebroid,
    _phi_by_slots,
    _validate_phi_chain_map,
    algebroid_fn_bracket,
    algebroid_over_point,
    b_from_field,
    graded_commutator,
    homological_field_q,
    phi_map,
    trivial_algebroid,
    validate_phi_chain_map,
)
from njkit.cli import parse_algebroid_file
from njkit.forms import VectorValuedForm, check_homotopy, poincare_h
from njkit.lie import LieAlgebra, vector
from njkit.poly import Poly
from oracles import fn_bracket_on_frames, homotopy_sweep, phi_chain_map_sweep, phi_on_frames

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name: str) -> tuple[PolyAlgebroid, AlgebroidForm]:
    inp = parse_algebroid_file(json.loads((FIXTURES / name).read_text()))
    return inp.algebroid, inp.operator


def _diagonal(m: int, diagonal: list[str]) -> AlgebroidForm:
    entries = {((i,), i): Poly.parse(text, m) for i, text in enumerate(diagonal, 1)}
    return AlgebroidForm(m, len(diagonal), 1, entries)


def _structures() -> dict[str, tuple[PolyAlgebroid, AlgebroidForm]]:
    """The fixtures, the three shapes of the polynomial benchmark round
    and an algebroid with both an anchor and a bracket."""
    sl2 = LieAlgebra(
        3, {(0, 1): vector([0, 2, 0]), (0, 2): vector([0, 0, -2]), (1, 2): vector([1, 0, 0])}
    )
    const = {((1,), 1): "2", ((2,), 1): "-1/2", ((2,), 2): "3"}
    affine_line = PolyAlgebroid(
        1,
        2,
        ((Poly.const(1, 1),), (Poly.variable(1, 1),)),
        {(1, 2): (Poly.const(1, 1), Poly.zero(1))},
    )
    return {
        "tangent2": _fixture("tangent2.json"),
        "sl2-point": _fixture("sl2-point.json"),
        "R3-diag": (trivial_algebroid(3), _diagonal(3, ["1 + 2*x1", "x2^2 - 3", "-x3 + 1/2"])),
        "R2-const": (
            trivial_algebroid(2),
            AlgebroidForm(2, 2, 1, {k: Poly.parse(v, 2) for k, v in const.items()}),
        ),
        "sl2-over-point": (algebroid_over_point(sl2), _diagonal(0, ["1", "-1", "2"])),
        "affine-line": (affine_line, _diagonal(1, ["x1", "1 - x1"])),
    }


STRUCTURES = _structures()


def _rpoly(rng: random.Random, m: int) -> Poly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(2):
        exps = [0] * m
        for _ in range(rng.randint(0, 2)):
            if m:
                exps[rng.randrange(m)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Poly(m, terms)


def _rform(rng: random.Random, A: PolyAlgebroid, degree: int) -> AlgebroidForm:
    """A random form with about half of its possible entries."""
    m, n = A.base_dim, A.rank
    entries = {
        (I, q): _rpoly(rng, m)
        for I in combinations(range(1, n + 1), degree)
        for q in range(1, n + 1)
        if rng.random() < 0.5
    }
    return AlgebroidForm(m, n, degree, entries)


def _rfield(rng: random.Random, A: PolyAlgebroid, degree: int) -> GradedField:
    m, n = A.base_dim, A.rank
    a_part = {
        (I, alpha): _rpoly(rng, m)
        for I in combinations(range(1, n + 1), degree)
        for alpha in range(1, m + 1)
        if rng.random() < 0.6
    }
    d_part = {
        (J, beta): _rpoly(rng, m)
        for J in combinations(range(1, n + 1), degree + 1)
        for beta in range(1, n + 1)
        if rng.random() < 0.6
    }
    return GradedField(m, n, degree, a_part, d_part)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_phi_map_matches_the_subset_sum_oracle(name):
    A, P = STRUCTURES[name]
    rng = random.Random(f"phi-{name}")
    fields = [homological_field_q(A)]
    for degree in range(4):
        fields.append(GradedField.zero(A.base_dim, A.rank, degree))
        fields += [_rfield(rng, A, degree) for _ in range(2)]
    for X in fields:
        value = phi_map(A, P, X)
        assert value.entries == phi_on_frames(A, P, X).entries
        assert value.form_degree == X.degree + 1


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_fn_bracket_matches_the_five_sum_oracle(name):
    A, P = STRUCTURES[name]
    rng = random.Random(f"fn-{name}")
    shapes = [(k, l) for k in range(3) for l in range(3) if k + l <= A.rank]
    for k, l in shapes:
        pairs = [(_rform(rng, A, k), _rform(rng, A, l)) for _ in range(2)]
        pairs.append((AlgebroidForm.zero(A.base_dim, A.rank, k), _rform(rng, A, l)))
        pairs.append((_rform(rng, A, k), AlgebroidForm.zero(A.base_dim, A.rank, l)))
        if k == 1:
            pairs.append((P, _rform(rng, A, l)))
        for K, L in pairs:
            value = algebroid_fn_bracket(A, K, L)
            assert value.entries == fn_bracket_on_frames(A, K, L).entries, (k, l)
            assert value.form_degree == k + l


def test_phi_probe_raises_on_a_bracket_that_is_not_function_linear(monkeypatch):
    # Dropping the bracket's anchor terms would not do: each of them moves
    # a slot's derivative along that same slot, and Phi cancels such terms.
    # Moving the first slot's derivative onto another frame section does not
    # cancel, so the probe must see it.
    A, P = STRUCTURES["affine-line"]
    X = homological_field_q(A)
    real = b_from_field

    def misrouted(field: GradedField):
        bracket = real(field)

        def evaluate(sections):
            value = bracket(sections)
            first = sections[0].components().get(1)
            if first is None:
                return value
            return value.add(AlgebroidForm.section(A.base_dim, A.rank, {2: first.partial(1)}))

        return evaluate

    assert not phi_map(A, P, X).is_zero()
    monkeypatch.setattr(njkit.algebroid, "b_from_field", misrouted)
    with pytest.raises(RuntimeError, match="function-linearity probe"):
        phi_map(A, P, X)


@pytest.mark.parametrize("alpha", [1, 2])
def test_phi_probe_sees_every_base_variable(monkeypatch, alpha):
    # On the tangent plane a bracket that moves the first slot's derivative
    # along x_alpha onto E_2 is caught only by a probe that depends on
    # x_alpha; phi_map's probe depends on every base variable.
    A, P = STRUCTURES["tangent2"]
    real = b_from_field

    def misrouted(field: GradedField):
        bracket = real(field)

        def evaluate(sections):
            value = bracket(sections)
            first = sections[0].components().get(1)
            if first is None:
                return value
            return value.add(AlgebroidForm.section(2, 2, {2: first.partial(alpha)}))

        return evaluate

    X = GradedField(2, 2, 0, {}, {((1,), 1): Poly.const(2, 1)})
    monkeypatch.setattr(njkit.algebroid, "b_from_field", misrouted)
    for route in (lambda: phi_map(A, P, X), lambda: validate_phi_chain_map(A, P)):
        with pytest.raises(RuntimeError, match="function-linearity probe"):
            route()


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_phi_by_slots_matches_phi_map(name):
    A, P = STRUCTURES[name]
    rng = random.Random(f"slots-{name}")
    phi = _phi_by_slots(A, P)
    fields = [homological_field_q(A)]
    for degree in range(4):
        fields.append(GradedField.zero(A.base_dim, A.rank, degree))
        fields += [_rfield(rng, A, degree) for _ in range(3)]
    fields += [graded_commutator(homological_field_q(A), X).neg() for X in fields[1:]]
    for X in fields:
        assert phi(X) == phi_map(A, P, X)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_phi_chain_map_report_matches_the_per_field_sweep(name):
    # Two of the structures have torsion, so their reports list failures.
    A, P = STRUCTURES[name]
    for samples, seed in ((1, 0), (2, 11)):
        expected = phi_chain_map_sweep(A, P, samples, seed=seed)
        assert _validate_phi_chain_map(A, P, samples, seed=seed) == expected
        if expected.ok:
            assert validate_phi_chain_map(A, P, samples, seed=seed) == expected


@pytest.mark.parametrize("name", ["tangent2", "R3-diag"])
def test_phi_chain_map_report_matches_the_sweep_with_the_plus_differential(monkeypatch, name):
    A, P = STRUCTURES[name]
    monkeypatch.setattr(njkit.algebroid, "_d_q", lambda q, X: graded_commutator(q, X))
    expected = phi_chain_map_sweep(A, P, seed=3)
    assert not expected.ok and expected.failures
    assert validate_phi_chain_map(A, P, seed=3) == expected


def test_phi_chain_map_assembles_phi_once_per_slot_field(monkeypatch):
    m = n = 3
    A = trivial_algebroid(3)
    P = _diagonal(3, ["x1", "x2", "x3"])
    slot_fields = sum(comb(n, d) * m + comb(n, d + 1) * n for d in range(5))
    assert slot_fields == 45
    real = phi_map
    values: list[weakref.ref] = []

    def counted(*args):
        value = real(*args)
        values.append(weakref.ref(value))
        return value

    monkeypatch.setattr(njkit.algebroid, "phi_map", counted)
    gc.disable()
    try:
        report = validate_phi_chain_map(A, P)
        # No table outlives the call, without help from the cyclic collector.
        assert all(ref() is None for ref in values)
    finally:
        gc.enable()
    assert report.ok and report.checked == 184
    assert 0 < len(values) <= slot_fields


@pytest.mark.parametrize("n, max_poly_degree", [(2, 3), (3, 1)])
def test_matrix_homotopy_check_matches_the_form_sweep(n, max_poly_degree):
    degrees = list(range(n + 1))
    report = check_homotopy(n, max_poly_degree, degrees)
    assert report.ok
    assert report == homotopy_sweep(n, max_poly_degree, degrees)


def test_matrix_homotopy_check_catches_a_wrong_h(monkeypatch):
    def flipped(K: VectorValuedForm, n: int) -> VectorValuedForm:
        # The homotopy with the sign of every output-1 entry flipped.
        h = poincare_h(K, n)
        entries = {key: p.neg() if key[1] == 1 else p for key, p in h.entries.items()}
        return VectorValuedForm(n, h.form_degree, entries)

    expected = homotopy_sweep(2, 1, [0, 1, 2], h=flipped)
    monkeypatch.setattr(njkit.forms, "poincare_h", flipped)
    report = check_homotopy(2, 1, [0, 1, 2])
    assert not report.ok and report.failures
    for failure in report.failures:
        assert set(failure) == {"form_degree", "indices", "output", "exponents"}
    assert report == expected


def test_matrix_homotopy_check_reports_an_h_that_leaves_the_slice(monkeypatch):
    def raised(K: VectorValuedForm, n: int) -> VectorValuedForm:
        # The homotopy times x1: every image leaves its polynomial slice.
        h = poincare_h(K, n)
        x1 = Poly.variable(n, 1)
        return VectorValuedForm(n, h.form_degree, {key: p.mul(x1) for key, p in h.entries.items()})

    expected = homotopy_sweep(2, 1, [0, 1, 2], h=raised)
    monkeypatch.setattr(njkit.forms, "poincare_h", raised)
    report = check_homotopy(2, 1, [0, 1, 2])
    assert not report.ok and report.failures
    assert report == expected
