"""Polynomial vector-valued forms on R^n and the bracket calculus on them.

This is the classical, geometric case of the package's Frolicher-Nijenhuis
calculus: the tangent algebroid of R^n in its coordinate frame.
:class:`VectorValuedForm` is the section-valued form of
:mod:`njkit.algebroid` with base dimension and rank both ``n``, and the Lie
bracket of vector fields, the Frolicher-Nijenhuis bracket and the torsion of
a (1,1)-form are the algebroid operations on ``trivial_algebroid(n)``. What
is specific to R^n lives here: an explicit contracting homotopy that
verifies the vanishing of the twisted cohomology of the diagonal operator
``diag(x1, ..., xn)`` degree slice by degree slice. All operations are
exact. Scalar forms, the exterior derivative and the insertion operator,
which only the Cartan-formula route to the bracket uses, live with that
route in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .algebroid import AlgebroidForm, algebroid_fn_bracket, algebroid_torsion, trivial_algebroid
from .cohomology import BettiReport
from .exact import LinearComplex, SparseMatrix
from .lie import ValidationReport
from .poly import Poly, _monomials


class VectorValuedForm(AlgebroidForm):
    """A vector-field-valued form, stored on ``(index tuple, output index)``.

    Degree-0 entries have keys ``((), a)``; those are plain polynomial
    vector fields. Only strictly increasing index tuples are stored, and
    evaluation antisymmetrizes with the permutation sign. A section-valued
    form of the tangent algebroid, so ``base_dim == rank == n_vars``.
    """

    def __init__(
        self,
        n_vars: int,
        form_degree: int,
        entries: Mapping[tuple[tuple[int, ...], int], Poly] | None = None,
    ) -> None:
        super().__init__(n_vars, n_vars, form_degree, {} if entries is None else entries)

    @property
    def n_vars(self) -> int:
        return self.base_dim

    @classmethod
    def zero(cls, n_vars: int, form_degree: int) -> "VectorValuedForm":
        return VectorValuedForm(n_vars, form_degree)


def _check_same_base(a, b) -> None:
    if a.n_vars != b.n_vars:
        raise ValueError("operands live over different variable counts")


def fn_bracket(K: VectorValuedForm, L: VectorValuedForm) -> VectorValuedForm:
    """Frolicher-Nijenhuis bracket, assembled from the five-sum on
    coordinate fields (where the argument-bracket sums drop out)."""
    _check_same_base(K, L)
    return algebroid_fn_bracket(trivial_algebroid(K.n_vars), K, L)


def nijenhuis_torsion_form(P: VectorValuedForm) -> VectorValuedForm:
    """Torsion of a (1,1)-form:
    ``N_P(X, Y) = [PX, PY] - P[PX, Y] - P[X, PY] + P^2[X, Y]``.

    Assembled on coordinate pairs, where the last term drops; equal to one
    half of ``fn_bracket(P, P)``, which the tests keep as a second route.
    """
    if P.form_degree != 1:
        raise ValueError("torsion is defined for (1,1)-forms")
    return algebroid_torsion(trivial_algebroid(P.n_vars), P)


def _require_differential(P: VectorValuedForm) -> None:
    if P.form_degree != 1:
        raise ValueError("the twisting operator must be a (1,1)-form")
    if not nijenhuis_torsion_form(P).is_zero():
        raise ValueError("operator has nonzero torsion; [P,-] is not a differential")


def d_fn(P: VectorValuedForm, K: VectorValuedForm) -> VectorValuedForm:
    """The twisted differential ``[P, -]_FN`` of a Nijenhuis (1,1)-form.

    Squares to zero because ``[P, P]_FN = 2 N_P`` vanishes; a nonzero
    torsion is rejected up front.
    """
    _check_same_base(P, K)
    _require_differential(P)
    return fn_bracket(P, K)


def diagonal_operator(n: int) -> VectorValuedForm:
    """The (1,1)-form sending the a-th coordinate field to ``x_a`` times
    itself; its torsion vanishes identically."""
    entries = {((a,), a): Poly.variable(n, a) for a in range(1, n + 1)}
    return VectorValuedForm(n, 1, entries)


def poincare_h(K: VectorValuedForm, n: int) -> VectorValuedForm:
    """Contracting homotopy for the twisted complex of the diagonal operator.

    An entry survives exactly when its output index occurs among its form
    indices; that index is deleted and the coefficient picks up the sign
    ``(-1)^(pos+1)``, where ``pos`` counts the indices before the deleted
    one. Degree-0 input returns the zero vector field.

    >>> h = poincare_h(VectorValuedForm(2, 1, {((1,), 1): Poly.const(2, 1)}), 2)
    >>> h.entries
    {((), 1): Poly(n_vars=2, terms={(0, 0): Fraction(-1, 1)})}
    """
    if n != K.n_vars:
        raise ValueError("variable count mismatch")
    if K.form_degree == 0:
        return VectorValuedForm.zero(n, 0)
    out: dict[tuple[tuple[int, ...], int], Poly] = {}
    for (I, a), poly in K.entries.items():
        if a not in I:
            continue
        pos = I.index(a)
        reduced = I[:pos] + I[pos + 1 :]
        signed = poly.neg() if (pos + 1) % 2 else poly
        key = (reduced, a)
        out[key] = out.get(key, Poly.zero(n)).add(signed)
    return VectorValuedForm(n, K.form_degree - 1, out)


def _diagonal_differential(n: int) -> Callable[[VectorValuedForm], VectorValuedForm]:
    """``d_fn`` of the diagonal operator, its torsion checked once."""
    P = diagonal_operator(n)
    _require_differential(P)
    A = trivial_algebroid(n)
    return lambda K: algebroid_fn_bracket(A, P, K)


def _poincare_slices(
    differential: Callable[[VectorValuedForm], VectorValuedForm], n: int, max_poly_degree: int
) -> dict[int, LinearComplex]:
    """The polynomial-degree slices ``0..max_poly_degree`` of the diagonal
    operator's twisted complex on R^n, sharing one differential."""
    return {d: _fn_slice(differential, n, d) for d in range(max_poly_degree + 1)}


def _basis_form(n: int, j: int, key: tuple) -> VectorValuedForm:
    """``x^exponents dx^I (x) d/dx_a`` for the slice key ``(exponents, I, a)``."""
    exps, I, a = key
    return VectorValuedForm(n, j, {(I, a): Poly(n, {exps: Fraction(1)})})


def _homotopy_matrix(complex_: LinearComplex, n: int, j: int) -> tuple[SparseMatrix, set[int]]:
    """``poincare_h`` from form degree ``j`` to ``j - 1`` of one slice, in
    the slice's key order: one column per basis key. Also returns the
    columns whose image has a term outside the slice; such terms are left
    out of the matrix."""
    rows = complex_.positions(j - 1)
    h = SparseMatrix(len(rows), complex_.dim(j))
    leaving: set[int] = set()
    for col, key in enumerate(complex_.keys(j)):
        for (J, b), poly in poincare_h(_basis_form(n, j, key), n).entries.items():
            for e, coeff in poly.terms.items():
                row = rows.get((e, J, b))
                if row is None:
                    leaving.add(col)
                else:
                    h.set(row, col, coeff)
    return h, leaving


def _homotopy_holds(
    differential: Callable[[VectorValuedForm], VectorValuedForm], n: int, j: int, key: tuple
) -> bool:
    """``d_fn h + h d_fn = id`` on one basis form, both sides taken afresh."""
    K = _basis_form(n, j, key)
    left = differential(poincare_h(K, n)) if j >= 1 else VectorValuedForm.zero(n, 0)
    return left.add(poincare_h(differential(K), n)) == K


def _homotopy_report(
    differential: Callable[[VectorValuedForm], VectorValuedForm],
    slices: Mapping[int, LinearComplex],
    n: int,
    form_degrees: Sequence[int],
) -> ValidationReport:
    """``d_fn h + h d_fn = id`` on every basis form of the given form degrees
    in ``slices``, as an identity of sparse matrices in each slice.

    ``h`` is zero below form degree 1. A basis form whose identity involves
    an ``h`` image outside the slice (a wrong ``h``) is checked on its own
    with ``differential``. The report sweeps and names the basis forms by
    form degree, index tuple, output index and exponents, with the
    coefficient degrees ascending.
    """
    failing: set[tuple] = set()
    top = max(form_degrees, default=0) + 1
    for complex_ in slices.values():
        h: dict[int, SparseMatrix] = {}
        leaving: dict[int, set[int]] = {0: set()}
        for j in range(1, top + 1):
            h[j], leaving[j] = _homotopy_matrix(complex_, n, j)
        for j in form_degrees:
            d_j = complex_.matrix(j)
            keys = complex_.keys(j)
            apart = leaving[j] | {c for (r, c) in d_j.entries if r in leaving[j + 1]}
            failing.update(
                (j, keys[c]) for c in apart if not _homotopy_holds(differential, n, j, keys[c])
            )
            total = dict(h[j + 1].matmul(d_j).entries)
            if j >= 1:
                for key, v in complex_.matrix(j - 1).matmul(h[j]).entries.items():
                    total[key] = total.get(key, 0) + v
            for c in range(complex_.dim(j)):
                total[(c, c)] = total.get((c, c), 0) - 1
            failing.update((j, keys[c]) for (_, c), v in total.items() if v and c not in apart)
    monos = [e for degree in sorted(slices) for e in _monomials(n, degree)]
    failures: list[dict] = []
    checked = 0
    for j in form_degrees:
        for I in combinations(range(1, n + 1), j):
            for a in range(1, n + 1):
                for exps in monos:
                    checked += 1
                    if (j, (exps, I, a)) in failing:
                        failures.append(
                            {
                                "form_degree": j,
                                "indices": list(I),
                                "output": a,
                                "exponents": list(exps),
                            }
                        )
    return ValidationReport("poincare-homotopy", not failures, checked, failures)


def _betti_reports(
    slices: Mapping[int, LinearComplex], max_form_degree: int
) -> dict[int, BettiReport]:
    return {
        d: BettiReport.of(f"fn-poly-degree-{d}", complex_, max_form_degree)
        for d, complex_ in slices.items()
    }


def _poincare(
    n: int, max_poly_degree: int, form_degrees: Sequence[int], max_form_degree: int
) -> tuple[ValidationReport, dict[int, BettiReport]]:
    """:func:`check_homotopy` and :func:`fn_betti` on one set of slices, so
    each basis form's differential is taken once for both."""
    differential = _diagonal_differential(n)
    slices = _poincare_slices(differential, n, max_poly_degree)
    return (
        _homotopy_report(differential, slices, n, form_degrees),
        _betti_reports(slices, max_form_degree),
    )


def check_homotopy(
    n: int, max_poly_degree: int, form_degrees: Sequence[int]
) -> ValidationReport:
    """Verify ``d_fn h + h d_fn = id`` for the diagonal operator on R^n.

    Sweeps every monomial basis form of the requested form degrees whose
    coefficient has total degree at most ``max_poly_degree``; the identity
    holds exactly on each one or the report lists it. The check is an
    identity of sparse matrices on the polynomial-degree slices
    (:func:`_homotopy_report`); the test suite keeps the form-by-form
    sweep as an oracle (``tests/oracles.py``).

    Slices 0 and 1 decide every slice, for the checked ``n`` and form
    degrees. Write ``d = d_fn`` and ``h = poincare_h``, and take a constant
    basis form ``w = dx^I (x) d/dx_a`` and a polynomial ``f``.

    * ``h`` is function-linear: ``h(f w) = f h(w)``. It deletes an index
      and sets a sign, and it never reads an exponent.
    * ``d = [P, -]_FN`` is a first-order operator in the coefficients, by
      the Leibniz rule of the bracket: ``d(f w) = f d(w) + sum_c (df/dx_c)
      D_c(w)``, with forms ``D_c(w)`` that do not depend on ``f``.
    * Hence ``(d h + h d - id)(f w) = f R_0(w) + sum_c (df/dx_c) R_c(w)``
      with ``R_0 = d h + h d - id`` and ``R_c = D_c h + h D_c``, neither
      depending on ``f``.
    * Slice 0 (``f = 1``) gives ``R_0(w) = 0``. Slice 1 (``f = x_c``) then
      gives ``R_c(w) = 0``. So the identity holds on ``f w`` for every
      ``f``, in every polynomial degree.

    The report states only the slices it swept; this argument is what
    carries a pass on slices 0 and 1 to all of them.
    """
    differential = _diagonal_differential(n)
    slices = _poincare_slices(differential, n, max_poly_degree)
    return _homotopy_report(differential, slices, n, form_degrees)


def _fn_slice(
    differential: Callable[[VectorValuedForm], VectorValuedForm], n: int, d: int
) -> LinearComplex:
    """The polynomial-degree-``d`` slice: basis keys ``(exponents, I, a)``
    for ``x^exponents dx^I (x) d/dx_a``, raising on a term outside it."""
    monos = list(_monomials(n, d))

    def keys(j: int) -> list[tuple]:
        return [
            (exps, I, a)
            for I in combinations(range(1, n + 1), j)
            for a in range(1, n + 1)
            for exps in monos
        ]

    def column(j: int, key: tuple) -> dict[tuple, Fraction]:
        image = differential(_basis_form(n, j, key))
        out = {}
        for (J, b), poly in image.entries.items():
            for e, coeff in poly.terms.items():
                if sum(e) != d:
                    raise ValueError(
                        "slicing violation: the differential left the "
                        f"polynomial-degree-{d} slice"
                    )
                out[(e, J, b)] = coeff
        return out

    return LinearComplex(keys, column)


def fn_betti(n: int, max_poly_degree: int, max_form_degree: int) -> dict[int, BettiReport]:
    """Cohomology dimensions of the diagonal operator's twisted complex,
    one report per total polynomial degree.

    The differential never mixes polynomial degrees for the diagonal
    operator (each term of its expansion multiplies by one coordinate and
    differentiates once, or does neither), so the complex splits into
    finite slices indexed by ``(polynomial degree, form degree)`` and every
    rank is an exact integer computation. A violation of the slicing would
    signal an implementation bug and raises.
    """
    slices = _poincare_slices(_diagonal_differential(n), n, max_poly_degree)
    return _betti_reports(slices, max_form_degree)
