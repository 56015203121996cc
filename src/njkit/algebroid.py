"""Lie algebroids over R^m with polynomial structure data.

A rank-n algebroid is described in a fixed frame by an anchor matrix and a
table of bracket structure functions, both polynomial. This module holds the
package's one Frolicher-Nijenhuis calculus: the scalar and section-valued
algebroid forms, the extended section bracket, the five-sum bracket of
section-valued forms and the Nijenhuis torsion, all assembled on frames. The
classical calculus on R^n (:mod:`njkit.forms`) is the case of the tangent
algebroid ``trivial_algebroid(n)`` and runs through the same functions.

On the degree-shifted bundle the whole structure collapses into one odd
vector field Q; the module also builds Q, graded commutators of polynomial
fields on the shifted bundle, the extraction of multilinear section brackets
from such fields, the comparison map Phi into section-valued forms, the
mapping-cone differential coupling the two complexes, and the Maurer-Cartan
residuals of a candidate Nijenhuis structure. A field is a derivation of the
function algebra, fixed by its values on the generators; :func:`field_apply`
is the one implementation of that action, and the graded commutator (hence
Q^2) is built on it.

Everything is exact: coefficients are rational polynomials and every check is
a polynomial identity.

The public constructors of the form types check every key, output index
and coefficient ring. Internal operations build their results through the
unchecked ``_with`` (and ``Poly._trusted``), which are only for results of
such operations: keys already in range, coefficients already over the base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, Mapping, Sequence

from .exact import Rational, _merge_indices, _sort_indices, enumerate_shuffles
from .lie import LieAlgebra, ValidationReport
from .poly import Poly, _check_index_tuple, _monomials


def _antisymmetrized(
    entries: Mapping, word: tuple[int, ...], out: int | None, base_dim: int
) -> Poly:
    """The entry on an arbitrary index word: the sorted word's entry times
    the sorting sign, zero on a repeated index. ``out`` is the trailing key
    component, ``None`` for entries keyed by the index tuple alone."""
    ordered = _sort_indices(word)
    if ordered is None:
        return Poly.zero(base_dim)
    sign, key = ordered
    poly = entries.get(key if out is None else (key, out))
    if poly is None:
        return Poly.zero(base_dim)
    return poly if sign > 0 else poly.neg()


def _merged(left: Mapping, right: Mapping) -> dict:
    """Entrywise sum of two polynomial tables."""
    out = dict(left)
    for key, poly in right.items():
        out[key] = out[key].add(poly) if key in out else poly
    return out


class _Linear:
    """The vector-space operations shared by the form types and the graded fields.

    ``_check_shape`` and ``_checked`` hold the public constructors' checks
    of the shape and of keyed tables, and ``_check_compatible`` the operand
    check of a sum.
    ``_with(entries, degree)`` builds a form of the same type on the same
    frame, so the tangent views in :mod:`njkit.forms` keep their own type
    through sums, scalings and evaluations. It checks nothing: it is only
    for results of internal operations, whose keys are in range for the
    frame and whose coefficients live over its base. Zero entries are
    dropped. :class:`GradedField` keeps two tables; it overrides ``_with``
    with a two-table builder of the same kind and the operations built on
    it, and shares the rest.
    """

    _DEGREE: str  # the name of the degree field

    def _check_shape(self) -> None:
        if self.base_dim < 0:
            raise ValueError("base dimension must be >= 0")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if getattr(self, self._DEGREE) < 0:
            raise ValueError(f"{self._DEGREE.replace('_', ' ')} must be >= 0")

    def _check_compatible(self, other) -> None:
        if (
            self.base_dim != other.base_dim
            or self.rank != other.rank
            or getattr(self, self._DEGREE) != getattr(other, self._DEGREE)
        ):
            raise ValueError(f"{type(self).__name__} shape mismatch")

    def _checked(self, table: Mapping, arity: int, bound: int, kind: str) -> dict:
        """The nonzero entries of a public constructor's ``(index tuple,
        index)`` table, every key and coefficient checked: ``arity`` fiber
        indices, then one index in ``1..bound``."""
        clean: dict[tuple[tuple[int, ...], int], Poly] = {}
        for (key, index), poly in table.items():
            key = tuple(key)
            _check_index_tuple(key, arity, self.rank)
            if not 1 <= index <= bound:
                raise ValueError(f"{kind} index {index} out of range 1..{bound}")
            if poly.n_vars != self.base_dim:
                raise ValueError("coefficient variable count mismatch")
            if not poly.is_zero():
                clean[(key, index)] = poly
        return clean

    def _with(self, entries: Mapping, degree: int | None = None):
        form = object.__new__(type(self))
        form.__dict__.update(
            base_dim=self.base_dim,
            rank=self.rank,
            entries={key: poly for key, poly in entries.items() if poly.terms},
        )
        form.__dict__[self._DEGREE] = getattr(self, self._DEGREE) if degree is None else degree
        return form

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other):
        self._check_compatible(other)
        return self._with(_merged(self.entries, other.entries))

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return self._with({k: p.neg() for k, p in self.entries.items()})

    def scale(self, factor: Rational | int):
        return self._with({k: p.scale(factor) for k, p in self.entries.items()})


@dataclass(frozen=True)
class FiberForm(_Linear):
    """A scalar algebroid form, i.e. a polynomial function on the shifted bundle.

    Degree-j entries map a strictly increasing j-tuple of fiber indices
    (1-based) to a polynomial over the base; the empty tuple stores plain
    base functions. These are the test functions that graded fields
    differentiate.
    """

    base_dim: int
    rank: int
    degree: int
    entries: Mapping[tuple[int, ...], Poly] = field(default_factory=dict)

    _DEGREE = "degree"

    def __post_init__(self) -> None:
        self._check_shape()
        clean: dict[tuple[int, ...], Poly] = {}
        for key, poly in self.entries.items():
            key = tuple(key)
            _check_index_tuple(key, self.degree, self.rank)
            if poly.n_vars != self.base_dim:
                raise ValueError("coefficient variable count mismatch")
            if not poly.is_zero():
                clean[key] = poly
        object.__setattr__(self, "entries", clean)

    @classmethod
    def zero(cls, base_dim: int, rank: int, degree: int) -> "FiberForm":
        return FiberForm(base_dim, rank, degree, {})

    @classmethod
    def coordinate(cls, base_dim: int, rank: int, alpha: int) -> "FiberForm":
        """The base coordinate function ``x_alpha`` as a degree-0 form."""
        return FiberForm(base_dim, rank, 0, {(): Poly.variable(base_dim, alpha)})

    @classmethod
    def fiber_coordinate(cls, base_dim: int, rank: int, k: int) -> "FiberForm":
        """The k-th odd generator as a degree-1 form."""
        return FiberForm(base_dim, rank, 1, {(k,): Poly.const(base_dim, 1)})

    def coefficient(self, indices: Sequence[int]) -> Poly:
        """Coefficient on an arbitrary index word, antisymmetrized."""
        idx = tuple(indices)
        if len(idx) != self.degree:
            raise ValueError("wrong number of indices")
        return _antisymmetrized(self.entries, idx, None, self.base_dim)

    def evaluate(self, sections: Sequence["AlgebroidForm"]) -> Poly:
        """Pair a degree-j form with j polynomial sections."""
        if len(sections) != self.degree:
            raise ValueError("wrong number of arguments")
        return self._pair([s.components() for s in sections])

    def _pair(self, supports: Sequence[Mapping[int, Poly]]) -> Poly:
        """:meth:`evaluate` on the sections' components, one mapping per slot."""
        acc = Poly.zero(self.base_dim)
        for combo in product(*[list(s.items()) for s in supports]):
            coeff = self.coefficient(tuple(i for i, _ in combo))
            if coeff.is_zero():
                continue
            for _, comp in combo:
                coeff = coeff.mul(comp)
            acc = acc.add(coeff)
        return acc


@dataclass(frozen=True)
class AlgebroidForm(_Linear):
    """A section-valued algebroid form on ``(fiber index tuple, output index)``.

    Input indices run over the frame of the algebroid, the output index
    picks a frame section, and coefficients are polynomials over the base.
    Degree-0 instances are plain polynomial sections. On the tangent
    algebroid these are the vector-valued forms of :mod:`njkit.forms`.
    """

    base_dim: int
    rank: int
    form_degree: int
    entries: Mapping[tuple[tuple[int, ...], int], Poly] = field(default_factory=dict)

    _DEGREE = "form_degree"

    def __post_init__(self) -> None:
        self._check_shape()
        clean = self._checked(self.entries, self.form_degree, self.rank, "output")
        object.__setattr__(self, "entries", clean)

    @classmethod
    def zero(cls, base_dim: int, rank: int, form_degree: int) -> "AlgebroidForm":
        return AlgebroidForm(base_dim, rank, form_degree, {})

    @classmethod
    def section(
        cls, base_dim: int, rank: int, components: Mapping[int, Poly]
    ) -> "AlgebroidForm":
        """A degree-0 form from its frame components (1-based)."""
        return AlgebroidForm(base_dim, rank, 0, {((), q): p for q, p in components.items()})

    @classmethod
    def basis_section(cls, base_dim: int, rank: int, i: int) -> "AlgebroidForm":
        return AlgebroidForm.section(base_dim, rank, {i: Poly.const(base_dim, 1)})

    def poly_scale(self, factor: Poly) -> "AlgebroidForm":
        """Multiply by a base function (the module structure over functions)."""
        if factor.n_vars != self.base_dim:
            raise ValueError("scaling function variable count mismatch")
        return self._with({k: p.mul(factor) for k, p in self.entries.items()})

    def components(self) -> dict[int, Poly]:
        """Degree-0 only: mapping output index to component polynomial."""
        if self.form_degree != 0:
            raise ValueError("components() needs a degree-0 form")
        return {out: p for (_, out), p in self.entries.items()}

    def coefficient(self, indices: Sequence[int], out: int) -> Poly:
        """Coefficient on an arbitrary index word, antisymmetrized."""
        idx = tuple(indices)
        if len(idx) != self.form_degree:
            raise ValueError("wrong number of indices")
        return _antisymmetrized(self.entries, idx, out, self.base_dim)

    def _by_input(self) -> dict[tuple[int, ...], list[tuple[int, Poly]]]:
        """The entries grouped by input index tuple, as ``(output, coefficient)``;
        built on first use and kept with the form."""
        grouped = self.__dict__.get("_grouped")
        if grouped is None:
            grouped = {}
            for (key, out), poly in self.entries.items():
                grouped.setdefault(key, []).append((out, poly))
            self.__dict__["_grouped"] = grouped
        return grouped

    def evaluate(self, sections: Sequence["AlgebroidForm"]) -> "AlgebroidForm":
        """Multilinear evaluation on sections; the result is a section."""
        if len(sections) != self.form_degree:
            raise ValueError("wrong number of arguments")
        by_key = self._by_input()
        supports = [s.components() for s in sections]
        acc: dict[tuple[tuple[int, ...], int], Poly] = {}
        for combo in product(*[list(s.items()) for s in supports]):
            ordered = _sort_indices(tuple(i for i, _ in combo))
            if ordered is None:
                continue
            sign, key = ordered
            outputs = by_key.get(key)
            if not outputs:
                continue
            weight = None
            for _, comp in combo:
                weight = comp if weight is None else weight.mul(comp)
            if sign < 0:
                weight = weight.neg()
            for out, poly in outputs:
                term = poly if weight is None else weight.mul(poly)
                slot = ((), out)
                acc[slot] = acc[slot].add(term) if slot in acc else term
        return self._with(acc, 0)


@dataclass(frozen=True)
class PolyAlgebroid:
    """A rank-``rank`` algebroid over ``R^base_dim`` in a fixed frame.

    ``anchor[i-1][alpha-1]`` is the coefficient of the i-th frame section's
    anchor image along ``x_alpha``; ``structure[(i, j)]`` with ``i < j`` is
    the component vector of the bracket of frame sections i and j.
    Antisymmetry is a storage convention and the Leibniz rule is built into
    the extended bracket. The remaining axioms, anchor compatibility and
    the Jacobi identity, are the one identity ``Q^2 = 0`` for the odd field
    of :func:`homological_field_q`; :func:`validate_algebroid` checks it
    rather than construction, so invalid candidates can be represented and
    diagnosed. The frame-by-frame check of the axioms is the oracle in
    ``tests/oracles.py``.
    """

    base_dim: int
    rank: int
    anchor: tuple[tuple[Poly, ...], ...] = ()
    structure: Mapping[tuple[int, int], tuple[Poly, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base_dim < 0:
            raise ValueError("base dimension must be >= 0")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        rows = tuple(tuple(row) for row in self.anchor)
        if len(rows) != self.rank:
            raise ValueError("anchor must have one row per frame section")
        for row in rows:
            if len(row) != self.base_dim:
                raise ValueError("anchor rows must have one entry per base variable")
            for poly in row:
                if poly.n_vars != self.base_dim:
                    raise ValueError("anchor coefficient variable count mismatch")
        object.__setattr__(self, "anchor", rows)
        clean: dict[tuple[int, int], tuple[Poly, ...]] = {}
        for (i, j), vec in self.structure.items():
            if not (1 <= i < j <= self.rank):
                raise ValueError(f"bad structure key {(i, j)} for rank {self.rank}")
            vec = tuple(vec)
            if len(vec) != self.rank:
                raise ValueError(f"structure vector for {(i, j)} has wrong length")
            for poly in vec:
                if poly.n_vars != self.base_dim:
                    raise ValueError("structure coefficient variable count mismatch")
            if any(not p.is_zero() for p in vec):
                clean[(i, j)] = vec
        object.__setattr__(self, "structure", clean)


def _check_section(A: PolyAlgebroid, E: AlgebroidForm) -> None:
    if E.base_dim != A.base_dim or E.rank != A.rank or E.form_degree != 0:
        raise ValueError("expected a section of the given algebroid")


def _check_on(A: PolyAlgebroid, X: "AlgebroidForm | GradedField") -> None:
    if X.base_dim != A.base_dim or X.rank != A.rank:
        raise ValueError(f"{type(X).__name__} lives on a different algebroid")


def _check_operator(A: PolyAlgebroid, P: AlgebroidForm) -> None:
    _check_on(A, P)
    if P.form_degree != 1:
        raise ValueError("expected a degree-1 (operator) algebroid form")


def _anchor_image(A: PolyAlgebroid, X: AlgebroidForm) -> dict[int, Poly]:
    """Components of the base vector field that the anchor sends ``X`` to."""
    out: dict[int, Poly] = {}
    for i, fi in X.components().items():
        for alpha, rho in enumerate(A.anchor[i - 1], 1):
            if not rho.is_zero():
                term = fi.mul(rho)
                out[alpha] = out[alpha].add(term) if alpha in out else term
    return out


def section_bracket(A: PolyAlgebroid, X: AlgebroidForm, Y: AlgebroidForm) -> AlgebroidForm:
    """Extended bracket of two polynomial sections.

    Frame structure term plus anchor derivatives of the coefficients,
    Leibniz in both slots. The frame-route oracle of
    :func:`validate_algebroid` checks the axioms on this bracket.
    """
    _check_section(A, X)
    _check_section(A, Y)
    f = X.components()
    g = Y.components()
    out: dict[tuple[tuple[int, ...], int], Poly] = {}

    def bump(q: int, poly: Poly) -> None:
        if not poly.is_zero():
            slot = ((), q)
            out[slot] = out[slot].add(poly) if slot in out else poly

    # rho(X) differentiates the components of Y, and -rho(Y) those of X.
    rho_x = _anchor_image(A, X)
    minus_rho_y = {alpha: v.neg() for alpha, v in _anchor_image(A, Y).items()}
    for field, comps in ((rho_x, g), (minus_rho_y, f)):
        for q, h in comps.items():
            for alpha, v in field.items():
                dh = h.partial(alpha)
                if not dh.is_zero():
                    bump(q, v.mul(dh))
    # Only frame pairs with a stored bracket carry a structure term.
    for i, fi in f.items():
        for j, gj in g.items():
            cvec = A.structure.get((i, j) if i < j else (j, i))
            if cvec is None:
                continue
            weight = fi.mul(gj) if i < j else fi.mul(gj).neg()
            for q, c in enumerate(cvec, 1):
                if not c.is_zero():
                    bump(q, weight.mul(c))
    return X._with(out)


@dataclass(frozen=True)
class GradedField(_Linear):
    """A polynomial vector field of fixed degree on the shifted bundle.

    ``a_part`` maps ``(increasing degree-tuple of fiber indices, base
    index)`` to the coefficient in front of a base derivative; ``d_part``
    maps ``(increasing (degree+1)-tuple, fiber index)`` to the coefficient
    in front of an odd-generator derivative. Degree-1 instances with anchor
    rows and negated structure functions encode an algebroid candidate.
    """

    base_dim: int
    rank: int
    degree: int
    a_part: Mapping[tuple[tuple[int, ...], int], Poly] = field(default_factory=dict)
    d_part: Mapping[tuple[tuple[int, ...], int], Poly] = field(default_factory=dict)

    _DEGREE = "degree"

    def __post_init__(self) -> None:
        self._check_shape()
        a_part = self._checked(self.a_part, self.degree, self.base_dim, "base")
        object.__setattr__(self, "a_part", a_part)
        d_part = self._checked(self.d_part, self.degree + 1, self.rank, "fiber")
        object.__setattr__(self, "d_part", d_part)

    @classmethod
    def zero(cls, base_dim: int, rank: int, degree: int) -> "GradedField":
        return cls(base_dim, rank, degree, {}, {})

    def _with(self, a_part: Mapping, d_part: Mapping) -> "GradedField":
        """The field of the same shape with these two tables, unchecked and
        with zero entries dropped, like the forms' ``_with``."""
        X = object.__new__(type(self))
        X.__dict__.update(
            base_dim=self.base_dim,
            rank=self.rank,
            degree=self.degree,
            a_part={key: poly for key, poly in a_part.items() if poly.terms},
            d_part={key: poly for key, poly in d_part.items() if poly.terms},
        )
        return X

    def is_zero(self) -> bool:
        return not self.a_part and not self.d_part

    def add(self, other: "GradedField") -> "GradedField":
        self._check_compatible(other)
        return self._with(_merged(self.a_part, other.a_part), _merged(self.d_part, other.d_part))

    def neg(self) -> "GradedField":
        return self._with(
            {k: p.neg() for k, p in self.a_part.items()},
            {k: p.neg() for k, p in self.d_part.items()},
        )

    def scale(self, factor: Rational | int) -> "GradedField":
        return self._with(
            {k: p.scale(factor) for k, p in self.a_part.items()},
            {k: p.scale(factor) for k, p in self.d_part.items()},
        )


def _check_same_shape(X: GradedField, Y: GradedField) -> None:
    if X.base_dim != Y.base_dim or X.rank != Y.rank:
        raise ValueError("graded fields live on different algebroids")


def homological_field_q(A: PolyAlgebroid) -> GradedField:
    """The odd field encoding the algebroid candidate on the shifted bundle.

    Base part: the anchor rows against single odd generators. Fiber part:
    negated structure functions against increasing generator pairs. The
    algebroid axioms hold exactly when this field commutes with itself.
    """
    a_part: dict[tuple[tuple[int, ...], int], Poly] = {}
    for i in range(1, A.rank + 1):
        for alpha in range(1, A.base_dim + 1):
            rho = A.anchor[i - 1][alpha - 1]
            if not rho.is_zero():
                a_part[((i,), alpha)] = rho
    d_part: dict[tuple[tuple[int, ...], int], Poly] = {}
    for (p, q), vec in A.structure.items():
        for k in range(1, A.rank + 1):
            c = vec[k - 1]
            if not c.is_zero():
                d_part[((p, q), k)] = c.neg()
    return GradedField(A.base_dim, A.rank, 1, a_part, d_part)


def field_apply(X: GradedField, F: FiberForm) -> FiberForm:
    """Apply a graded field to a scalar form as a degree-``X.degree`` derivation.

    The base part differentiates coefficients; the fiber part substitutes
    for one odd generator at a time, with the Koszul sign for sliding the
    derivation past the generators in front of the substitution slot. The
    result has the type of ``F``.
    """
    if X.base_dim != F.base_dim or X.rank != F.rank:
        raise ValueError("field and form live on different algebroids")
    out: dict[tuple[int, ...], Poly] = {}

    def bump(key: tuple[int, ...], poly: Poly) -> None:
        out[key] = out[key].add(poly) if key in out else poly

    for J, p in F.entries.items():
        for (I, alpha), f in X.a_part.items():
            merged = _merge_indices(I, J)
            if merged is None:
                continue
            sign, key = merged
            term = f.mul(p.partial(alpha))
            bump(key, term if sign > 0 else term.neg())
        for pos, j_s in enumerate(J):
            slide = -1 if (X.degree * pos) % 2 else 1
            prefix, suffix = J[:pos], J[pos + 1 :]
            for (K, beta), g in X.d_part.items():
                if beta != j_s:
                    continue
                first = _merge_indices(prefix, K)
                if first is None:
                    continue
                s1, mid = first
                second = _merge_indices(mid, suffix)
                if second is None:
                    continue
                s2, key = second
                bump(key, p.mul(g).scale(slide * s1 * s2))
    return F._with(out, F.degree + X.degree)


def graded_commutator(X: GradedField, Y: GradedField) -> GradedField:
    """Graded commutator ``X Y - (-1)^(|X||Y|) Y X`` of two polynomial
    fields on the shifted bundle.

    A derivation of the function algebra is fixed by its values on the
    generators, so each coefficient is the composed action of the two
    fields (:func:`field_apply`) on one base coordinate or one odd
    generator. For ``X is Y`` (the square of the odd field) both orders
    are the one composite ``X X``. The test suite keeps the closed-form
    shuffle expansion of the coefficients as an oracle and holds the two in
    exact agreement.
    """
    _check_same_shape(X, Y)
    m, n = X.base_dim, X.rank
    sign = -1 if (X.degree * Y.degree) % 2 else 1

    def on(generator: FiberForm) -> dict[tuple[int, ...], Poly]:
        upper = field_apply(X, field_apply(Y, generator))
        lower = upper if X is Y else field_apply(Y, field_apply(X, generator))
        return upper.sub(lower.scale(sign)).entries

    a_part = {
        (I, alpha): poly
        for alpha in range(1, m + 1)
        for I, poly in on(FiberForm.coordinate(m, n, alpha)).items()
    }
    d_part = {
        (J, beta): poly
        for beta in range(1, n + 1)
        for J, poly in on(FiberForm.fiber_coordinate(m, n, beta)).items()
    }
    return GradedField(m, n, X.degree + Y.degree, a_part, d_part)


def validate_algebroid(A: PolyAlgebroid) -> ValidationReport:
    """Check the algebroid axioms as ``Q^2 = 0`` for the odd field of
    :func:`homological_field_q`.

    ``Q^2`` has one polynomial coefficient per frame pair ``I = (i, j)``
    and base index ``alpha``, the ``x_alpha`` component of
    ``[rho(e_i), rho(e_j)] - rho([e_i, e_j])``, and one per frame triple
    ``J`` and fiber index ``beta``, the ``e_beta`` component of the
    Jacobiator of the triple; ``checked`` counts these coefficients. Each
    nonzero one is a failure record that names its witness and carries the
    coefficient. The frame route, the anchor on frame pairs and the Jacobi
    identity with polynomial test functions, is the oracle in
    ``tests/oracles.py``.
    """
    m, n = A.base_dim, A.rank
    q_field = homological_field_q(A)
    q_squared = graded_commutator(q_field, q_field).scale(Fraction(1, 2))
    failures = [
        {"identity": "anchor", "pair": list(I), "component": alpha, "coefficient": poly.format()}
        for (I, alpha), poly in sorted(q_squared.a_part.items())
    ]
    failures += [
        {"identity": "jacobi", "triple": list(J), "component": beta, "coefficient": poly.format()}
        for (J, beta), poly in sorted(q_squared.d_part.items())
    ]
    return ValidationReport(
        "lie-algebroid axioms (Q^2 = 0 for the odd field)",
        not failures,
        comb(n, 2) * m + comb(n, 3) * n,
        failures,
    )


def b_from_field(X: GradedField) -> Callable[[Sequence[AlgebroidForm]], AlgebroidForm]:
    """Extract the b-ary section bracket encoded by a degree-(b-1) field.

    The returned evaluator pairs each dual frame generator with the field's
    action. On frame sections it reproduces the fiber-part coefficients up
    to the sign ``(-1)^(b-1)``; on function multiples it picks up
    first-order anchor terms through the derivation rule, so it is not a
    tensor in general.
    """
    m, n, b = X.base_dim, X.rank, X.degree + 1
    outer = -1 if (b - 1) % 2 else 1
    # The images of all dual frame generators at once: the fiber part read
    # as a section-valued form of degree b.
    eta = AlgebroidForm(m, n, b, X.d_part)
    a_blank = FiberForm.zero(m, n, b - 1)
    a_rows: dict[int, list[tuple[tuple[int, ...], Poly]]] = {}
    for (I, alpha), f in X.a_part.items():
        a_rows.setdefault(alpha, []).append((I, f))
    # The base part's action on each component seen, keyed by identity: the
    # frame sections and their images under P are built once per caller and
    # recur across frame tuples and subsets (about three lookups in four hit
    # on the benchmark's phi jobs). The memo holds the component, so its
    # identity is not reused while the evaluator lives.
    a_memo: dict[int, tuple[Poly, FiberForm]] = {}

    def a_on(h: Poly) -> FiberForm:
        hit = a_memo.get(id(h))
        if hit is not None:
            return hit[1]
        entries: dict[tuple[int, ...], Poly] = {}
        for alpha, rows in a_rows.items():
            dh = h.partial(alpha)
            if dh.is_zero():
                continue
            for I, f in rows:
                term = f.mul(dh)
                entries[I] = entries[I].add(term) if I in entries else term
        form = a_blank._with(entries)
        a_memo[id(h)] = (h, form)
        return form

    def evaluate(sections: Sequence[AlgebroidForm]) -> AlgebroidForm:
        args = tuple(sections)
        if len(args) != b:
            raise ValueError(f"expected {b} sections, got {len(args)}")
        for E in args:
            if E.base_dim != m or E.rank != n or E.form_degree != 0:
                raise ValueError("expected sections of the field's algebroid")
        supports = [E.components() for E in args]
        components = dict(eta.evaluate(args).entries)
        for pos, comps in enumerate(supports):
            # Minus the anchor part on the other slots, with the sign for
            # moving the derivation past the slots in front of ``pos``.
            minus = 1 if (b - (pos + 1)) % 2 else -1
            rest = supports[:pos] + supports[pos + 1 :]
            for q, h in comps.items():
                action = a_on(h)
                if not action.entries:
                    continue
                term = action._pair(rest)
                if term.is_zero():
                    continue
                if minus < 0:
                    term = term.neg()
                slot = ((), q)
                components[slot] = components[slot].add(term) if slot in components else term
        if outer < 0:
            components = {slot: poly.neg() for slot, poly in components.items()}
        return eta._with(components, 0)

    return evaluate


def phi_on_sections(
    P: AlgebroidForm, X: GradedField, sections: Sequence[AlgebroidForm]
) -> AlgebroidForm:
    """One evaluation of the comparison map: alternating operator insertions.

    Sums the extracted bracket of the field over every subset of slots
    carrying an extra P, with the complementary power of P applied outside
    and the alternating sign on that outer power.
    """
    if P.form_degree != 1:
        raise ValueError("expected a degree-1 (operator) algebroid form")
    if P.base_dim != X.base_dim or P.rank != X.rank:
        raise ValueError("operator and field live on different algebroids")
    b = X.degree + 1
    args = tuple(sections)
    if len(args) != b:
        raise ValueError(f"expected {b} sections, got {len(args)}")
    return _phi_on_sections(P, b_from_field(X), args, [P.evaluate((E,)) for E in args])


def _phi_on_sections(
    P: AlgebroidForm,
    bee: Callable[[Sequence[AlgebroidForm]], AlgebroidForm],
    args: tuple[AlgebroidForm, ...],
    p_args: Sequence[AlgebroidForm],
) -> AlgebroidForm:
    """:func:`phi_on_sections` with the field's bracket ``bee`` already
    extracted, the arguments already checked and ``p_args[t]`` the image of
    ``args[t]`` under ``P``.

    With ``B_k`` the sum of ``bee`` over the ``k``-subsets of slots carrying
    an extra ``P``, the value ``sum_k (-1)^(b-k) P^(b-k) B_k`` is summed by
    Horner's rule, ``B_b - P(B_(b-1) - P(...))``: ``P`` is additive, so
    this applies it ``b`` times instead of once per subset and power.
    """
    b = len(args)
    total = None
    for k in range(b + 1):
        layer = AlgebroidForm.zero(P.base_dim, P.rank, 0)
        for subset in combinations(range(b), k):
            plugged = list(args)
            for t in subset:
                plugged[t] = p_args[t]
            layer = layer.add(bee(tuple(plugged)))
        total = layer if total is None else layer.sub(P.evaluate((total,)))
    return total


def phi_map(A: PolyAlgebroid, P: AlgebroidForm, X: GradedField) -> AlgebroidForm:
    """Assemble the comparison map's value as a section-valued form.

    The evaluation is function-linear in every slot even though the
    extracted bracket is not; assembly on frame tuples therefore determines
    the form. Each frame evaluation re-asserts linearity by probing the
    first slot with the multiple ``x_1 ... x_m`` and raising if the probe
    ever disagreed. A first-order defect ``sum_alpha a_alpha d/dx_alpha``
    changes the probe by ``sum_alpha a_alpha x_1 ... x_m / x_alpha``, so
    the probe sees every defect along a single base variable and every
    defect with constant coefficients; it misses only coefficients that
    cancel against each other, such as ``x_1 d/dx_1 - x_2 d/dx_2``. ``P``
    on each frame section and the field's bracket are built once per call,
    and the outer powers of ``P`` are summed by Horner's rule
    (:func:`_phi_on_sections`); the test suite keeps the sum with every
    subset and power applied on its own as an oracle (``tests/oracles.py``)
    and holds the two in exact agreement.

    The map is also linear over base functions in the field: the bracket
    extracted from ``gX`` is ``g`` times that of ``X``, because the fiber
    part and the base part's action are linear in the field's
    coefficients, and ``P`` is tensorial. So ``Phi(gX) = g Phi(X)``, and
    :func:`validate_phi_chain_map` assembles this map once per constant
    slot field and extends by those coefficients (:func:`_phi_by_slots`).
    """
    _check_operator(A, P)
    _check_on(A, X)
    b = X.degree + 1
    m, n = A.base_dim, A.rank
    basis = [AlgebroidForm.basis_section(m, n, i) for i in range(1, n + 1)]
    p_basis = [P.evaluate((E,)) for E in basis]
    probe = Poly(m, {(1,) * m: 1}) if m else None
    bee = b_from_field(X)
    entries: dict[tuple[tuple[int, ...], int], Poly] = {}
    for T in combinations(range(1, n + 1), b):
        secs = tuple(basis[t - 1] for t in T)
        p_secs = [p_basis[t - 1] for t in T]
        value = _phi_on_sections(P, bee, secs, p_secs)
        if probe is not None:
            scaled = secs[0].poly_scale(probe)
            probed = _phi_on_sections(
                P, bee, (scaled,) + secs[1:], [P.evaluate((scaled,))] + p_secs[1:]
            )
            if probed != value.poly_scale(probe):
                raise RuntimeError("comparison map failed the function-linearity probe")
        for q, poly in value.components().items():
            entries[(T, q)] = poly
    return AlgebroidForm(m, n, b, entries)


def _plug_first(
    acc: dict[int, Poly],
    grouped: Mapping[tuple[int, ...], list[tuple[int, Poly]]],
    section: Mapping[int, Poly],
    rest: tuple[int, ...],
    sign: int,
) -> None:
    """Add ``sign`` times a form (entries ``grouped`` by input tuple) on the
    section with components ``section`` followed by the frame sections of
    the increasing word ``rest`` into ``acc``, a section's components."""
    for j, comp in section.items():
        if j in rest:
            continue
        # Moving j into place in the increasing word passes the smaller indices.
        below = sum(1 for r in rest if r < j)
        outputs = grouped.get(tuple(sorted(rest + (j,))))
        if not outputs:
            continue
        weight = comp if (sign > 0) == (below % 2 == 0) else comp.neg()
        for out, poly in outputs:
            term = weight.mul(poly)
            acc[out] = acc[out].add(term) if out in acc else term


def algebroid_fn_bracket(
    A: PolyAlgebroid, K: AlgebroidForm, L: AlgebroidForm
) -> AlgebroidForm:
    """Frolicher-Nijenhuis bracket of section-valued forms, assembled on frames.

    The five-sum over the extended section bracket, run on frame index
    words: ``K`` and ``L`` on frame sections are read off their entries,
    each bracket ``[K(E_S), E_i]``, ``[L(E_S), E_i]`` and ``[E_a, E_b]`` is
    taken once per call, and a term with a zero factor is skipped before
    its bracket. On the tangent algebroid this is the classical coordinate
    formula, where the two sums through ``[E_a, E_b]`` drop. The test
    suite keeps the five-sum on general sections as an oracle
    (``tests/oracles.py``) and holds the two in exact agreement.
    """
    _check_on(A, K)
    _check_on(A, L)
    m, n = A.base_dim, A.rank
    k, l = K.form_degree, L.form_degree
    deg = k + l
    basis = [AlgebroidForm.basis_section(m, n, i) for i in range(1, n + 1)]
    blank = K._with({}, 0)
    tables = {"K": K._by_input(), "L": L._by_input()}
    # K(E_S) and L(E_S) as sections, for every increasing word S they are
    # nonzero on; the brackets [K(E_S), E_i] and [L(E_S), E_i] on first use.
    values = {
        name: {S: blank._with({((), q): p for q, p in outputs}) for S, outputs in table.items()}
        for name, table in tables.items()
    }
    brackets: dict[tuple[str, tuple[int, ...], int], dict[int, Poly]] = {}
    frame_brackets = {
        pair: {q: c for q, c in enumerate(vec, 1) if c.terms}
        for pair, vec in A.structure.items()
    }

    # Per sum: its kind, the forms in the order it plugs them, and the
    # shuffle images with the sum's own sign folded into each shuffle's.
    sums = [("pair", (k, l), 1, "KL")]
    if l >= 1:
        sums.append(("bracket", (k, 1, l - 1), -1, "KL"))
    if k >= 1:
        sums.append(("bracket", (l, 1, k - 1), -1 if (k * l) % 2 else 1, "LK"))
    if k >= 1 and l >= 1 and frame_brackets:
        sums.append(("frame", (2, k - 1, l - 1), 1 if k % 2 else -1, "KL"))
        sums.append(("frame", (2, l - 1, k - 1), -1 if ((k - 1) * l) % 2 else 1, "LK"))
    patterns = [
        (kind, names, [(sigma.images, sign * sigma.sign()) for sigma in enumerate_shuffles(sizes)])
        for kind, sizes, sign, names in sums
    ]

    entries: dict[tuple[tuple[int, ...], int], Poly] = {}
    for T in combinations(range(1, n + 1), deg):
        acc: dict[int, Poly] = {}
        for kind, (first, second), shuffles in patterns:
            a = k if first == "K" else l
            for images, sign in shuffles:
                word = tuple(T[p - 1] for p in images)
                if kind == "pair":
                    X, Y = values["K"].get(word[:k]), values["L"].get(word[k:])
                    if X is None or Y is None:
                        continue
                    for q, poly in section_bracket(A, X, Y).components().items():
                        term = poly if sign > 0 else poly.neg()
                        acc[q] = acc[q].add(term) if q in acc else term
                elif kind == "bracket":
                    # [first(E_S), E_i] plugged into second.
                    X = values[first].get(word[:a])
                    if X is None:
                        continue
                    key = (first, word[:a], word[a])
                    if key not in brackets:
                        brackets[key] = section_bracket(A, X, basis[word[a] - 1]).components()
                    _plug_first(acc, tables[second], brackets[key], word[a + 1 :], sign)
                else:
                    # [E_a, E_b] plugged into first, plugged into second.
                    c = frame_brackets.get(word[:2])
                    if c is None:
                        continue
                    inner: dict[int, Poly] = {}
                    _plug_first(inner, tables[first], c, word[2 : a + 1], 1)
                    _plug_first(acc, tables[second], inner, word[a + 1 :], sign)
        for q, poly in acc.items():
            entries[(T, q)] = poly
    return K._with(entries, deg)


def algebroid_torsion(A: PolyAlgebroid, P: AlgebroidForm) -> AlgebroidForm:
    """Nijenhuis torsion ``[PX, PY] - P[PX, Y] - P[X, PY] + P^2[X, Y]`` of an
    operator on sections, from the definition.

    Assembled on frame pairs with :func:`section_bracket`, which assumes no
    algebroid axiom, so this is the torsion of any candidate, valid or not.
    The square-of-P term keeps its bracket because frame sections need not
    commute; on the coordinate frame of the tangent algebroid it vanishes.
    Oracles in ``tests/oracles.py``: the expanded coefficient formula,
    ``algebroid_torsion_coefficients``, and the same assembly with the
    bracket derived from the odd field, ``derived_bracket_torsion``.
    """
    _check_operator(A, P)
    m, n = P.base_dim, P.rank
    basis = [AlgebroidForm.basis_section(m, n, i) for i in range(1, n + 1)]
    entries: dict[tuple[tuple[int, ...], int], Poly] = {}
    for i, j in combinations(range(1, n + 1), 2):
        Ei, Ej = basis[i - 1], basis[j - 1]
        Pi, Pj = P.evaluate((Ei,)), P.evaluate((Ej,))
        value = section_bracket(A, Pi, Pj)
        value = value.sub(P.evaluate((section_bracket(A, Pi, Ej),)))
        value = value.sub(P.evaluate((section_bracket(A, Ei, Pj),)))
        value = value.add(P.evaluate((P.evaluate((section_bracket(A, Ei, Ej),)),)))
        for q, poly in value.components().items():
            entries[((i, j), q)] = poly
    return P._with(entries, 2)


def _require_nijenhuis(A: PolyAlgebroid, P: AlgebroidForm) -> None:
    _check_operator(A, P)
    if not validate_algebroid(A).ok:
        raise ValueError("algebroid axioms fail; run validate_algebroid for details")
    if not algebroid_torsion(A, P).is_zero():
        raise ValueError("operator has nonzero algebroid torsion")


def _d_q(q_field: GradedField, X: GradedField) -> GradedField:
    # Differential on shifted-bundle fields: minus the commutator with the
    # odd field. The orientation is the one that intertwines with the
    # operator-twisted differential through the comparison map (measured;
    # the plus variant fails).
    return graded_commutator(q_field, X).neg()


def validate_phi_chain_map(
    A: PolyAlgebroid,
    P: AlgebroidForm,
    samples: int = 1,
    *,
    seed: int = 0,
    max_poly_degree: int = 1,
) -> ValidationReport:
    """Check that the comparison map intertwines the two differentials.

    Sweeps every single-entry monomial field of degree 0..3 plus ``samples``
    seeded random rational combinations per degree, requiring exact equality
    of the comparison of the field differential with the operator-twisted
    differential of the comparison. The seed goes into the report
    description for reproducibility.

    Since ``Phi(gX) = g Phi(X)`` (:func:`phi_map`), each call assembles
    ``phi_map`` once per constant slot field it meets, degrees 0..4, into a
    table local to the call, and takes every other value, ``Phi(d_Q X)``
    included, as the sum of the field's coefficients times the table's
    entries. The test suite keeps the sweep with ``phi_map`` on every field
    as an oracle (``tests/oracles.py``) and holds the two reports equal.
    """
    _require_nijenhuis(A, P)
    return _validate_phi_chain_map(A, P, samples, seed=seed, max_poly_degree=max_poly_degree)


def _phi_by_slots(
    A: PolyAlgebroid, P: AlgebroidForm
) -> Callable[[GradedField], AlgebroidForm]:
    """:func:`phi_map` extended from its values on the constant slot fields.

    ``Phi(X)`` is the sum over the entries of ``X`` of the coefficient times
    ``Phi`` of the field with that one entry equal to 1. Those values are
    assembled on first use and kept in the returned evaluator's table, which
    lives as long as the evaluator.
    """
    m, n = A.base_dim, A.rank
    one = Poly.const(m, 1)
    # Keyed by part (0 base, 1 fiber) and slot; the slot's length fixes the degree.
    table: dict[tuple[int, tuple[tuple[int, ...], int]], AlgebroidForm] = {}

    def phi(X: GradedField) -> AlgebroidForm:
        total = AlgebroidForm.zero(m, n, X.degree + 1)
        for part, coefficients in enumerate((X.a_part, X.d_part)):
            for slot, poly in coefficients.items():
                key = (part, slot)
                unit = table.get(key)
                if unit is None:
                    parts: list[dict] = [{}, {}]
                    parts[part] = {slot: one}
                    unit = table[key] = phi_map(A, P, GradedField(m, n, X.degree, *parts))
                total = total.add(unit.poly_scale(poly))
        return total

    return phi


def _validate_phi_chain_map(
    A: PolyAlgebroid,
    P: AlgebroidForm,
    samples: int = 1,
    *,
    seed: int = 0,
    max_poly_degree: int = 1,
) -> ValidationReport:
    """:func:`validate_phi_chain_map` without the algebroid axiom and
    torsion checks, for callers that have run them already."""
    m, n = A.base_dim, A.rank
    q_field = homological_field_q(A)
    phi = _phi_by_slots(A, P)
    rng = random.Random(seed)
    # Constants first, then by degree: the seeded samples and the failure
    # labels depend on this order.
    monos = [Poly(m, {e: 1}) for d in range(max_poly_degree + 1) for e in _monomials(m, d)]
    failures: list[dict] = []
    checked = 0

    def check(X: GradedField, label: str) -> None:
        nonlocal checked
        if X.is_zero():
            return
        left = phi(_d_q(q_field, X))
        right = algebroid_fn_bracket(A, P, phi(X))
        checked += 1
        if left != right:
            failures.append({"identity": "chain-map", "field": label})

    def drawn() -> Poly:
        poly = Poly.zero(m)
        for mono in monos:
            poly = poly.add(mono.scale(Rational(rng.randint(-2, 2), rng.randint(1, 2))))
        return poly

    for d in range(0, 4):
        # Base-part slots, then fiber-part slots.
        slots = [
            [(I, i) for I in combinations(range(1, n + 1), arity) for i in range(1, bound + 1)]
            for arity, bound in ((d, m), (d + 1, n))
        ]
        for part, (kind, part_slots) in enumerate(zip("ad", slots)):
            for slot in part_slots:
                for mono in monos:
                    parts: list[dict] = [{}, {}]
                    parts[part] = {slot: mono}
                    check(GradedField(m, n, d, *parts), f"{kind}{slot}*{mono.format()}")
        for s in range(samples):
            # All base-part draws of a sample come before its fiber-part draws.
            parts = [{slot: drawn() for slot in part_slots} for part_slots in slots]
            check(GradedField(m, n, d, *parts), f"random(degree={d}, sample={s})")

    return ValidationReport(
        f"phi chain map (seed={seed}, samples={samples})",
        not failures,
        checked,
        failures,
    )


@dataclass(frozen=True)
class ConePair:
    """An element of the mapping cone: a shifted-bundle field and a form.

    In cone degree ``field_part.degree + 1`` the form sits one step lower,
    which with the comparison map's degree shift means the two raw degrees
    coincide; that equality is the stored invariant.
    """

    field_part: GradedField
    form_part: AlgebroidForm

    def __post_init__(self) -> None:
        if (
            self.field_part.base_dim != self.form_part.base_dim
            or self.field_part.rank != self.form_part.rank
        ):
            raise ValueError("cone parts live on different algebroids")
        if self.form_part.form_degree != self.field_part.degree:
            raise ValueError("cone degree offset violated")

    def is_zero(self) -> bool:
        return self.field_part.is_zero() and self.form_part.is_zero()


def delta_njld(A: PolyAlgebroid, P: AlgebroidForm, pair: ConePair) -> ConePair:
    """The mapping-cone differential coupling the two complexes.

    Field slot: the odd-field differential. Form slot: minus the comparison
    map of the field, minus the operator-twisted differential of the form.
    Requires a valid algebroid and torsion-free operator; squaring to zero
    is then exactly the chain-map identity plus the two squared
    differentials.
    """
    _require_nijenhuis(A, P)
    return _delta_njld(A, P, pair)


def _delta_njld(A: PolyAlgebroid, P: AlgebroidForm, pair: ConePair) -> ConePair:
    """:func:`delta_njld` for a pair already known to be a valid algebroid
    with a torsion-free operator."""
    _check_on(A, pair.field_part)
    _check_on(A, pair.form_part)
    q_field = homological_field_q(A)
    new_field = _d_q(q_field, pair.field_part)
    new_form = phi_map(A, P, pair.field_part).neg().sub(
        algebroid_fn_bracket(A, P, pair.form_part)
    )
    return ConePair(new_field, new_form)


@dataclass(frozen=True)
class AlgebroidMCReport:
    """Both structure-equation residuals of a candidate Nijenhuis algebroid."""

    lie_residual: GradedField
    torsion_residual: AlgebroidForm
    ok: bool

    def to_dict(self) -> dict:
        return {
            "lie_residual_entries": len(self.lie_residual.a_part)
            + len(self.lie_residual.d_part),
            "torsion_residual_entries": len(self.torsion_residual.entries),
            "ok": self.ok,
        }


def algebroid_mc_residual(A: PolyAlgebroid, P: AlgebroidForm) -> AlgebroidMCReport:
    """Evaluate the two structure equations of a Nijenhuis algebroid pair.

    The first residual squares the odd field. The second is the brace
    combination B{P,P} - P(B{P}) + P(P(B)) with the bracket B derived from
    the odd field, which is the operator torsion :func:`algebroid_torsion`;
    neither assumes the algebroid is valid. Both vanish together exactly
    when the algebroid axioms hold and the torsion is zero. The expansion
    through the derived bracket is the oracle ``derived_bracket_torsion``
    in ``tests/oracles.py``.
    """
    torsion_residual = algebroid_torsion(A, P)
    q_field = homological_field_q(A)
    lie_residual = graded_commutator(q_field, q_field)
    return AlgebroidMCReport(
        lie_residual,
        torsion_residual,
        lie_residual.is_zero() and torsion_residual.is_zero(),
    )


def trivial_algebroid(n: int) -> PolyAlgebroid:
    """The tangent algebroid of R^n in the coordinate frame: identity anchor."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    one = Poly.const(n, 1)
    zero = Poly.zero(n)
    anchor = tuple(
        tuple(one if i == alpha else zero for alpha in range(n)) for i in range(n)
    )
    return PolyAlgebroid(n, n, anchor, {})


def algebroid_over_point(algebra: LieAlgebra) -> PolyAlgebroid:
    """A Lie algebra as an algebroid over a zero-dimensional base.

    Frame indices become 1-based and structure constants become constant
    polynomials in zero variables; the anchor is empty.
    """
    n = algebra.dim
    structure = {
        (i + 1, j + 1): tuple(Poly.const(0, c) for c in vec)
        for (i, j), vec in algebra.brackets.items()
    }
    return PolyAlgebroid(0, n, tuple(() for _ in range(n)), structure)
