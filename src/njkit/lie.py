"""Finite-dimensional Lie algebras over the rationals, Nijenhuis operators,
representations, and the constructions that deform or combine them.

Conventions
-----------
* Vectors are coordinate tuples in a fixed basis ``e_0, ..., e_{dim-1}``.
* Structure constants are stored only for ``i < j`` (0-based); the bracket
  of equal indices is zero and ``j > i`` follows by antisymmetry.
* Endomorphisms act by the column convention: ``P(e_j) = sum_i P[i][j] e_i``.
* Validators return structured reports and never raise on mathematically
  invalid data; exceptions are reserved for malformed shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import Rational, format_rational

Vector = tuple[Fraction, ...]


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def vector(coords: Sequence[Rational | int]) -> Vector:
    return tuple(Fraction(c) for c in coords)


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_scale(c: Rational | int, x: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in x)


def is_zero_vector(x: Vector) -> bool:
    return all(a == 0 for a in x)


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by structure constants on ``i < j`` basis pairs.

    ``brackets[(i, j)]`` holds the coordinates of ``[e_i, e_j]``. Pairs
    absent from the mapping bracket to zero. Antisymmetry is built into the
    storage; the Jacobi identity is *not* assumed and is checked by
    :func:`validate_lie`.
    """

    dim: int
    brackets: Mapping[tuple[int, int], Vector] = field(default_factory=dict)
    basis_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        clean: dict[tuple[int, int], Vector] = {}
        for (i, j), value in self.brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bad bracket key {(i, j)} for dim {self.dim}")
            vec = vector(value)
            if len(vec) != self.dim:
                raise ValueError(f"bracket value for {(i, j)} has wrong length")
            if not is_zero_vector(vec):
                clean[(i, j)] = vec
        object.__setattr__(self, "brackets", clean)
        if self.basis_names is not None and len(self.basis_names) != self.dim:
            raise ValueError("basis_names length must match dim")

    def basis_vector(self, i: int) -> Vector:
        return tuple(
            Fraction(1) if k == i else Fraction(0) for k in range(self.dim)
        )

    def basis_bracket(self, i: int, j: int) -> Vector:
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self.brackets.get((i, j), zero_vector(self.dim))
        return vec_scale(-1, self.brackets.get((j, i), zero_vector(self.dim)))

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out = list(zero_vector(self.dim))
        for (i, j), value in self.brackets.items():
            coeff = x[i] * y[j] - x[j] * y[i]
            if coeff:
                for k, v in enumerate(value):
                    out[k] += coeff * v
        return tuple(out)


@dataclass(frozen=True)
class Endomorphism:
    """A linear endomorphism stored row-major; ``P(e_j) = sum_i rows[i][j] e_i``."""

    dim: int
    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        rows = tuple(vector(r) for r in self.rows)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError("matrix shape must be dim x dim")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "Endomorphism":
        return cls(len(rows), tuple(vector(r) for r in rows))

    @classmethod
    def identity(cls, dim: int) -> "Endomorphism":
        return cls.diagonal([1] * dim)

    @classmethod
    def zero(cls, dim: int) -> "Endomorphism":
        return cls(dim, tuple(zero_vector(dim) for _ in range(dim)))

    @classmethod
    def diagonal(cls, diag: Sequence[Rational | int]) -> "Endomorphism":
        dim = len(diag)
        return cls(
            dim,
            tuple(
                tuple(Fraction(diag[i]) if i == j else Fraction(0) for j in range(dim))
                for i in range(dim)
            ),
        )

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def apply(self, x: Vector) -> Vector:
        support = [(j, c) for j, c in enumerate(x) if c]
        return tuple(
            sum((row[j] * c for j, c in support if row[j]), Fraction(0))
            for row in self.rows
        )

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Matrix product; ``(self.compose(other))(x) = self(other(x))``."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        rows = tuple(
            tuple(
                sum(
                    (self.rows[i][k] * other.rows[k][j] for k in range(self.dim)),
                    Fraction(0),
                )
                for j in range(self.dim)
            )
            for i in range(self.dim)
        )
        return Endomorphism(self.dim, rows)

    def add(self, other: "Endomorphism") -> "Endomorphism":
        return Endomorphism(
            self.dim,
            tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)),
        )

    def sub(self, other: "Endomorphism") -> "Endomorphism":
        return Endomorphism(
            self.dim,
            tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)),
        )

    def scale(self, c: Rational | int) -> "Endomorphism":
        return Endomorphism(self.dim, tuple(vec_scale(c, r) for r in self.rows))

    def power(self, k: int) -> "Endomorphism":
        if k < 0:
            raise ValueError("negative power")
        out = Endomorphism.identity(self.dim)
        for _ in range(k):
            out = out.compose(self)
        return out

    def is_zero(self) -> bool:
        return all(is_zero_vector(r) for r in self.rows)


@dataclass(frozen=True)
class Representation:
    """A module over a Lie algebra: one action matrix per algebra generator.

    ``actions[i]`` is the endomorphism of the module giving the action of
    ``e_i``. Compatibility with the bracket is checked by
    :func:`validate_representation`, not assumed.
    """

    algebra: LieAlgebra
    dim: int
    actions: tuple[Endomorphism, ...]

    def __post_init__(self) -> None:
        if len(self.actions) != self.algebra.dim:
            raise ValueError("need one action matrix per algebra generator")
        if any(a.dim != self.dim for a in self.actions):
            raise ValueError("action matrices must match module dimension")

    @classmethod
    def adjoint(cls, algebra: LieAlgebra) -> "Representation":
        actions = []
        for i in range(algebra.dim):
            cols = [algebra.basis_bracket(i, j) for j in range(algebra.dim)]
            rows = tuple(
                tuple(cols[j][r] for j in range(algebra.dim))
                for r in range(algebra.dim)
            )
            actions.append(Endomorphism(algebra.dim, rows))
        return cls(algebra, algebra.dim, tuple(actions))

    def act_basis(self, i: int, x: Vector) -> Vector:
        return self.actions[i].apply(x)

    def act(self, a: Vector, x: Vector) -> Vector:
        out = zero_vector(self.dim)
        for i, coeff in enumerate(a):
            if coeff:
                out = vec_add(out, vec_scale(coeff, self.act_basis(i, x)))
        return out


@dataclass(frozen=True)
class NijenhuisLieAlgebra:
    """A Lie algebra together with a candidate Nijenhuis operator."""

    algebra: LieAlgebra
    operator: Endomorphism

    def __post_init__(self) -> None:
        if self.operator.dim != self.algebra.dim:
            raise ValueError("operator dimension must match algebra")


@dataclass(frozen=True)
class NijenhuisRepresentation:
    """A module with its candidate module operator ``P_M``."""

    representation: Representation
    operator: Endomorphism

    def __post_init__(self) -> None:
        if self.operator.dim != self.representation.dim:
            raise ValueError("operator dimension must match module")


@dataclass
class ValidationReport:
    """Outcome of an exact validity check.

    ``failures`` lists one JSON-able record per violated identity; an empty
    list means ``ok``.
    """

    description: str
    ok: bool
    checked: int
    failures: list[dict]

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "ok": self.ok,
            "checked": self.checked,
            "failures": self.failures,
        }


def _vec_strings(x: Vector) -> list[str]:
    return [format_rational(c) for c in x]


def validate_lie(algebra: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on every basis triple ``i < j < k``."""
    failures = []
    checked = 0
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            for k in range(j + 1, algebra.dim):
                checked += 1
                residual = vec_add(
                    vec_add(
                        algebra.bracket(algebra.basis_bracket(i, j), algebra.basis_vector(k)),
                        algebra.bracket(algebra.basis_bracket(j, k), algebra.basis_vector(i)),
                    ),
                    algebra.bracket(algebra.basis_bracket(k, i), algebra.basis_vector(j)),
                )
                if not is_zero_vector(residual):
                    failures.append(
                        {"triple": [i, j, k], "residual": _vec_strings(residual)}
                    )
    return ValidationReport("jacobi", not failures, checked, failures)


def validate_representation(rep: Representation) -> ValidationReport:
    """Check ``rho([e_i, e_j]) = rho_i rho_j - rho_j rho_i`` on basis pairs."""
    failures = []
    checked = 0
    alg = rep.algebra
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            checked += 1
            lhs = Endomorphism.zero(rep.dim)
            for k, coeff in enumerate(alg.basis_bracket(i, j)):
                if coeff:
                    lhs = lhs.add(rep.actions[k].scale(coeff))
            rhs = rep.actions[i].compose(rep.actions[j]).sub(
                rep.actions[j].compose(rep.actions[i])
            )
            diff = lhs.sub(rhs)
            if not diff.is_zero():
                failures.append(
                    {
                        "pair": [i, j],
                        "residual": [_vec_strings(r) for r in diff.rows],
                    }
                )
    return ValidationReport("representation", not failures, checked, failures)


def nijenhuis_torsion(algebra: LieAlgebra, p: Endomorphism) -> dict[tuple[int, int], Vector]:
    """Torsion of ``p`` on basis pairs:
    ``N(x, y) = [Px, Py] - P([Px, y] + [x, Py] - P[x, y])``.

    Only ``i < j`` keys are stored; the map is antisymmetric.
    """
    out: dict[tuple[int, int], Vector] = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            x = algebra.basis_vector(i)
            y = algebra.basis_vector(j)
            px, py = p.apply(x), p.apply(y)
            inner = vec_sub(
                vec_add(algebra.bracket(px, y), algebra.bracket(x, py)),
                p.apply(algebra.bracket(x, y)),
            )
            out[(i, j)] = vec_sub(algebra.bracket(px, py), p.apply(inner))
    return out


def validate_nijenhuis(algebra: LieAlgebra, p: Endomorphism) -> ValidationReport:
    """Check that the torsion of ``p`` vanishes on all basis pairs."""
    failures = []
    torsion = nijenhuis_torsion(algebra, p)
    for (i, j), residual in sorted(torsion.items()):
        if not is_zero_vector(residual):
            failures.append({"pair": [i, j], "residual": _vec_strings(residual)})
    checked = algebra.dim * (algebra.dim - 1) // 2
    return ValidationReport("nijenhuis-torsion", not failures, checked, failures)


def deformed_bracket(algebra: LieAlgebra, p: Endomorphism) -> LieAlgebra:
    """The bracket ``[x, y]_P = [Px, y] + [x, Py] - P[x, y]``.

    For a Nijenhuis ``p`` this is again a Lie bracket and ``p`` stays
    Nijenhuis for it.
    """
    new: dict[tuple[int, int], Vector] = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            x = algebra.basis_vector(i)
            y = algebra.basis_vector(j)
            value = vec_sub(
                vec_add(
                    algebra.bracket(p.apply(x), y),
                    algebra.bracket(x, p.apply(y)),
                ),
                p.apply(algebra.bracket(x, y)),
            )
            if not is_zero_vector(value):
                new[(i, j)] = value
    return LieAlgebra(algebra.dim, new, algebra.basis_names)


def validate_nijenhuis_representation(
    rep: Representation, p: Endomorphism, p_m: Endomorphism
) -> ValidationReport:
    """Check the module compatibility
    ``P(a) . P_M(x) = P_M(P(a) . x + a . P_M(x) - P_M(a . x))``
    on all generator pairs ``(e_i, m_b)``.
    """
    failures = []
    checked = 0
    alg = rep.algebra
    for i in range(alg.dim):
        pa = p.apply(alg.basis_vector(i))
        for b in range(rep.dim):
            checked += 1
            x = tuple(
                Fraction(1) if k == b else Fraction(0) for k in range(rep.dim)
            )
            lhs = rep.act(pa, p_m.apply(x))
            inner = vec_sub(
                vec_add(rep.act(pa, x), rep.act(alg.basis_vector(i), p_m.apply(x))),
                p_m.apply(rep.act(alg.basis_vector(i), x)),
            )
            rhs = p_m.apply(inner)
            if lhs != rhs:
                failures.append(
                    {
                        "generator": i,
                        "module_index": b,
                        "residual": _vec_strings(vec_sub(lhs, rhs)),
                    }
                )
    return ValidationReport("nijenhuis-representation", not failures, checked, failures)


def deformed_representation(
    rep: Representation, p: Endomorphism, p_m: Endomorphism
) -> Representation:
    """The module over the deformed algebra with action ``a > x = P(a) . x``.

    The underlying algebra of the result carries the deformed bracket.
    """
    deformed = deformed_bracket(rep.algebra, p)
    actions = []
    for i in range(rep.algebra.dim):
        acc = Endomorphism.zero(rep.dim)
        for k in range(rep.algebra.dim):
            coeff = p.entry(k, i)  # P(e_i) = sum_k P[k][i] e_k
            if coeff:
                acc = acc.add(rep.actions[k].scale(coeff))
        actions.append(acc)
    return Representation(deformed, rep.dim, tuple(actions))


def adjoint_nijenhuis(nja: NijenhuisLieAlgebra) -> NijenhuisRepresentation:
    """The adjoint module with ``P_M = P``; always a valid pairing when the
    algebra and operator are themselves valid."""
    return NijenhuisRepresentation(
        Representation.adjoint(nja.algebra), nja.operator
    )
