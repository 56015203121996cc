"""Cochain complexes attached to a Lie algebra with a Nijenhuis operator:
the Chevalley-Eilenberg complex of the algebra, the complex of the operator,
and their mapping cone, together with exact Betti numbers and long-exact-
sequence verification.

Cochains of degree ``n`` are alternating ``n``-linear maps into the module,
stored on strictly increasing basis tuples; degree-0 cochains are single
module vectors (stored under the empty tuple).

Every differential is assembled from nonzero entries only (cochain values,
structure constants, action and operator entries). A complex builds the
operators its differentials share, the deformed module and the powers of
``-P_M``, once, on first use, and drops them with itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .exact import SparseMatrix
from .lie import (
    Endomorphism,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    Vector,
    deformed_representation,
    is_zero_vector,
    vec_add,
    vec_scale,
    vector,
    zero_vector,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Cochain:
    """An alternating multilinear map ``g^n -> M`` in coordinates."""

    degree: int
    source_dim: int
    target_dim: int
    values: Mapping[tuple[int, ...], Vector]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        clean: dict[tuple[int, ...], Vector] = {}
        for key, value in self.values.items():
            key = tuple(key)
            if len(key) != self.degree:
                raise ValueError(f"key {key} has wrong length for degree {self.degree}")
            if any(not 0 <= i < self.source_dim for i in key):
                raise ValueError(f"key {key} out of range")
            if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
                raise ValueError(f"key {key} must be strictly increasing")
            vec = vector(value)
            if len(vec) != self.target_dim:
                raise ValueError("value length must match target dimension")
            if not is_zero_vector(vec):
                clean[key] = vec
        object.__setattr__(self, "values", clean)

    @classmethod
    def _trusted(
        cls,
        degree: int,
        source_dim: int,
        target_dim: int,
        values: Mapping[tuple[int, ...], Sequence],
    ) -> "Cochain":
        """Keep the nonzero ``values`` as tuples; no key check, no conversion.

        Only for results of internal operations: every key a strictly
        increasing ``degree``-tuple below ``source_dim``, every value
        ``target_dim`` ``Fraction`` entries.
        """
        cochain = object.__new__(cls)
        cochain.__dict__.update(
            degree=degree,
            source_dim=source_dim,
            target_dim=target_dim,
            values={key: tuple(vec) for key, vec in values.items() if any(vec)},
        )
        return cochain

    @classmethod
    def zero(cls, degree: int, source_dim: int, target_dim: int) -> "Cochain":
        return cls._trusted(degree, source_dim, target_dim, {})

    @classmethod
    def from_constant(cls, source_dim: int, value: Sequence) -> "Cochain":
        vec = vector(value)
        return cls(0, source_dim, len(vec), {(): vec})

    def constant_value(self) -> Vector:
        if self.degree != 0:
            raise ValueError("not a degree-0 cochain")
        return self.values.get((), zero_vector(self.target_dim))

    def evaluate(self, indices: Sequence[int]) -> Vector:
        """Value on arbitrary basis indices, using antisymmetry."""
        idx = tuple(indices)
        if len(idx) != self.degree:
            raise ValueError("wrong number of arguments")
        if len(set(idx)) != len(idx):
            return zero_vector(self.target_dim)
        sign = 1
        seq = list(idx)
        for end in range(len(seq), 1, -1):
            for t in range(end - 1):
                if seq[t] > seq[t + 1]:
                    seq[t], seq[t + 1] = seq[t + 1], seq[t]
                    sign = -sign
        base = self.values.get(tuple(seq))
        if base is None:
            return zero_vector(self.target_dim)
        return vec_scale(sign, base)

    def add(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        values = dict(self.values)
        for key, vec in other.values.items():
            values[key] = vec_add(values[key], vec) if key in values else vec
        return Cochain._trusted(self.degree, self.source_dim, self.target_dim, values)

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(-1))

    def scale(self, c) -> "Cochain":
        return Cochain._trusted(
            self.degree,
            self.source_dim,
            self.target_dim,
            {k: vec_scale(c, v) for k, v in self.values.items()},
        )

    def map_values(self, op: Endomorphism) -> "Cochain":
        """Postcompose with an endomorphism of the target module."""
        if op.dim != self.target_dim:
            raise ValueError("operator dimension mismatch")
        return Cochain._trusted(
            self.degree,
            self.source_dim,
            self.target_dim,
            {k: op.apply(v) for k, v in self.values.items()},
        )

    def is_zero(self) -> bool:
        return not self.values

    def _check_compatible(self, other: "Cochain") -> None:
        if (self.degree, self.source_dim, self.target_dim) != (
            other.degree,
            other.source_dim,
            other.target_dim,
        ):
            raise ValueError("incompatible cochains")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        self._check_compatible(other)
        return self.values == other.values

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class PairCochain:
    """An element of the cone complex: a Lie cochain of degree ``n`` paired
    with an operator cochain of degree ``n - 1`` (absent at ``n = 0``)."""

    degree: int
    lie_part: Cochain
    njo_part: Cochain | None

    def __post_init__(self) -> None:
        if self.lie_part.degree != self.degree:
            raise ValueError("lie part has wrong degree")
        if self.degree == 0:
            if self.njo_part is not None:
                raise ValueError("degree-0 pairs have no operator part")
        else:
            if self.njo_part is None or self.njo_part.degree != self.degree - 1:
                raise ValueError("operator part must have degree n - 1")

    def is_zero(self) -> bool:
        return self.lie_part.is_zero() and (
            self.njo_part is None or self.njo_part.is_zero()
        )

    def add(self, other: "PairCochain") -> "PairCochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        njo = None
        if self.njo_part is not None:
            njo = self.njo_part.add(other.njo_part)
        return PairCochain(self.degree, self.lie_part.add(other.lie_part), njo)

    def scale(self, c) -> "PairCochain":
        njo = None if self.njo_part is None else self.njo_part.scale(c)
        return PairCochain(self.degree, self.lie_part.scale(c), njo)


def _accumulate(
    out: dict[tuple[int, ...], list], key: tuple[int, ...], factor, image: list, dim: int
) -> None:
    """Add ``factor`` times the sparse vector ``image`` to ``out[key]``."""
    acc = out.get(key)
    if acc is None:
        acc = out[key] = [_ZERO] * dim
    for s, c in image:
        acc[s] += factor * c


def delta_lie(rep: Representation, f: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential of ``f`` with module ``rep``:
    ``(df)(x_0..x_n) = sum_p (-1)^p x_p . f(..^x_p..)
    + sum_{p<q} (-1)^(p+q) f([x_p, x_q], ..^x_p..^x_q..)``.

    Assembled from the nonzero values of ``f``, the nonzero structure
    constants and the nonzero action entries. A value ``f(e_I) = m``
    contributes ``(-1)^pos(a) e_a . m`` on ``I + {a}`` for every ``a`` not in
    ``I``, and ``(-1)^(p+q+pos(k)) c^k_ab m`` on ``(I - {k}) + {a, b}`` for
    every ``k`` in ``I`` and nonzero ``c^k_ab``, where ``p < q`` are the
    positions of ``a < b`` in the new key and ``pos(k)`` that of ``k`` in ``I``.
    """
    alg = rep.algebra
    if f.source_dim != alg.dim or f.target_dim != rep.dim:
        raise ValueError("cochain does not match the module")
    out: dict[tuple[int, ...], list] = {}
    for idx, vec in f.values.items():
        support = [(t, c) for t, c in enumerate(vec) if c]
        for a in range(alg.dim):
            if a in idx:
                continue
            rows = rep.actions[a].rows
            image = [(s, row[t] * c) for t, c in support for s, row in enumerate(rows) if row[t]]
            if image:
                pos = bisect_left(idx, a)
                _accumulate(out, idx[:pos] + (a,) + idx[pos:], (-1) ** pos, image, rep.dim)
        for pos_k, k in enumerate(idx):
            rest = idx[:pos_k] + idx[pos_k + 1 :]
            for (a, b), value in alg.brackets.items():
                ck = value[k]
                if not ck or a in rest or b in rest:
                    continue
                key = tuple(sorted(rest + (a, b)))
                sign = (-1) ** (key.index(a) + key.index(b) + pos_k)
                _accumulate(out, key, sign, [(t, ck * c) for t, c in support], rep.dim)
    return Cochain._trusted(f.degree + 1, alg.dim, rep.dim, out)


def _pullback_wedge(p: Endomorphism, idx: tuple[int, ...]) -> dict[tuple[int, ...], list]:
    """``(Id + tP)^* e^idx`` as ``{J: [coefficient of t^k for k = 0..n]}``.

    The pullback of ``e^idx = e^(i_1) ^ ... ^ e^(i_n)`` is the wedge of the
    one-forms ``e^(i_r) + t sum_j P[i_r][j] e^j``; the coefficient on ``e^J``
    is ``det((Id + tP)[idx, J])``.
    """
    n = len(idx)
    terms: dict[tuple[int, ...], list] = {(): [1] + [0] * n}
    for r in idx:
        factor = [(r, 0, 1)] + [(j, 1, c) for j, c in enumerate(p.rows[r]) if c]
        wedged: dict[tuple[int, ...], list] = {}
        for key, poly in terms.items():
            for j, shift, c in factor:
                if j in key:
                    continue
                pos = bisect_left(key, j)
                coeff = -c if (len(key) - pos) % 2 else c
                image = [(k + shift, coeff * poly[k]) for k in range(n + 1 - shift) if poly[k]]
                _accumulate(wedged, key[:pos] + (j,) + key[pos:], 1, image, n + 1)
        terms = wedged
    return terms


class _Operators:
    """What the operator and cone differentials need besides the cochain:
    the module, ``P``, ``P_M``, the deformed module and the powers of
    ``-P_M``. The last two are built on first use and kept only as long as
    this object, which a complex owns for its own lifetime."""

    def __init__(self, nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation) -> None:
        self.rep = nrep.representation
        self.p = nja.operator
        self.p_m = nrep.operator
        self._deformed: Representation | None = None
        self._neg_pm = [Endomorphism.identity(self.p_m.dim)]

    def deformed(self) -> Representation:
        if self._deformed is None:
            self._deformed = deformed_representation(self.rep, self.p, self.p_m)
        return self._deformed

    def neg_pm_powers(self, n: int) -> list[Endomorphism]:
        """``[(-P_M)^0, ..., (-P_M)^n]`` (possibly longer)."""
        if len(self._neg_pm) <= n:
            neg = self.p_m.scale(-1)
            while len(self._neg_pm) <= n:
                self._neg_pm.append(self._neg_pm[-1].compose(neg))
        return self._neg_pm

    def delta_njo(self, f: Cochain) -> Cochain:
        return delta_lie(self.deformed(), f).sub(delta_lie(self.rep, f).map_values(self.p_m))

    def psi(self, f: Cochain) -> Cochain:
        if f.source_dim != self.p.dim or f.target_dim != self.p_m.dim:
            raise ValueError("cochain does not match the module")
        n = f.degree
        powers = self.neg_pm_powers(n)
        out: dict[tuple[int, ...], list] = {}
        for idx, vec in f.values.items():
            images = [
                [(s, v) for s, v in enumerate(powers[n - k].apply(vec)) if v]
                for k in range(n + 1)
            ]
            for key, poly in _pullback_wedge(self.p, idx).items():
                for k, c in enumerate(poly):
                    if c:
                        _accumulate(out, key, c, images[k], f.target_dim)
        return Cochain._trusted(n, f.source_dim, f.target_dim, out)

    def delta_njl(self, pair: PairCochain) -> PairCochain:
        njo_out = self.psi(pair.lie_part).scale(-1)
        if pair.njo_part is not None:
            njo_out = njo_out.sub(self.delta_njo(pair.njo_part))
        return PairCochain(pair.degree + 1, delta_lie(self.rep, pair.lie_part), njo_out)


def delta_njo(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, f: Cochain
) -> Cochain:
    """Differential of the operator complex.

    Implemented by delegation: the Chevalley-Eilenberg differential of the
    *deformed* algebra acting through ``P`` on the module, corrected by
    ``-P_M`` composed with the plain differential.
    """
    return _Operators(nja, nrep).delta_njo(f)


def psi(nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, f: Cochain) -> Cochain:
    """The comparison chain map from the Lie complex to the operator complex.

    Degree 0 is the identity. In degree ``n`` it is the product
    ``psi_n = prod_i (P in slot i - P_M on the output)``, that is
    ``sum_{k} sum_{i_1<...<i_k} (-P_M)^(n-k) f(..., P(a_i), ...)``. Collected
    by ``k``, the coefficient of ``(-P_M)^(n-k)`` from ``e^I`` to ``e^J`` is
    ``[t^k] det((Id + tP)[I, J])``, read off the pullback of ``e^I`` along
    ``Id + tP``; the work follows the nonzero entries of ``P`` instead of the
    ``2^n`` argument subsets.
    """
    return _Operators(nja, nrep).psi(f)


def delta_njl(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, pair: PairCochain
) -> PairCochain:
    """Cone differential ``(f, g) -> (delta_lie f, -psi f - delta_njo g)``."""
    return _Operators(nja, nrep).delta_njl(pair)


@dataclass
class BettiReport:
    complex: str
    max_degree: int
    dims: list[int]
    ranks: list[int]
    betti: list[int]

    def to_dict(self) -> dict:
        return {
            "complex": self.complex,
            "max_degree": self.max_degree,
            "dims": self.dims,
            "ranks": self.ranks,
            "betti": self.betti,
        }


_COMPLEXES = ("ce", "njo", "njl")


def _lie_keys(degree: int, source_dim: int, target_dim: int) -> list[tuple]:
    return [
        (idx, t)
        for idx in combinations(range(source_dim), degree)
        for t in range(target_dim)
    ]


def _pair_keys(degree: int, source_dim: int, target_dim: int) -> list[tuple]:
    keys = [("lie", idx, t) for idx, t in _lie_keys(degree, source_dim, target_dim)]
    if degree >= 1:
        keys += [
            ("njo", idx, t) for idx, t in _lie_keys(degree - 1, source_dim, target_dim)
        ]
    return keys


def _basis_cochain(degree: int, sdim: int, tdim: int, key: tuple) -> Cochain:
    idx, t = key
    value = tuple(Fraction(1) if s == t else Fraction(0) for s in range(tdim))
    return Cochain._trusted(degree, sdim, tdim, {idx: value})


def _basis_pair(degree: int, sdim: int, tdim: int, key: tuple) -> PairCochain:
    tag, idx, t = key
    lie = Cochain.zero(degree, sdim, tdim)
    njo = None if degree == 0 else Cochain.zero(degree - 1, sdim, tdim)
    if tag == "lie":
        lie = _basis_cochain(degree, sdim, tdim, (idx, t))
    else:
        njo = _basis_cochain(degree - 1, sdim, tdim, (idx, t))
    return PairCochain(degree, lie, njo)


def _cochain_coords(
    f: Cochain, pos: dict[tuple, int], tag: tuple = ()
) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for idx, vec in f.values.items():
        for t, c in enumerate(vec):
            if c:
                out[pos[tag + (idx, t)]] = c
    return out


def _pair_coords(pair: PairCochain, pos: dict[tuple, int]) -> dict[int, Fraction]:
    out = _cochain_coords(pair.lie_part, pos, ("lie",))
    if pair.njo_part is not None:
        out.update(_cochain_coords(pair.njo_part, pos, ("njo",)))
    return out


class _Complex:
    """Uniform matrix view of one of the three complexes.

    The operators its differentials need (the deformed module, the powers
    of ``-P_M``) are built once, on first use, and live as long as it does.
    """

    def __init__(
        self, nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, which: str
    ) -> None:
        if which not in _COMPLEXES:
            raise ValueError(f"unknown complex {which!r}; pick one of {_COMPLEXES}")
        self.which = which
        self.sdim = nja.algebra.dim
        self.tdim = nrep.representation.dim
        self.ops = _Operators(nja, nrep)
        self._keys: dict[int, list[tuple]] = {}
        self._positions: dict[int, dict[tuple, int]] = {}
        self._matrices: dict[int, SparseMatrix] = {}

    def keys(self, degree: int) -> list[tuple]:
        if degree not in self._keys:
            if self.which == "njl":
                self._keys[degree] = _pair_keys(degree, self.sdim, self.tdim)
            else:
                self._keys[degree] = _lie_keys(degree, self.sdim, self.tdim)
        return self._keys[degree]

    def positions(self, degree: int) -> dict[tuple, int]:
        """Row index of every key of degree ``degree``."""
        if degree not in self._positions:
            self._positions[degree] = {key: r for r, key in enumerate(self.keys(degree))}
        return self._positions[degree]

    def dim(self, degree: int) -> int:
        return len(self.keys(degree))

    def _column(self, degree: int, key: tuple) -> dict[int, Fraction]:
        pos = self.positions(degree + 1)
        if self.which == "njl":
            image = self.ops.delta_njl(_basis_pair(degree, self.sdim, self.tdim, key))
            return _pair_coords(image, pos)
        f = _basis_cochain(degree, self.sdim, self.tdim, key)
        if self.which == "ce":
            return _cochain_coords(delta_lie(self.ops.rep, f), pos)
        return _cochain_coords(self.ops.delta_njo(f), pos)

    def differential_matrix(self, degree: int) -> SparseMatrix:
        """Matrix of the differential from degree ``degree`` to ``degree + 1``."""
        if degree in self._matrices:
            return self._matrices[degree]
        m = SparseMatrix(self.dim(degree + 1), self.dim(degree))
        for col, key in enumerate(self.keys(degree)):
            for row, value in self._column(degree, key).items():
                m.set(row, col, value)
        self._matrices[degree] = m
        return m


def betti(
    nja: NijenhuisLieAlgebra,
    nrep: NijenhuisRepresentation,
    which: str,
    max_degree: int,
) -> BettiReport:
    """Exact Betti numbers of the chosen complex for degrees ``0..max_degree``.

    ``b_n = dim C^n - rank d_n - rank d_{n-1}``; every rank is computed by
    fraction-free elimination, so the result is exact. Degrees beyond the
    top of the complex simply come out zero.
    """
    cx = _Complex(nja, nrep, which)
    dims = [cx.dim(n) for n in range(max_degree + 1)]
    ranks = [cx.differential_matrix(n).rank() for n in range(max_degree + 1)]
    numbers = []
    for n in range(max_degree + 1):
        below = ranks[n - 1] if n >= 1 else 0
        numbers.append(dims[n] - ranks[n] - below)
    return BettiReport(which, max_degree, dims, ranks, numbers)


@dataclass
class LESReport:
    """Exactness record for the long sequence linking the three complexes."""

    max_degree: int
    nodes: list[dict]
    ok: bool

    def to_dict(self) -> dict:
        return {"max_degree": self.max_degree, "ok": self.ok, "nodes": self.nodes}


def _columns_matrix(nrows: int, cols: list[dict[int, Fraction]]) -> SparseMatrix:
    m = SparseMatrix(nrows, len(cols))
    for j, col in enumerate(cols):
        for i, v in col.items():
            m.set(i, j, v)
    return m


def _matrix_columns(m: SparseMatrix) -> list[dict[int, Fraction]]:
    cols: list[dict[int, Fraction]] = [dict() for _ in range(m.ncols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v
    return cols


def _rank_with(base: list[dict[int, Fraction]], extra: list[dict[int, Fraction]], nrows: int) -> int:
    return _columns_matrix(nrows, base + extra).rank()


def les_verify(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, max_degree: int
) -> LESReport:
    """Check exactness of the long cohomology sequence at every node with
    degree at most ``max_degree``.

    The sequence repeats ``cone^p -> lie^p -> njo^p -> cone^(p+1)`` with the
    projection, the comparison map, and the inclusion (each a chain map up
    to sign, which does not affect exactness). All checks are exact rank
    computations on cocycle representatives.
    """
    ce = _Complex(nja, nrep, "ce")
    njo = _Complex(nja, nrep, "njo")
    njl = _Complex(nja, nrep, "njl")
    sdim, tdim = ce.sdim, ce.tdim

    def cocycles(cx: _Complex, degree: int) -> list[dict[int, Fraction]]:
        m = cx.differential_matrix(degree)
        out = []
        for vec in m.kernel_basis():
            out.append({i: c for i, c in enumerate(vec) if c})
        return out

    def boundaries(cx: _Complex, degree: int) -> list[dict[int, Fraction]]:
        if degree == 0:
            return []
        return _matrix_columns(cx.differential_matrix(degree - 1))

    # Rank of the boundary space of each (complex, degree), ranked once.
    boundary_ranks: dict[tuple[str, int], int] = {}

    def boundary_rank(cx: _Complex, degree: int) -> int:
        key = (cx.which, degree)
        if key not in boundary_ranks:
            boundary_ranks[key] = cx.differential_matrix(degree - 1).rank() if degree else 0
        return boundary_ranks[key]

    def proj_map(degree: int, col: dict[int, Fraction]) -> dict[int, Fraction]:
        pair_keys = njl.keys(degree)
        pos = ce.positions(degree)
        out: dict[int, Fraction] = {}
        for i, v in col.items():
            tag, idx, t = pair_keys[i]
            if tag == "lie":
                out[pos[(idx, t)]] = v
        return out

    def incl_map(degree: int, col: dict[int, Fraction]) -> dict[int, Fraction]:
        # njo^p -> cone^(p+1)
        njo_keys = njo.keys(degree)
        pos = njl.positions(degree + 1)
        return {pos[("njo",) + njo_keys[i]]: v for i, v in col.items()}

    def psi_map(degree: int, col: dict[int, Fraction]) -> dict[int, Fraction]:
        lie_keys = ce.keys(degree)
        values: dict[tuple[int, ...], list] = {}
        for i, v in col.items():
            idx, t = lie_keys[i]
            values.setdefault(idx, [_ZERO] * tdim)[t] = v
        f = Cochain(degree, sdim, tdim, values)
        return _cochain_coords(njo.ops.psi(f), njo.positions(degree))

    nodes = []
    ok = True
    for p in range(max_degree + 1):
        z_njl = cocycles(njl, p)
        z_lie = cocycles(ce, p)
        z_njo = cocycles(njo, p)
        z_njo_prev = cocycles(njo, p - 1) if p >= 1 else []

        # (name, here-complex, here-degree, here-cocycles, incoming images,
        #  outgoing map, next-complex, next-degree)
        checks = [
            (
                f"cone^{p}",
                njl,
                p,
                z_njl,
                [incl_map(p - 1, c) for c in z_njo_prev],
                lambda col, p=p: proj_map(p, col),
                ce,
                p,
            ),
            (
                f"lie^{p}",
                ce,
                p,
                z_lie,
                [proj_map(p, c) for c in z_njl],
                lambda col, p=p: psi_map(p, col),
                njo,
                p,
            ),
            (
                f"njo^{p}",
                njo,
                p,
                z_njo,
                [psi_map(p, c) for c in z_lie],
                lambda col, p=p: incl_map(p, col),
                njl,
                p + 1,
            ),
        ]
        for name, here, hp, here_z, in_cols, out_fn, nxt, np_ in checks:
            here_dim, here_b = here.dim(hp), boundaries(here, hp)
            next_dim, next_b = nxt.dim(np_), boundaries(nxt, np_)
            here_rank, next_rank = boundary_rank(here, hp), boundary_rank(nxt, np_)
            dim_h = len(here_z) - here_rank
            rank_in = _rank_with(here_b, in_cols, here_dim) - here_rank
            out_cols = [out_fn(z) for z in here_z]
            rank_out = _rank_with(next_b, out_cols, next_dim) - next_rank
            comp_cols = [out_fn(c) for c in in_cols]
            comp_zero = _rank_with(next_b, comp_cols, next_dim) == next_rank
            exact = comp_zero and (rank_in + rank_out == dim_h)
            ok = ok and exact
            nodes.append(
                {
                    "node": name,
                    "dim_h": dim_h,
                    "rank_in": rank_in,
                    "rank_out": rank_out,
                    "composition_zero": comp_zero,
                    "exact": exact,
                }
            )
    return LESReport(max_degree, nodes, ok)
