"""Cochain complexes attached to a Lie algebra with a Nijenhuis operator:
the Chevalley-Eilenberg complex of the algebra, the complex of the operator,
and their mapping cone, together with exact Betti numbers and long-exact-
sequence verification.

Cochains of degree ``n`` are alternating ``n``-linear maps into the module,
stored on strictly increasing basis tuples; degree-0 cochains are single
module vectors (stored under the empty tuple).

Every differential is assembled from nonzero entries only (cochain values,
structure constants, action and operator entries). The matrices, ranks,
Betti numbers and cocycles come from ``exact.LinearComplex``: ``ce`` and
``njo`` are assembled column by column, and ``njl`` is the mapping cone of
``psi``, copied from their blocks and one ``psi`` matrix per degree. The
three share one ``_Operators``, so the deformed module and the powers of
``-P_M`` are built once, on first use, and dropped with the complexes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .exact import LinearComplex, MappingCone, _sort_indices
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

    def evaluate(self, indices: Sequence[int]) -> Vector:
        """Value on arbitrary basis indices, using antisymmetry."""
        idx = tuple(indices)
        if len(idx) != self.degree:
            raise ValueError("wrong number of arguments")
        ordered = _sort_indices(idx)
        base = None if ordered is None else self.values.get(ordered[1])
        if base is None:
            return zero_vector(self.target_dim)
        return vec_scale(ordered[0], base)

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
    """What the operator differential and ``psi`` need besides the cochain:
    the module, ``P``, ``P_M``, the deformed module and the powers of
    ``-P_M``. The last two are built on first use and kept only as long as
    this object, which the columns of the three complexes of one pair share
    for their lifetime."""

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

    @classmethod
    def of(cls, name: str, cx: LinearComplex, max_degree: int) -> "BettiReport":
        """Dimensions, ranks and Betti numbers of ``cx`` in degrees ``0..max_degree``."""
        numbers = cx.betti(max_degree)
        degrees = range(max_degree + 1)
        dims, ranks = [cx.dim(n) for n in degrees], [cx.rank(n) for n in degrees]
        return cls(name, max_degree, dims, ranks, numbers)

    def to_dict(self) -> dict:
        return {
            "complex": self.complex,
            "max_degree": self.max_degree,
            "dims": self.dims,
            "ranks": self.ranks,
            "betti": self.betti,
        }


_COMPLEXES = ("ce", "njo", "njl")


def _coords(f: Cochain) -> dict[tuple, Fraction]:
    """``f`` on the basis keys ``(idx, t)`` of ``_complexes``."""
    return {(idx, t): c for idx, vec in f.values.items() for t, c in enumerate(vec) if c}


def _complexes(nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation) -> dict[str, LinearComplex]:
    """The three complexes of the pair, sharing one ``_Operators``.

    A basis key of ``ce`` and ``njo`` in degree ``n`` is ``(idx, t)``: the
    cochain with value ``e_t`` on ``e_idx``. ``njl`` is the mapping cone of
    ``psi: ce -> njo``, keyed ``("lie", idx, t)`` then ``("njo", idx, t)``.
    Its matrices are copied from those of ``ce`` and ``njo`` and from one
    ``psi`` matrix per degree. Nothing is built before it is used, and the
    columns close over local values only, so no reference cycle keeps the
    matrices alive.
    """
    ops = _Operators(nja, nrep)
    rep, sdim, tdim = ops.rep, nja.algebra.dim, ops.rep.dim

    def keys(n: int) -> list[tuple]:
        return [(idx, t) for idx in combinations(range(sdim), n) for t in range(tdim)]

    def basis(n: int, key: tuple) -> Cochain:
        idx, t = key
        value = tuple(Fraction(1) if s == t else _ZERO for s in range(tdim))
        return Cochain._trusted(n, sdim, tdim, {idx: value})

    ce = LinearComplex(keys, lambda n, key: _coords(delta_lie(rep, basis(n, key))))
    njo = LinearComplex(keys, lambda n, key: _coords(ops.delta_njo(basis(n, key))))
    njl = MappingCone(ce, njo, lambda n, key: _coords(ops.psi(basis(n, key))), ("lie", "njo"))
    return {"ce": ce, "njo": njo, "njl": njl}


def betti(
    nja: NijenhuisLieAlgebra,
    nrep: NijenhuisRepresentation,
    which: str,
    max_degree: int,
) -> BettiReport:
    """Exact Betti numbers of the chosen complex for degrees ``0..max_degree``.

    ``b_n = dim C^n - rank d_n - rank d_{n-1}``; every rank is computed by
    fraction-free elimination, so the result is exact. Degrees beyond the
    top of the complex simply come out zero. Raises ``ValueError`` if the
    candidate operators do not make the differential square to zero.
    """
    if which not in _COMPLEXES:
        raise ValueError(f"unknown complex {which!r}; pick one of {_COMPLEXES}")
    return BettiReport.of(which, _complexes(nja, nrep)[which], max_degree)


@dataclass
class LESReport:
    """Exactness record for the long sequence linking the three complexes."""

    max_degree: int
    nodes: list[dict]
    ok: bool

    def to_dict(self) -> dict:
        return {"max_degree": self.max_degree, "ok": self.ok, "nodes": self.nodes}


def les_verify(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, max_degree: int
) -> LESReport:
    """Check exactness of the long cohomology sequence at every node with
    degree at most ``max_degree``.

    The sequence repeats ``cone^p -> lie^p -> njo^p -> cone^(p+1)`` with the
    projection, the comparison map, and the inclusion (each a chain map up
    to sign, which does not affect exactness). All checks are exact rank
    computations on cocycle representatives. Raises ``ValueError`` naming
    the complex and the degree if a differential up to ``max_degree`` does
    not square to zero, where the ranks would have no meaning.
    """
    cx = _complexes(nja, nrep)
    for name, complex_ in cx.items():
        try:
            complex_.check_complex(max_degree)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    ce, njo, njl = cx["ce"], cx["njo"], cx["njl"]

    # The cone's basis in degree p is that of ce^p followed by that of
    # njo^(p-1): the projection keeps the first block and the inclusion
    # shifts into the second.
    def proj(p: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        return {i: v for i, v in vec.items() if i < ce.dim(p)}

    def incl(p: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        return {ce.dim(p + 1) + i: v for i, v in vec.items()}

    def psi_map(p: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        image = njl.chain_matrix(p).apply([vec.get(i, _ZERO) for i in range(ce.dim(p))])
        return {r: v for r, v in enumerate(image) if v}

    nodes = []
    ok = True
    z_njo_prev: list[dict[int, Fraction]] = []
    for p in range(max_degree + 1):
        z_njl, z_lie, z_njo = njl.cocycles(p), ce.cocycles(p), njo.cocycles(p)

        # (name, here-complex, here-degree, here-cocycles, incoming images,
        #  outgoing map, next-complex, next-degree)
        checks = [
            (f"cone^{p}", njl, p, z_njl, [incl(p - 1, z) for z in z_njo_prev], proj, ce, p),
            (f"lie^{p}", ce, p, z_lie, [proj(p, z) for z in z_njl], psi_map, njo, p),
            (f"njo^{p}", njo, p, z_njo, [psi_map(p, z) for z in z_lie], incl, njl, p + 1),
        ]
        for name, here, hp, here_z, in_cols, out_map, nxt, np_ in checks:
            dim_h = len(here_z) - here.rank(hp - 1)
            rank_in = here.class_rank(hp, in_cols)
            rank_out = nxt.class_rank(np_, [out_map(p, z) for z in here_z])
            comp_zero = nxt.class_rank(np_, [out_map(p, c) for c in in_cols]) == 0
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
        z_njo_prev = z_njo
    return LESReport(max_degree, nodes, ok)
