"""Graded symmetric multilinear calculus on a suspended space: shuffle
braces, the induced graded Lie bracket, the homotopy-algebra structure that
packages a bracket-operator pair, Maurer-Cartan residuals, and twisting.

Conventions (fixed once, everything else derives from them)
-----------------------------------------------------------
* The base space ``V`` sits in degree 0 when ungraded; its suspension ``sV``
  shifts every degree up by one. Basis elements are ``(degree, index)``
  pairs *in the suspended grading*.
* A :class:`SuspendedHom` is a graded symmetric map ``(sV)^{arity} -> sV``
  (``sv_valued=True``) or ``-> V`` (``sv_valued=False``). Values are stored
  on weakly increasing argument tuples; tuples repeating an odd-degree
  element are zero. ``total_degree`` is the honest degree of the map.
* Reordering arguments costs the Koszul sign of the argument degrees;
  composites pick up the usual tensor-evaluation signs.
* The brace ``f{g_1, ..., g_n}`` is a sum over input subsets: one term per
  choice of disjoint position sets ``S_1, ..., S_n`` with ``|S_t|`` the arity
  of ``g_t`` and increasing minima. The blocks (each ``S_t``, and each other
  position on its own) are laid out by their minima, and the term carries
  the Koszul sign of that layout and ``(-1)^(|g_t| d)`` for each ``g_t``,
  with ``d`` the degree of the inputs laid out before its block.
* The brace is computed from nonzero entries only. A term is nonzero only
  when each block is a key of its ``g_t`` and the single inputs and one
  component of each value make up a key of ``f``. So only the input words
  merged from such keys are visited; every other word sums to zero. A
  unary ``f`` with one argument is postcomposition and skips the words.
* Everything built from a fixed ``alpha`` is one alpha-expansion,
  ``sum_{i >= 1} (-1)^(k(k-1)/2) / i! * l(alpha, ..., alpha, *tail)`` with
  ``i`` copies of ``alpha`` and ``k = i + len(tail)``
  (``NjlLInfty._alpha_expansion``): the twisted differential is its tail
  ``[x]``, and the curvature that ``mc_residual`` reads is its empty tail.
  An L-infinity algebra is a :class:`MaurerCartanCandidate` with no
  operator components, so its defining identities are the bracket side of
  ``mc_residual``. The brace terms that read only components of
  ``alpha`` are kept in a table (:class:`_AlphaBraces`): one per call, one
  per twisted complex. ``tests/oracles.py`` keeps the hand expansions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial
from typing import Iterator, Mapping, Sequence

from .exact import (
    LinearComplex,
    Permutation,
    chi_sign,
)
from .lie import Endomorphism, LieAlgebra, vector
from .cohomology import Cochain

BasisElement = tuple[int, int]
GradedVector = dict[BasisElement, Fraction]


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional graded vector space: ``dims[d]`` basis vectors in
    degree ``d``. Instances describe the *suspended* space ``sV``."""

    dims: tuple[tuple[int, int], ...]

    @classmethod
    def from_dims(cls, dims: Mapping[int, int]) -> "GradedSpace":
        return cls(tuple(sorted((d, n) for d, n in dims.items() if n > 0)))

    @classmethod
    def suspended_ungraded(cls, dim: int) -> "GradedSpace":
        """The suspension of an ungraded space: everything in degree 1."""
        return cls.from_dims({1: dim})

    def dim(self, degree: int) -> int:
        for d, n in self.dims:
            if d == degree:
                return n
        return 0

    def basis(self) -> list[BasisElement]:
        return [(d, i) for d, n in self.dims for i in range(n)]


def _gv_add(acc: GradedVector, other: GradedVector, coeff: int | Fraction) -> None:
    """Add ``coeff * other`` into ``acc``; a coefficient of ``1`` or ``-1``
    adds or subtracts without a product."""
    if not coeff:
        return
    if coeff == 1 or coeff == -1:
        negate = coeff == -1
        for key, v in other.items():
            old = acc.get(key)
            if old is None:
                acc[key] = -v if negate else v
                continue
            new = old - v if negate else old + v
            if new:
                acc[key] = new
            else:
                del acc[key]
        return
    for key, v in other.items():
        new = acc.get(key, 0) + coeff * v
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def _gv_clean(gv: GradedVector) -> GradedVector:
    return {k: v for k, v in sorted(gv.items()) if v}


def _add_mixed(acc: GradedVector, f: "SuspendedHom", slots: Sequence, coeff: int) -> None:
    """Add ``coeff`` times ``f`` on ``slots`` (basis elements and graded
    vectors, one per argument) into ``acc``, looking each argument word up
    before multiplying coefficients."""
    expanded = [((s, 1),) if isinstance(s, tuple) else tuple(s.items()) for s in slots]
    for combo in product(*expanded):
        canon = f._canonicalize(tuple(el for el, _ in combo))
        if canon is None:
            continue
        key, sign = canon
        base = f.values.get(key)
        if not base:
            continue
        c = coeff * sign
        for _, v in combo:
            c *= v
        _gv_add(acc, base, c)


def canonical_tuples(space: GradedSpace, length: int) -> Iterator[tuple[BasisElement, ...]]:
    """Weakly increasing basis tuples with no repeated odd-degree element."""
    return _canonical_words(space.basis(), length)


def _canonical_words(
    elements: Sequence[BasisElement], length: int
) -> Iterator[tuple[BasisElement, ...]]:
    for tup in combinations_with_replacement(elements, length):
        if not _repeats_odd(tup):
            yield tup


def _repeats_odd(word: Sequence[BasisElement]) -> bool:
    """Whether a sorted word repeats an odd-degree element; graded symmetric
    maps vanish on it."""
    for t in range(len(word) - 1):
        if word[t] == word[t + 1] and word[t][0] % 2:
            return True
    return False


@dataclass(frozen=True)
class SuspendedHom:
    """A homogeneous graded symmetric map out of powers of the suspended
    space, either suspended-valued or plain-valued.

    Output vectors are keyed by suspended basis elements in both cases; for
    a plain-valued map the actual output degree is one lower than the key's.
    """

    space: GradedSpace
    arity: int
    total_degree: int
    sv_valued: bool
    values: Mapping[tuple[BasisElement, ...], GradedVector]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        clean: dict[tuple[BasisElement, ...], GradedVector] = {}
        shift = 0 if self.sv_valued else 1
        for args, gv in self.values.items():
            args = tuple(args)
            if len(args) != self.arity:
                raise ValueError("argument tuple has wrong length")
            for t in range(len(args) - 1):
                if args[t] > args[t + 1]:
                    raise ValueError(f"argument tuple {args} not canonical")
                if args[t] == args[t + 1] and args[t][0] % 2:
                    raise ValueError(f"odd element repeats in {args}")
            in_total = sum(d for d, _ in args)
            out: GradedVector = {}
            for (d, i), v in gv.items():
                if i >= self.space.dim(d):
                    raise ValueError(f"output ({d}, {i}) outside the space")
                if d - shift != self.total_degree + in_total:
                    raise ValueError(
                        f"output degree {d} inhomogeneous for map degree "
                        f"{self.total_degree} on {args}"
                    )
                if v:
                    out[(d, i)] = Fraction(v)
            if out:
                clean[args] = _gv_clean(out)
        object.__setattr__(self, "values", clean)

    @classmethod
    def _trusted(
        cls,
        space: GradedSpace,
        arity: int,
        total_degree: int,
        sv_valued: bool,
        values: Mapping[tuple[BasisElement, ...], GradedVector],
    ) -> "SuspendedHom":
        """Keep the nonzero ``values``, cleaned; no key or degree check, no
        conversion.

        Only for results of internal operations: every key a canonical
        ``arity``-tuple, every output inside the space and of the degree
        the map's degree gives, every coefficient a ``Fraction``.
        """
        clean = {}
        for args, gv in values.items():
            gv = _gv_clean(gv)
            if gv:
                clean[args] = gv
        hom = object.__new__(cls)
        hom.__dict__.update(
            space=space,
            arity=arity,
            total_degree=total_degree,
            sv_valued=sv_valued,
            values=clean,
        )
        return hom

    @classmethod
    def zero(
        cls, space: GradedSpace, arity: int, total_degree: int, sv_valued: bool
    ) -> "SuspendedHom":
        return cls._trusted(space, arity, total_degree, sv_valued, {})

    def is_zero(self) -> bool:
        return not self.values

    def _canonicalize(
        self, args: tuple[BasisElement, ...]
    ) -> tuple[tuple[BasisElement, ...], int] | None:
        seq = list(args)
        sign = 1
        for end in range(len(seq), 1, -1):
            for t in range(end - 1):
                if seq[t] > seq[t + 1]:
                    if (seq[t][0] * seq[t + 1][0]) % 2:
                        sign = -sign
                    seq[t], seq[t + 1] = seq[t + 1], seq[t]
        if _repeats_odd(seq):
            return None
        return tuple(seq), sign

    def evaluate(self, args: Sequence[BasisElement]) -> GradedVector:
        """Evaluate on basis elements: :meth:`evaluate_mixed` with every
        slot a basis element."""
        return self.evaluate_mixed(tuple(args))

    def evaluate_mixed(self, slots: Sequence) -> GradedVector:
        """Evaluate on a mix of basis elements and graded vectors, through
        :func:`_add_mixed` like every evaluation inside the brace."""
        if len(slots) != self.arity:
            raise ValueError("wrong number of arguments")
        out: GradedVector = {}
        _add_mixed(out, self, slots, 1)
        return _gv_clean(out)

    def add(self, other: "SuspendedHom") -> "SuspendedHom":
        self._check_compatible(other)
        values = {k: dict(v) for k, v in self.values.items()}
        for key, gv in other.values.items():
            acc = values.setdefault(key, {})
            _gv_add(acc, gv, 1)
        return SuspendedHom._trusted(
            self.space, self.arity, self.total_degree, self.sv_valued, values
        )

    def sub(self, other: "SuspendedHom") -> "SuspendedHom":
        return self.add(other.scale(-1))

    def scale(self, c) -> "SuspendedHom":
        c = Fraction(c)
        return SuspendedHom._trusted(
            self.space,
            self.arity,
            self.total_degree,
            self.sv_valued,
            {k: {e: c * v for e, v in gv.items()} for k, gv in self.values.items()},
        )

    def suspend_output(self) -> "SuspendedHom":
        """Postcompose with the suspension; only the degree bookkeeping moves."""
        if self.sv_valued:
            raise ValueError("already suspended-valued")
        return SuspendedHom._trusted(
            self.space, self.arity, self.total_degree + 1, True, self.values
        )

    def _check_compatible(self, other: "SuspendedHom") -> None:
        if (
            self.space != other.space
            or self.arity != other.arity
            or self.total_degree != other.total_degree
            or self.sv_valued != other.sv_valued
        ):
            raise ValueError("incompatible homs")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuspendedHom):
            return NotImplemented
        self._check_compatible(other)
        return {k: _gv_clean(v) for k, v in self.values.items()} == {
            k: _gv_clean(v) for k, v in other.values.items()
        }

    __hash__ = None  # type: ignore[assignment]


def to_suspended(f: Cochain) -> SuspendedHom:
    """Identify an alternating cochain on an ungraded space with a graded
    symmetric suspended-valued map on the suspension. Basis values carry
    over verbatim, into suspended values of degree ``1 - f.degree``; all
    signs live in the evaluation rules."""
    if f.source_dim != f.target_dim:
        raise ValueError("suspension identification needs source == target")
    space = GradedSpace.suspended_ungraded(f.source_dim)
    values = {
        tuple((1, i) for i in key): {(1, j): v for j, v in enumerate(vec) if v}
        for key, vec in f.values.items()
    }
    return SuspendedHom(space, f.degree, 1 - f.degree, True, values)


def _insertions(
    x: tuple[BasisElement, ...],
    gs: Sequence[SuspendedHom],
    singles: int,
    read: set[BasisElement],
) -> Iterator[tuple[list, int]]:
    """Yield ``(slots, sign)`` for each routing of the inputs ``x`` that
    :func:`shuffle_brace` sums over, skipping those that hand the outer map
    a single input outside ``read`` or an inserted value with no component
    in ``read``: the outer map vanishes on them.

    :func:`shuffle_brace` calls it only on the words that
    :func:`_reachable_words` builds.

    Positions are laid out from the left: each free position either stays
    a single input or opens the next block, which takes the rest of its
    positions from the free ones to its right.
    """
    walk = (x, gs, read, [d % 2 for d, _ in x], [True] * len(x), [])
    return _place(walk, 0, 0, singles, 1, 0)


def _place(
    walk: tuple, pos: int, t: int, singles_left: int, sign: int, before: int
) -> Iterator[tuple[list, int]]:
    """The routings of :func:`_insertions` that complete the slots laid out
    so far, from position ``pos`` and block ``t`` on, with ``before`` the
    degree laid out so far. ``walk`` is the state of one call of
    :func:`_insertions`: the word, the inserted maps, ``read``, the parity
    of each input, which positions are still free, and the slots; the last
    two are restored before it returns."""
    x, gs, read, odd, free, slots = walk
    size = len(x)
    while pos < size and not free[pos]:
        pos += 1
    if pos == size:
        # Every position is used, so all blocks and singles are placed.
        yield list(slots), sign
        return
    free[pos] = False
    if singles_left and x[pos] in read:
        slots.append(x[pos])
        yield from _place(walk, pos + 1, t, singles_left - 1, sign, before + x[pos][0])
        slots.pop()
    if t < len(gs):
        g = gs[t]
        if (g.total_degree * before) % 2:
            sign = -sign
        later = [q for q in range(pos + 1, size) if free[q]]
        for rest in combinations(later, g.arity - 1):
            # A subsequence of a canonical tuple is canonical.
            value = g.values.get((x[pos],) + tuple(x[q] for q in rest))
            if value is None or read.isdisjoint(value):
                continue
            # Laying the block out moves each of its later inputs past
            # the free inputs between the block's first position and it.
            crossed = 0
            for j, q in enumerate(rest):
                if odd[q]:
                    crossed += sum(odd[r] for r in range(pos + 1, q) if free[r])
                    crossed -= sum(odd[r] for r in rest[:j])
            block_degree = x[pos][0]
            for q in rest:
                free[q] = False
                block_degree += x[q][0]
            slots.append(value)
            block_sign = -sign if crossed % 2 else sign
            yield from _place(
                walk, pos + 1, t + 1, singles_left, block_sign, before + block_degree
            )
            slots.pop()
            for q in rest:
                free[q] = True
    free[pos] = True


def shuffle_brace(sf: SuspendedHom, args: Sequence[SuspendedHom]) -> SuspendedHom:
    """Insert ``args = (g_1, ..., g_n)`` into ``sf`` as a sum over input subsets.

    On canonical inputs ``x_1, ..., x_N`` there is one term for each choice
    of disjoint position sets ``S_1, ..., S_n`` with ``|S_t|`` the arity of
    ``g_t`` and increasing minima; the other positions are single inputs.
    The blocks are laid out by their minima and ``sf`` reads, in that
    order, each single input and each value ``g_t(x_{S_t})``. The term's
    sign is the Koszul sign of that layout times ``(-1)^(|g_t| d)`` for each
    ``g_t``, with ``d`` the degree of the inputs laid out before its block.
    These are the terms of the local shuffles of the block sizes.

    Only the words :func:`_reachable_words` builds from nonzero entries are
    visited, in lexicographic order. The skip is exact: on any other word,
    every routing either inserts a zero value or hands ``sf`` arguments on
    which it vanishes. Each routing's values go straight into the word's
    accumulator, with its sign folded into the coefficient.

    A unary ``sf`` (one input, one argument) is postcomposition,
    ``sf{g}(x) = sum_e g(x)[e] sf(e)`` with sign +1, and is computed as
    such, without building words or routings.

    Arguments must be suspended-valued; the result keeps ``sf``'s output
    flavor. ``sf{}`` is ``sf`` itself; more arguments than ``sf`` has inputs
    is an arity overflow.
    """
    gs = list(args)
    if not gs:
        return sf
    if any(not g.sv_valued for g in gs):
        raise ValueError("brace arguments must be suspended-valued")
    if any(g.space != sf.space for g in gs):
        raise ValueError("space mismatch")
    space = sf.space
    m, n = sf.arity, len(gs)
    if n > m:
        raise ValueError(f"cannot insert {n} arguments into an arity-{m} map")
    out_arity = m - n + sum(g.arity for g in gs)
    out_degree = sf.total_degree + sum(g.total_degree for g in gs)
    result_values: dict[tuple[BasisElement, ...], GradedVector] = {}
    if sf.is_zero() or any(g.is_zero() for g in gs):
        return SuspendedHom.zero(space, out_arity, out_degree, sf.sv_valued)
    if m == 1:
        # Postcomposition: the one routing hands the whole word to g, with
        # sign +1.
        g = gs[0]
        for x in sorted(g.values):
            acc: GradedVector = {}
            for e, v in g.values[x].items():
                image = sf.values.get((e,))
                if image:
                    _gv_add(acc, image, v)
            if acc:
                result_values[x] = acc
        return SuspendedHom._trusted(space, out_arity, out_degree, sf.sv_valued, result_values)
    read = {e for key in sf.values for e in key}
    for x in _reachable_words(sf, gs, read):
        acc: GradedVector = {}
        for slots, sign in _insertions(x, gs, m - n, read):
            _add_mixed(acc, sf, slots, sign)
        if acc:
            result_values[x] = acc
    return SuspendedHom._trusted(space, out_arity, out_degree, sf.sv_valued, result_values)


def _reachable_words(
    sf: SuspendedHom, gs: Sequence[SuspendedHom], read: set[BasisElement]
) -> list[tuple[BasisElement, ...]]:
    """Every canonical input word of ``sf{gs}`` with a nonzero value, and
    few others, in lexicographic order.

    A routing contributes only when each block is a key of its ``g_t``
    whose value has a component in ``read``, and the ``m - n`` single
    inputs together with one component of each value make up a key of
    ``sf``. Such a word is therefore the sorted merge of one such key of
    each ``g_t`` with a sub-multiset of a key of ``sf``. Partial merges are
    kept as a set, and a repeated odd element drops a merge at once, since
    it stays repeated in every longer one.
    """
    singles = sf.arity - len(gs)
    words = {sub for key in sf.values for sub in combinations(key, singles)}
    for g in gs:
        keys = [key for key, gv in g.values.items() if not read.isdisjoint(gv)]
        merged = set()
        for word in words:
            for key in keys:
                x = tuple(sorted(word + key))
                if not _repeats_odd(x):
                    merged.add(x)
        words = merged
    return sorted(words)


def rn_bracket(a: SuspendedHom, b: SuspendedHom) -> SuspendedHom:
    """Graded Lie bracket built from single-argument braces:
    ``[a, b] = a{b} - (-1)^{|a||b|} b{a}`` with the total map degrees, and
    ``[a, a] = (1 - (-1)^{|a|}) a{a}``: one brace for odd ``|a|``, none for
    even ``|a|``, where it is zero."""
    if not (a.sv_valued and b.sv_valued):
        raise ValueError("the bracket lives on suspended-valued maps")
    if a is b:
        if a.total_degree % 2:
            return shuffle_brace(a, [a]).scale(2)
        return SuspendedHom.zero(a.space, 2 * a.arity - 1, 2 * a.total_degree, True)
    sign = -1 if (a.total_degree * b.total_degree) % 2 else 1
    first = shuffle_brace(a, [b])
    second = shuffle_brace(b, [a])
    return first.sub(second.scale(sign))


def nu_from_algebra(algebra: LieAlgebra) -> SuspendedHom:
    """The degree ``-1`` binary element encoding the Lie bracket."""
    values = {}
    for (i, j), vec in algebra.brackets.items():
        values[(i, j)] = tuple(vec)
    mu = Cochain(2, algebra.dim, algebra.dim, values)
    return to_suspended(mu)


def tau_from_operator(p: Endomorphism) -> SuspendedHom:
    """The degree ``-1`` unary plain-valued element encoding an operator."""
    space = GradedSpace.suspended_ungraded(p.dim)
    values = {}
    for i in range(p.dim):
        col = p.apply(vector([1 if t == i else 0 for t in range(p.dim)]))
        gv = {(1, j): v for j, v in enumerate(col) if v}
        if gv:
            values[((1, i),)] = gv
    return SuspendedHom(space, 1, -1, False, values)


@dataclass
class CNjLElement:
    """A formal sum of homogeneous components of the two-sided space:
    suspended-valued components (``lie``) and plain-valued ones (``njo``)."""

    lie: list[SuspendedHom] = field(default_factory=list)
    njo: list[SuspendedHom] = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(not h.sv_valued for h in self.lie):
            raise ValueError("lie components must be suspended-valued")
        if any(h.sv_valued for h in self.njo):
            raise ValueError("njo components must be plain-valued")
        self.lie = [h for h in self.lie if not h.is_zero()]
        self.njo = [h for h in self.njo if not h.is_zero()]

    def tagged(self) -> list[tuple[str, SuspendedHom]]:
        return [("lie", h) for h in self.lie] + [("njo", h) for h in self.njo]

    def add(self, other: "CNjLElement") -> "CNjLElement":
        return CNjLElement(self.lie + other.lie, self.njo + other.njo)

    def scale(self, c) -> "CNjLElement":
        return CNjLElement(
            [h.scale(c) for h in self.lie], [h.scale(c) for h in self.njo]
        )

    def collect(self) -> tuple[dict[int, SuspendedHom], dict[int, SuspendedHom]]:
        """Sum components of equal arity (per side)."""
        lie: dict[int, SuspendedHom] = {}
        njo: dict[int, SuspendedHom] = {}
        for h in self.lie:
            lie[h.arity] = lie[h.arity].add(h) if h.arity in lie else h
        for h in self.njo:
            njo[h.arity] = njo[h.arity].add(h) if h.arity in njo else h
        return (
            {a: h for a, h in lie.items() if not h.is_zero()},
            {a: h for a, h in njo.items() if not h.is_zero()},
        )

    def is_zero(self) -> bool:
        lie, njo = self.collect()
        return not lie and not njo


@dataclass(frozen=True)
class NjlLInfty:
    """The homotopy Lie structure on pairs (bracket side, operator side).

    Only two families of components are nonzero: the binary bracket of two
    suspended-valued elements, and the mixed component taking one
    suspended-valued element of arity ``n`` together with ``n`` plain-valued
    elements.
    """

    space: GradedSpace

    def _term(
        self, tagged: Sequence[tuple[str, SuspendedHom]]
    ) -> tuple[int, str, SuspendedHom, tuple[SuspendedHom, ...]] | None:
        """``(sign, kind, head, rest)`` with :meth:`l` on the one-component
        elements ``tagged`` equal to ``sign`` times the bracket of ``head``
        and ``rest[0]`` (kind ``"lie"``) or the mixed component on ``head``
        and ``rest`` (kind ``"njo"``); ``None`` when the component is zero."""
        n_args = len(tagged)
        if n_args < 2:
            return None
        lie = [k for k, (t, _) in enumerate(tagged) if t == "lie"]
        if len(lie) == 2 and n_args == 2:
            return 1, "lie", tagged[0][1], (tagged[1][1],)
        if len(lie) != 1 or tagged[lie[0]][1].arity != n_args - 1:
            return None
        k = lie[0]
        sh = tagged[k][1]
        gs = tuple(h for t, h in tagged if t == "njo")
        # Move the suspended-valued argument to the front.
        front = (sh.total_degree * sum(g.total_degree for g in gs[:k]) + k) % 2
        return -1 if front else 1, "njo", sh, gs

    def _evaluate(
        self, kind: str, head: SuspendedHom, rest: tuple[SuspendedHom, ...], table: "_AlphaBraces"
    ) -> SuspendedHom:
        if kind == "lie":
            return rn_bracket(head, rest[0])
        return self._l_lie_first(head, list(rest), table)

    def _l_lie_first(
        self, sh: SuspendedHom, gs: list[SuspendedHom], table: "_AlphaBraces"
    ) -> SuspendedHom:
        n = len(gs)
        degrees = [g.total_degree for g in gs]
        out_arity = sum(g.arity for g in gs)
        out_degree = sh.total_degree - 1 + sum(d + 1 for d in degrees)
        values: dict[tuple[BasisElement, ...], GradedVector] = {}
        # Permutations that put the same objects in the same places give the
        # same nested brace: add up their signs and build each one once. An
        # order names each object by its first position in gs.
        first = [next(k for k in range(t + 1) if gs[k] is g) for t, g in enumerate(gs)]
        signs: dict[tuple[int, tuple[int, ...]], int] = {}
        for images in permutations(range(1, n + 1)):
            chi = chi_sign(Permutation(images), degrees)
            eta = n * sh.total_degree
            for p in range(1, n):
                for j in range(p):
                    eta += degrees[images[j] - 1]
            order = tuple(first[i - 1] for i in images)
            for cut in range(n + 1):
                xi = sh.total_degree * sum(
                    degrees[images[i] - 1] + 1 for i in range(cut)
                ) + cut
                sign = chi * (-1 if (eta + xi) % 2 else 1)
                signs[(cut, order)] = signs.get((cut, order), 0) + sign
        suspended = {k: gs[k].suspend_output() for k in set(first)}
        labels = {k: table.label(gs[k]) for k in set(first)}
        head_label = table.label(sh)
        for (cut, order), sign in signs.items():
            if not sign:
                continue
            # The chain sgs[0]{...sgs[cut-1]{sh{sgs[cut:]}}}, built from the
            # inside out. A step whose inputs so far are all components of
            # alpha is keyed by their labels and taken from the table.
            tail = tuple(labels[k] for k in order[cut:])
            key = None if head_label is None or None in tail else ("in", head_label, tail)
            inner = table.brace(key, sh, [suspended[k] for k in order[cut:]])
            for j in range(cut - 1, -1, -1):
                label = labels[order[j]]
                key = None if key is None or label is None else ("on", label, key)
                inner = table.brace(key, suspended[order[j]], [inner])
            for args, gv in inner.values.items():
                _gv_add(values.setdefault(args, {}), gv, sign)
        return SuspendedHom._trusted(self.space, out_arity, out_degree, False, values)

    def l(self, elements: Sequence[CNjLElement]) -> CNjLElement:
        """Multilinear extension over the components of each element.

        Rearrangements that hand the same objects to one component are
        evaluated once, with their signs added up; so are the two orders of
        a bracket, by its graded antisymmetry."""
        return self._l(elements, _AlphaBraces(CNjLElement()))

    def _l(
        self, elements: Sequence[CNjLElement], table: "_AlphaBraces", coeff: Fraction | int = 1
    ) -> CNjLElement:
        """``coeff`` times :meth:`l`, with the brace terms that read only
        components of ``table.alpha`` taken from ``table``."""
        signs: dict[tuple, list] = {}
        # A bracket-side input takes part only in the bracket (two inputs)
        # or as the head of a mixed component of its arity plus one.
        k = len(elements)
        usable = [
            [(t, h) for t, h in e.tagged() if t == "njo" or k == 2 or h.arity == k - 1]
            for e in elements
        ]
        for combo in product(*usable):
            term = self._term(combo)
            if term is None:
                continue
            sign, kind, head, rest = term
            if kind == "lie" and head is not rest[0] and ("lie", id(rest[0]), id(head)) in signs:
                # [b, a] = -(-1)^(|a||b|) [a, b]: add to the bracket built first.
                odd = (head.total_degree * rest[0].total_degree) % 2
                sign, head, rest = sign if odd else -sign, rest[0], (head,)
            key = (kind, id(head)) + tuple(id(h) for h in rest)
            if key in signs:
                signs[key][0] += sign
            else:
                signs[key] = [sign, kind, head, rest]
        parts: dict[str, list[SuspendedHom]] = {"lie": [], "njo": []}
        for sign, kind, head, rest in signs.values():
            if sign:
                term = self._evaluate(kind, head, rest, table)
                parts[kind].append(term if sign * coeff == 1 else term.scale(sign * coeff))
        return CNjLElement(**parts)

    def _alpha_expansion(
        self, table: "_AlphaBraces", tail: Sequence[CNjLElement]
    ) -> CNjLElement:
        """``sum_{i >= 1} (-1)^(k(k-1)/2) / i! * l(alpha, ..., alpha, *tail)``
        with ``i`` copies of ``alpha = table.alpha`` and ``k = i + len(tail)``.

        A component is nonzero only on two bracket-side inputs or on one of
        arity ``k - 1``, so ``i`` stops one past the largest bracket-side
        arity among ``alpha`` and ``tail``.
        """
        alpha = table.alpha
        top = max((h.arity for e in (alpha, *tail) for h in e.lie), default=1) + 1
        out = CNjLElement()
        for i in range(1, top + 1):
            k = i + len(tail)
            coeff = Fraction(-1 if (k * (k - 1) // 2) % 2 else 1, factorial(i))
            out = out.add(self._l([alpha] * i + list(tail), table, coeff))
        return out


class _AlphaBraces:
    """The brace subterms of an alpha-expansion that read only components
    of a fixed ``alpha``, each computed on first use and kept as long as the
    table.

    A subterm is keyed by the positions of its inputs in ``alpha.tagged()``
    (its labels), never by object identity. A step with any other input
    (key ``None``) is computed afresh each time.
    """

    def __init__(self, alpha: CNjLElement) -> None:
        self.alpha = alpha
        self._parts = [h for _, h in alpha.tagged()]
        self._done: dict[tuple, SuspendedHom] = {}

    def label(self, h: SuspendedHom) -> int | None:
        for k, part in enumerate(self._parts):
            if h is part:
                return k
        return None

    def brace(
        self, key: tuple | None, sf: SuspendedHom, args: Sequence[SuspendedHom]
    ) -> SuspendedHom:
        if key is None:
            return shuffle_brace(sf, args)
        if key not in self._done:
            self._done[key] = shuffle_brace(sf, args)
        return self._done[key]


@dataclass(frozen=True)
class MaurerCartanCandidate:
    """Arity-indexed families ``b`` (suspended-valued) and ``r``
    (plain-valued), all of total degree ``-1``.

    With ``r = {}`` this is an L-infinity algebra given by its suspended
    structure maps ``b``: :func:`mc_residual` then reports the defining
    identities ``sum_{i+j-1=n} b_i{b_j} = 0`` as its bracket side, and its
    operator side is empty."""

    space: GradedSpace
    b: Mapping[int, SuspendedHom]
    r: Mapping[int, SuspendedHom]

    def __post_init__(self) -> None:
        for family in (self.b, self.r):
            for arity, h in family.items():
                if h.arity != arity:
                    raise ValueError("component stored under wrong arity")
                if h.space != self.space:
                    raise ValueError("space mismatch")
                if h.total_degree != -1:
                    raise ValueError("components must have total degree -1")
        if any(not h.sv_valued for h in self.b.values()):
            raise ValueError("bracket components must be suspended-valued")
        if any(h.sv_valued for h in self.r.values()):
            raise ValueError("operator components must be plain-valued")


def mc_candidate(algebra: LieAlgebra, p: Endomorphism) -> MaurerCartanCandidate:
    """The candidate built from a bracket and an operator."""
    nu = nu_from_algebra(algebra)
    tau = tau_from_operator(p)
    return MaurerCartanCandidate(nu.space, {2: nu}, {1: tau})


@dataclass
class MCReport:
    n_max: int
    bracket_residuals: dict[int, int]
    operator_residuals: dict[int, int]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "bracket_residuals": {
                str(k): v for k, v in sorted(self.bracket_residuals.items())
            },
            "operator_residuals": {
                str(k): v for k, v in sorted(self.operator_residuals.items())
            },
            "ok": self.ok,
        }


def mc_residual(cand: MaurerCartanCandidate, n_max: int) -> MCReport:
    """Evaluate both Maurer-Cartan equation families exactly.

    ``n_max`` truncates the candidate to components of arity at most
    ``n_max``. The families are the two sides of the curvature of the
    truncated candidate (:func:`_curvature_sizes`): its bracket side is
    minus ``sum_{i+j-1=n} b_i{b_j}``, its operator side the family with one
    ``b_m`` and ``m`` operator components. Each family is reported at every
    arity its terms reach, ``i + j - 1`` for ``i, j`` in ``b`` and every sum
    of ``m`` arities of ``r`` for ``m`` in ``b``, also where they cancel.
    Residual sizes count nonzero canonical values; the candidate is flat
    iff all residuals are zero. Oracle: ``mc_residual_by_hand`` in
    ``tests/oracles.py``, both families expanded brace by brace.

    Dropping a nonzero component would leave equations that the candidate
    enters unevaluated, so a flat verdict would mean nothing: ``n_max``
    below the largest arity of a nonzero component raises ``ValueError``.
    """
    needed = max(
        (a for family in (cand.b, cand.r) for a, h in family.items() if not h.is_zero()),
        default=1,
    )
    if n_max < needed:
        raise ValueError(
            f"n_max {n_max} drops a nonzero arity-{needed} component; "
            f"the lowest value that keeps the candidate whole is {needed}"
        )
    b = {a: h for a, h in cand.b.items() if a <= n_max}
    r = {a: h for a, h in cand.r.items() if a <= n_max}
    lie, njo = _curvature_sizes(cand.space, CNjLElement(list(b.values()), list(r.values())))
    bracket_res = {n: lie.get(n, 0) for n in sorted({i + j - 1 for i in b for j in b})}
    reached = {sum(rs) for m in b for rs in combinations_with_replacement(r, m)}
    operator_res = {n: njo.get(n, 0) for n in sorted(reached)}
    ok = not any(bracket_res.values()) and not any(operator_res.values())
    return MCReport(n_max, bracket_res, operator_res, ok)


def _curvature_sizes(
    space: GradedSpace, alpha: CNjLElement
) -> tuple[dict[int, int], dict[int, int]]:
    """Nonzero canonical values per side and arity of the curvature
    ``sum_{k >= 1} (-1)^(k(k-1)/2) / k! * l(alpha, ..., alpha)``, the
    :meth:`NjlLInfty._alpha_expansion` with an empty tail."""
    sides = NjlLInfty(space)._alpha_expansion(_AlphaBraces(alpha), []).collect()
    lie, njo = (
        {a: sum(len(gv) for gv in h.values.values()) for a, h in side.items()}
        for side in sides
    )
    return lie, njo


def _slice_keys(space: GradedSpace, arity: int) -> list[tuple]:
    keys = []
    for tup in canonical_tuples(space, arity):
        for b in space.basis():
            keys.append((tup, b))
    return keys


def _twisted_complex(algebra: LieAlgebra, p: Endomorphism) -> LinearComplex:
    """The complex of the twisted unary operation, basis keys
    ``("lie", args, b)`` and ``("njo", args, b)`` (see ``njl_twisted_betti``)."""
    space = GradedSpace.suspended_ungraded(algebra.dim)
    structure = NjlLInfty(space)
    cand = mc_candidate(algebra, p)
    # One table of the brace terms that read only alpha, for every column;
    # it lives in this closure, as long as the complex.
    table = _AlphaBraces(CNjLElement(lie=[cand.b[2]], njo=[cand.r[1]]))

    def keys(n: int) -> list[tuple]:
        out = []
        if n >= 1:
            out += [("lie",) + k for k in _slice_keys(space, n)]
        if n >= 2:
            out += [("njo",) + k for k in _slice_keys(space, n - 1)]
        return out

    def column(n: int, key: tuple) -> dict[tuple, Fraction]:
        tag, tup, el = key
        value = {tup: {el: Fraction(1)}}
        if tag == "lie":
            e = CNjLElement(lie=[SuspendedHom(space, n, 1 - n, True, value)])
        else:
            e = CNjLElement(njo=[SuspendedHom(space, n - 1, 1 - n, False, value)])
        lie, njo = structure._alpha_expansion(table, [e]).collect()
        out: dict[tuple, Fraction] = {}
        for part_tag, arity, part in (("lie", n + 1, lie), ("njo", n, njo)):
            for a, h in part.items():
                if a != arity:
                    raise ValueError("component outside the slice")
                for args, gv in h.values.items():
                    for b, v in gv.items():
                        out[(part_tag, args, b)] = v
        return out

    return LinearComplex(keys, column)


def njl_twisted_betti(
    algebra: LieAlgebra, p: Endomorphism, max_degree: int
) -> list[int]:
    """Betti numbers of the complex carried by the twisted unary operation.

    The degree-``n`` slice pairs suspended-valued components of arity ``n``
    with plain-valued components of arity ``n - 1``; both sides start at
    arity 1, so the slices are lie-1 in degree 1 and lie-n plus njo-(n-1)
    from degree 2 on, with nothing in degree 0. From degree 2 on it is the
    operator-pair mapping cone, differential for differential: key
    ``(tag, ((1, i_1), ...), (1, b))`` is the cone's ``(tag, (i_1, ...), b)``
    times ``(-1)^(n(n-1)/2)`` on lie-n and ``-(-1)^(m(m-1)/2)`` on njo-m
    (the decalage sign, and the cone's sign on its second block). The
    complement inside the cone is the two-term piece (constants, identity,
    constants), which is acyclic, so the Betti numbers agree with the cone's
    in every degree. Exact ranks throughout. Raises ``ValueError`` if the
    twisted differential of a candidate operator does not square to zero.

    Each column is one twisted differential. The brace terms that read only
    ``alpha`` (``nu{s tau}`` and ``s tau{nu}``) are computed once for the
    whole complex, in a table that lives as long as the complex; the outer
    ``s tau{...}`` steps are postcompositions. ``tests/oracles.py``
    (``twisted_column_by_l``) rebuilds every column through the generic
    ``NjlLInfty.l``.
    """
    return _twisted_complex(algebra, p).betti(max_degree)
