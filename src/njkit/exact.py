"""Exact arithmetic and combinatorial kernels shared by every other module.

All computation in this package happens over the rationals. ``Rational`` is
the stdlib :class:`fractions.Fraction`; nothing here ever touches floats.

The combinatorial kernels are permutations with their classical and Koszul
signs, shuffles, and the one alternating sort of index words
(``_sort_indices``, with ``_merge_indices`` for two sorted words) that the
cochains, forms and fields use to key their entries.

``SparseMatrix`` holds the one exact elimination, fraction-free Bareiss on
the rows with denominators cleared: its pivots give the rank, and
back-substitution on the same pivots gives a kernel basis.

``LinearComplex`` is the one graded-complex engine: every differential
matrix, rank, Betti number, cocycle and boundary of the package's cochain
complexes comes from it, and ``MappingCone`` builds a cone from the blocks
of its two complexes and a chain map.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Hashable, Iterator, Mapping, Sequence

Rational = Fraction

# ASCII digits only: ``\d`` would also match the digits of other scripts.
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Rational:
    """Parse a rational literal of the form ``p`` or ``p/q``.

    >>> parse_rational("-3/4")
    Fraction(-3, 4)
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Rational) -> str:
    """Render a rational as ``p`` or ``p/q`` (the parse_rational syntax)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1, ..., n}`` stored by its tuple of images.

    ``images[i - 1]`` is the image of ``i``; everything downstream uses this
    1-based convention.

    >>> s = Permutation((2, 1, 3))
    >>> s(1), s(2)
    (2, 1)
    >>> s.sign()
    -1
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.images)) != tuple(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def sign(self) -> int:
        """The classical sign, computed by counting inversions."""
        inv = 0
        imgs = self.images
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                if imgs[i] > imgs[j]:
                    inv += 1
        return -1 if inv % 2 else 1


def koszul_sign(sigma: Permutation, degrees: Sequence[int]) -> int:
    """Sign picked up by reordering graded symbols along ``sigma``.

    With inputs ``x_1, ..., x_n`` of the given degrees, this is the sign
    ``eps`` in ``x_1 ... x_n = eps * x_{sigma(1)} ... x_{sigma(n)}``: each
    adjacent swap of symbols of degrees ``a`` and ``b`` contributes
    ``(-1)**(a*b)``.

    >>> koszul_sign(Permutation((2, 1)), (1, 1))
    -1
    >>> koszul_sign(Permutation((2, 1)), (1, 2))
    1
    """
    if len(degrees) != sigma.size:
        raise ValueError("size mismatch")
    seq = list(sigma.images)
    sign = 1
    # Bubble-sort the image word back to the identity; the swaps traversed
    # are exactly the adjacent transpositions realizing sigma.
    for end in range(len(seq), 1, -1):
        for j in range(end - 1):
            if seq[j] > seq[j + 1]:
                if (degrees[seq[j] - 1] * degrees[seq[j + 1] - 1]) % 2:
                    sign = -sign
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
    return sign


def chi_sign(sigma: Permutation, degrees: Sequence[int]) -> int:
    """Graded antisymmetric sign: classical sign times the Koszul sign.

    >>> chi_sign(Permutation((2, 1)), (0, 0))
    -1
    >>> chi_sign(Permutation((2, 1)), (1, 1))
    1
    """
    return sigma.sign() * koszul_sign(sigma, degrees)


def _sort_indices(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sort an index word, returning ``(sign, sorted)``; ``None`` on repeats."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return None
            if seq[i] > seq[j]:
                seq[i], seq[j] = seq[j], seq[i]
                sign = -sign
    return sign, tuple(seq)


def _merge_indices(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[int, tuple[int, ...]] | None:
    """Merge two increasing index tuples with the wedge sign.

    The sign counts the transpositions needed to sort the concatenation;
    shared indices give ``None`` (the wedge vanishes).
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


def _shuffle_images(
    remaining: tuple[int, ...], blocks: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Yield image tuples of permutations increasing on each position
    block: the first block takes ``blocks[0]`` of ``remaining`` in
    increasing order, the later blocks share the rest."""
    if not blocks:
        yield ()
        return
    for chosen in combinations(remaining, blocks[0]):
        rest = tuple(x for x in remaining if x not in chosen)
        for tail in _shuffle_images(rest, blocks[1:]):
            yield chosen + tail


def enumerate_shuffles(block_sizes: Sequence[int]) -> list[Permutation]:
    """All permutations increasing on each consecutive block of positions.

    Blocks of size zero are skipped. The result is sorted lexicographically
    by image tuple; its length is the multinomial coefficient.

    >>> [p.images for p in enumerate_shuffles((2, 1))]
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    universe = tuple(range(1, sum(block_sizes) + 1))
    images = sorted(_shuffle_images(universe, [k for k in block_sizes if k > 0]))
    return [Permutation(t) for t in images]


class SparseMatrix:
    """A sparse matrix over the rationals.

    Entries are stored in a ``{(row, col): Fraction}`` dict; absent keys are
    zero. Row/column indices are 0-based.
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], Rational] | None = None,
    ) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                self.set(r, c, v)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                m.set(r, c, Fraction(v))
        return m

    def set(self, r: int, c: int, value: Rational | int) -> None:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError((r, c))
        v = Fraction(value)
        if v:
            self.entries[(r, c)] = v
        else:
            self.entries.pop((r, c), None)

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, vec: Sequence[Rational | int]) -> tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        out = [Fraction(0)] * self.nrows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * Fraction(vec[c])
        return tuple(out)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        out = SparseMatrix(self.nrows, other.ncols)
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], Fraction] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, Fraction(0)) + v * w
        for key, v in acc.items():
            if v:
                out.entries[key] = v
        return out

    def _integer_rows(self) -> list[dict[int, int]]:
        """Rows with denominators cleared (rank and kernel are unaffected)."""
        rows: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        out = []
        for r in sorted(rows):
            row = rows[r]
            scale = math.lcm(*(v.denominator for v in row.values()))
            out.append({c: int(v * scale) for c, v in sorted(row.items())})
        return out

    def _pivots(self) -> list[tuple[int, dict[int, int]]]:
        """Fraction-free Bareiss elimination of the rows with denominators
        cleared: the pivots ``(column, integer row)`` in the order chosen.

        Pivots are chosen sparsity-first (shortest active row, then smallest
        absolute entry) so intermediate integers stay manageable. Each pivot
        row is zero in the columns of the pivots chosen before it, so the
        rows are in echelon form up to the column order and span the row
        space.
        """
        active = [row for row in self._integer_rows() if row]
        pivots: list[tuple[int, dict[int, int]]] = []
        prev = 1
        while active:
            pi = min(range(len(active)), key=lambda i: len(active[i]))
            prow = active.pop(pi)
            pcol, pval = min(prow.items(), key=lambda kv: (abs(kv[1]), kv[0]))
            pivots.append((pcol, prow))
            nxt: list[dict[int, int]] = []
            for row in active:
                a = row.pop(pcol, 0)
                cols = set(row) | set(prow)
                cols.discard(pcol)
                new: dict[int, int] = {}
                for c in cols:
                    num = pval * row.get(c, 0) - a * prow.get(c, 0)
                    if num:
                        new[c] = num // prev  # exact by Sylvester's identity
                if new:
                    nxt.append(new)
            active = nxt
            prev = pval
        return pivots

    def rank(self) -> int:
        """Exact rank: the number of pivots of the elimination."""
        return len(self._pivots())

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right kernel, by back-substitution on the pivots
        of the elimination that :meth:`rank` counts.

        One vector per non-pivot column, in increasing column order: 1 at
        that column, 0 at the other non-pivot columns, and the pivot
        coordinates solved from the last pivot row back. Deterministic for a
        given matrix.
        """
        pivots = self._pivots()
        # Each pivot coordinate as a combination of the non-pivot ones.
        solved: dict[int, dict[int, Fraction]] = {}
        for pcol, prow in reversed(pivots):
            combo: dict[int, Fraction] = {}
            for c, v in prow.items():
                if c in solved:
                    for free, w in solved[c].items():
                        combo[free] = combo.get(free, 0) - v * w
                elif c != pcol:
                    combo[c] = combo.get(c, 0) - v
            pval = prow[pcol]
            solved[pcol] = {free: Fraction(w, pval) for free, w in combo.items() if w}
        vectors = {c: [Fraction(0)] * self.ncols for c in range(self.ncols) if c not in solved}
        for free, vec in vectors.items():
            vec[free] = Fraction(1)
        for pcol, combo in solved.items():
            for free, w in combo.items():
                vectors[free][pcol] = w
        return [tuple(vec) for vec in vectors.values()]


_Column = Mapping[Hashable, Rational]


def _assemble_columns(
    rows: Mapping[Hashable, int], keys: Sequence, column: Callable[[Hashable], _Column]
) -> SparseMatrix:
    """The matrix whose ``j``-th column is ``column(keys[j])``, each entry
    placed in the row ``rows`` gives its key."""
    m = SparseMatrix(len(rows), len(keys))
    for c, key in enumerate(keys):
        for k, v in column(key).items():
            m.set(rows[k], c, v)
    return m


class LinearComplex:
    """A cochain complex of finite-dimensional spaces over the rationals.

    ``keys(n)`` lists the basis of degree ``n`` and ``column(n, key)`` gives
    the differential of one basis element as ``{key of degree n + 1: value}``.
    Nothing lives below degree 0. Bases, matrices and ranks are built on
    first use and kept as long as the complex.

    Give closures over plain values, not bound methods of an object that
    holds the complex: the reference cycle would keep every cached matrix
    alive until the cyclic garbage collector runs.
    """

    def __init__(
        self,
        keys: Callable[[int], Sequence],
        column: Callable[[int, Hashable], _Column] | None,
    ) -> None:
        self._key_fn = keys
        self._column = column
        self._keys: dict[int, list] = {}
        self._positions: dict[int, dict] = {}
        self._matrices: dict[int, SparseMatrix] = {}
        self._ranks: dict[int, int] = {}

    def keys(self, n: int) -> list:
        if n not in self._keys:
            self._keys[n] = list(self._key_fn(n)) if n >= 0 else []
        return self._keys[n]

    def positions(self, n: int) -> dict:
        """Index of every basis key of degree ``n``."""
        if n not in self._positions:
            self._positions[n] = {key: i for i, key in enumerate(self.keys(n))}
        return self._positions[n]

    def dim(self, n: int) -> int:
        return len(self.keys(n))

    def matrix(self, n: int) -> SparseMatrix:
        """Matrix of ``d_n: C^n -> C^(n+1)`` in the key order of both degrees."""
        if n not in self._matrices:
            self._matrices[n] = self._assemble(n)
        return self._matrices[n]

    def _assemble(self, n: int) -> SparseMatrix:
        column = self._column
        return _assemble_columns(self.positions(n + 1), self.keys(n), lambda key: column(n, key))

    def rank(self, n: int) -> int:
        """Exact rank of ``d_n``; 0 below degree 0."""
        if n < 0:
            return 0
        if n not in self._ranks:
            self._ranks[n] = self.matrix(n).rank()
        return self._ranks[n]

    def check_complex(self, max_degree: int) -> None:
        """Check ``d_n d_(n-1) = 0`` for ``n = 1..max_degree`` and raise
        ``ValueError`` naming ``n`` where it fails: the differential of a
        candidate structure need not square to zero."""
        for n in range(1, max_degree + 1):
            if not self.matrix(n).matmul(self.matrix(n - 1)).is_zero():
                raise ValueError(f"not a complex: d_{n} d_{n - 1} != 0")

    def betti(self, max_degree: int) -> list[int]:
        """``b_n = dim C^n - rank d_n - rank d_(n-1)`` for ``n = 0..max_degree``,
        after :meth:`check_complex` on the matrices the numbers use."""
        self.check_complex(max_degree)
        return [self.dim(n) - self.rank(n) - self.rank(n - 1) for n in range(max_degree + 1)]

    def cocycles(self, n: int) -> list[dict[int, Fraction]]:
        """A basis of ``Z^n = ker d_n``, as sparse vectors ``{index: value}``."""
        return [{i: c for i, c in enumerate(vec) if c} for vec in self.matrix(n).kernel_basis()]

    def boundaries(self, n: int) -> list[dict[int, Fraction]]:
        """The columns of ``d_(n-1)``, which span ``B^n``, as sparse vectors."""
        m = self.matrix(n - 1)
        cols: list[dict[int, Fraction]] = [{} for _ in range(m.ncols)]
        for (r, c), v in m.entries.items():
            cols[c][r] = v
        return cols

    def class_rank(self, n: int, vectors: Sequence[Mapping[int, Rational]]) -> int:
        """Dimension of the span of ``vectors`` (of degree ``n``) modulo ``B^n``."""
        cols = self.boundaries(n) + list(vectors)
        entries = {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}
        return SparseMatrix(self.dim(n), len(cols), entries).rank() - self.rank(n - 1)


class MappingCone(LinearComplex):
    """The mapping cone of a chain map ``f: A -> B``.

    Degree ``n`` is ``A^n + B^(n-1)`` and the differential is
    ``(a, b) -> (d_A a, -f a - d_B b)``, the block matrix
    ``[[d_A, 0], [-f, -d_B]]`` copied from the matrices of ``A`` and ``B``.
    ``chain_map(n, key)`` gives ``f`` on a basis element of ``A^n`` as
    ``{key of B^n: value}``. The basis of degree ``n`` is that of ``A^n``,
    each key prefixed with ``tags[0]``, followed by that of ``B^(n-1)``
    prefixed with ``tags[1]``: index ``i < A.dim(n)`` is ``A``'s ``i``-th
    basis element and index ``A.dim(n) + i`` is ``B``'s.
    """

    def __init__(
        self,
        source: LinearComplex,
        target: LinearComplex,
        chain_map: Callable[[int, Hashable], _Column],
        tags: tuple[str, str],
    ) -> None:
        a, b = tags
        super().__init__(
            lambda n: [(a,) + k for k in source.keys(n)] + [(b,) + k for k in target.keys(n - 1)],
            None,
        )
        self.source = source
        self.target = target
        self._chain_map = chain_map
        self._maps: dict[int, SparseMatrix] = {}

    def chain_matrix(self, n: int) -> SparseMatrix:
        """Matrix of ``f_n: A^n -> B^n``."""
        if n not in self._maps:
            chain_map = self._chain_map
            self._maps[n] = _assemble_columns(
                self.target.positions(n), self.source.keys(n), lambda key: chain_map(n, key)
            )
        return self._maps[n]

    def _assemble(self, n: int) -> SparseMatrix:
        shift_row, shift_col = self.source.dim(n + 1), self.source.dim(n)
        m = SparseMatrix(self.dim(n + 1), self.dim(n))
        m.entries.update(self.source.matrix(n).entries)
        for (r, c), v in self.chain_matrix(n).entries.items():
            m.entries[(shift_row + r, c)] = -v
        for (r, c), v in self.target.matrix(n - 1).entries.items():
            m.entries[(shift_row + r, shift_col + c)] = -v
        return m
