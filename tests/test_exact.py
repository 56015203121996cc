"""Tests for the exact-arithmetic and combinatorics kernels."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from njkit.braces import _twisted_complex
from njkit.cohomology import _complexes
from njkit.exact import (
    LinearComplex,
    MappingCone,
    Permutation,
    SparseMatrix,
    chi_sign,
    enumerate_shuffles,
    format_rational,
    koszul_sign,
    parse_rational,
)
from njkit.forms import _diagonal_differential, _fn_slice
from njkit.lie import Endomorphism, LieAlgebra, NijenhuisLieAlgebra, adjoint_nijenhuis, vector

from oracles import compose, enumerate_local_shuffles, gather, inverse
from structures import semidirect_nijenhuis


def test_parse_rational_accepts_p_and_p_over_q():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 4/6 ") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/", "/2", "1/2/3", "1e3", "1/0", "-3/00"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_round_trips():
    for v in [Fraction(0), Fraction(5), Fraction(-3, 4), Fraction(10, 2)]:
        assert parse_rational(format_rational(v)) == v


def test_permutation_compose_inverse_sign():
    s = Permutation((2, 3, 1))
    t = Permutation((1, 3, 2))
    # compose(s, t)(i) = s(t(i))
    st = compose(s, t)
    assert st.images == tuple(s(t(i)) for i in (1, 2, 3))
    assert compose(s, inverse(s)).images == (1, 2, 3)
    assert s.sign() == 1  # 3-cycle is even
    assert t.sign() == -1


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_sign_is_multiplicative():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = list(range(1, n + 1))
        b = list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        sa, sb = Permutation(tuple(a)), Permutation(tuple(b))
        assert compose(sa, sb).sign() == sa.sign() * sb.sign()


def test_koszul_sign_pinned_examples():
    swap = Permutation((2, 1))
    assert koszul_sign(Permutation((1, 2, 3)), (1, 2, 3)) == 1
    # Two odd symbols anticommute.
    assert koszul_sign(swap, (1, 1)) == -1
    # Odd past even commutes.
    assert koszul_sign(swap, (1, 2)) == 1


def test_chi_sign_pinned_examples():
    swap = Permutation((2, 1))
    assert chi_sign(swap, (0, 0)) == -1
    assert chi_sign(swap, (1, 1)) == 1


def test_chi_sign_reduces_to_classical_sign_on_degree_zero():
    # With all degrees zero the Koszul factor is trivial.
    for n in range(1, 6):
        for images in permutations(range(1, n + 1)):
            p = Permutation(images)
            assert chi_sign(p, (0,) * n) == p.sign()


def test_koszul_sign_on_all_odd_degrees_is_classical_sign():
    for n in range(1, 6):
        for images in permutations(range(1, n + 1)):
            p = Permutation(images)
            assert koszul_sign(p, (1,) * n) == p.sign()


def test_koszul_sign_is_a_right_action():
    # eps(sigma*tau) = eps(sigma; x) * eps(tau; x permuted by sigma)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        degrees = tuple(rng.randint(0, 3) for _ in range(n))
        a = list(range(1, n + 1))
        b = list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        sigma, tau = Permutation(tuple(a)), Permutation(tuple(b))
        composed = compose(sigma, tau)
        permuted_degrees = gather(sigma, degrees)
        assert koszul_sign(composed, degrees) == koszul_sign(
            sigma, degrees
        ) * koszul_sign(tau, permuted_degrees)


def test_enumerate_shuffles_2_1_explicit():
    images = [p.images for p in enumerate_shuffles((2, 1))]
    assert images == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]


def test_enumerate_shuffles_counts_are_multinomial():
    cases = [(2, 2), (1, 1, 1), (3, 1), (2, 1, 2), (1, 3, 2), (4,)]
    for sizes in cases:
        n = sum(sizes)
        expected = math.factorial(n)
        for k in sizes:
            expected //= math.factorial(k)
        assert len(enumerate_shuffles(sizes)) == expected


def test_enumerate_shuffles_blocks_increasing():
    for sizes in [(2, 3), (1, 2, 2)]:
        for p in enumerate_shuffles(sizes):
            pos = 0
            for k in sizes:
                block = p.images[pos : pos + k]
                assert list(block) == sorted(block)
                pos += k


def test_local_shuffles_pinned_examples():
    assert [p.images for p in enumerate_local_shuffles((1, 1))] == [(1, 2)]
    assert len(enumerate_local_shuffles((2, 2))) == 3
    # A single block only admits the identity.
    for n in range(1, 5):
        assert [p.images for p in enumerate_local_shuffles((n,))] == [
            tuple(range(1, n + 1))
        ]


def test_local_shuffles_leading_images_increase():
    for sizes in [(2, 2), (1, 2, 1), (2, 1, 2)]:
        locals_ = enumerate_local_shuffles(sizes)
        all_ = enumerate_shuffles(sizes)
        assert set(p.images for p in locals_) <= set(p.images for p in all_)
        starts = []
        pos = 0
        for k in sizes:
            starts.append(pos)
            pos += k
        for p in locals_:
            leading = [p.images[s] for s in starts]
            assert leading == sorted(leading)


def test_rank_pinned_examples():
    eye = SparseMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.rank() == 3
    zero = SparseMatrix(3, 3)
    assert zero.rank() == 0
    degenerate = SparseMatrix.from_rows([[1, 2], [2, 4]])
    assert degenerate.rank() == 1


def _gauss_rank(rows: list[list[Fraction]]) -> int:
    """Plain fraction Gaussian elimination, as an independent oracle."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[prow], rows[pivot] = rows[pivot], rows[prow]
        for r in range(prow + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / rows[prow][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[prow])]
        prow += 1
        rank += 1
    return rank


def test_rank_matches_gaussian_elimination_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(25):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        rows = [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < 0.5
                else Fraction(0)
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        m = SparseMatrix.from_rows(rows)
        assert m.rank() == _gauss_rank(rows)


def test_kernel_basis_spans_right_kernel():
    rng = random.Random(99)
    for _ in range(20):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        rows = [
            [
                Fraction(rng.randint(-3, 3)) if rng.random() < 0.6 else Fraction(0)
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        m = SparseMatrix.from_rows(rows)
        kernel = m.kernel_basis()
        assert len(kernel) == nc - m.rank()
        for vec in kernel:
            assert all(x == 0 for x in m.apply(vec))
        # Kernel vectors are linearly independent.
        if kernel:
            km = SparseMatrix(nc, len(kernel))
            for j, vec in enumerate(kernel):
                for i, x in enumerate(vec):
                    km.set(i, j, x)
            assert km.rank() == len(kernel)


def _random_sparse_rows(rng: random.Random, nr: int, nc: int) -> list[list[int]]:
    """Sparse integer rows with some all-zero rows and columns and entries
    up to 2**40 in absolute value."""
    zero_rows = {r for r in range(nr) if rng.random() < 0.2}
    zero_cols = {c for c in range(nc) if rng.random() < 0.2}
    bits = rng.choice((2, 8, 40))
    return [
        [
            rng.randint(-(2**bits), 2**bits)
            if r not in zero_rows and c not in zero_cols and rng.random() < 0.35
            else 0
            for c in range(nc)
        ]
        for r in range(nr)
    ]


def test_rank_and_kernel_match_sympy_on_random_sparse_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    shapes = [(0, 3), (3, 0), (1, 1), (4, 9), (9, 4), (7, 7), (12, 5), (5, 12)]
    shapes += [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(32)]
    # Denominators come from their own generator, so the integer matrices
    # do not depend on them.
    denominators = random.Random(20261020)
    for nr, nc in shapes:
        integer = _random_sparse_rows(rng, nr, nc)
        # The same pattern with every entry over its own denominator, so
        # that clearing denominators row by row is exercised.
        rational = [[Fraction(v, denominators.randint(1, 9)) for v in row] for row in integer]
        for rows in (integer, rational):
            m = SparseMatrix(
                nr, nc, {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
            )
            cells = [Fraction(v) for row in rows for v in row]
            flat = [sympy.Rational(v.numerator, v.denominator) for v in cells]
            expected = sympy.Matrix(nr, nc, flat).rank()
            assert m.rank() == expected, (nr, nc, rows)
            kernel = m.kernel_basis()
            assert len(kernel) == nc - expected
            for vec in kernel:
                assert len(vec) == nc
                assert all(x == 0 for x in m.apply(vec))


def test_matmul_and_apply_agree():
    a = SparseMatrix.from_rows([[1, 2], [0, 1], [3, 0]])
    b = SparseMatrix.from_rows([[1, 1], [2, -1]])
    ab = a.matmul(b)
    for col, vec in enumerate([(1, 2), (1, -1)]):
        applied = a.apply(vec)
        for row in range(3):
            assert ab.get(row, col) == applied[row]


# ---------------------------------------------------------------------------
# The graded-complex engine


def _simplex_complex() -> LinearComplex:
    """Simplicial cochains of the full 2-simplex: keys are the vertex
    tuples of each face, and ``d`` is the alternating coboundary."""
    vertices = range(3)

    def column(n, key):
        out = {}
        for v in vertices:
            if v not in key:
                face = tuple(sorted(key + (v,)))
                out[face] = Fraction((-1) ** face.index(v))
        return out

    return LinearComplex(lambda n: list(combinations(vertices, n + 1)), column)


def test_linear_complex_betti_cocycles_and_boundaries():
    cx = _simplex_complex()
    assert [cx.dim(n) for n in range(-1, 4)] == [0, 3, 3, 1, 0]
    assert [cx.rank(n) for n in range(-2, 3)] == [0, 0, 2, 1, 0]
    assert cx.betti(3) == [1, 0, 0, 0]
    # The constant cochain spans Z^0; Z^1 = B^1 has dimension 2.
    assert cx.cocycles(0) == [{0: 1, 1: 1, 2: 1}]
    assert len(cx.cocycles(1)) == 2
    assert cx.boundaries(0) == []
    assert cx.boundaries(1) == [
        {0: -1, 1: -1},
        {0: 1, 2: -1},
        {1: 1, 2: 1},
    ]
    # Boundaries have no class; a vertex that is not a coboundary has one.
    assert cx.class_rank(1, cx.boundaries(1)) == 0
    assert cx.class_rank(0, [{0: 1}, {1: 2}]) == 2
    assert cx.class_rank(2, [{0: 1}]) == 0


def test_linear_complex_refuses_a_differential_that_does_not_square_to_zero():
    # d_0(a) = b, d_1(b) = c: d_1 d_0 != 0.
    chain = {0: [("a",)], 1: [("b",)], 2: [("c",)]}
    image = {("a",): {("b",): 1}, ("b",): {("c",): 1}, ("c",): {}}
    cx = LinearComplex(lambda n: chain.get(n, []), lambda n, key: image[key])
    with pytest.raises(ValueError, match="d_1 d_0"):
        cx.betti(2)
    assert cx.betti(0) == [0]


def test_mapping_cone_blocks_and_signs():
    # A: a -> 2 a', B: b -> 3 b', f(a) = 5 b, f(a') = 15/2 b' (a chain map).
    a = LinearComplex(
        lambda n: [[("a",)], [("a'",)]][n] if n < 2 else [],
        lambda n, key: {("a'",): 2} if n == 0 else {},
    )
    b = LinearComplex(
        lambda n: [[("b",)], [("b'",)]][n] if n < 2 else [],
        lambda n, key: {("b'",): 3} if n == 0 else {},
    )
    f = {("a",): {("b",): 5}, ("a'",): {("b'",): Fraction(15, 2)}}
    cone = MappingCone(a, b, lambda n, key: f[key], ("A", "B"))
    assert cone.keys(0) == [("A", "a")]
    assert cone.keys(1) == [("A", "a'"), ("B", "b")]
    assert cone.keys(2) == [("B", "b'")]
    assert cone.chain_matrix(1).entries == {(0, 0): Fraction(15, 2)}
    # [[d_A, 0], [-f, -d_B]] in each degree.
    assert cone.matrix(0).entries == {(0, 0): 2, (1, 0): -5}
    assert cone.matrix(1).entries == {(0, 0): Fraction(-15, 2), (0, 1): -3}
    assert (cone.matrix(1).nrows, cone.matrix(1).ncols) == (1, 2)
    assert cone.matrix(2).entries == {}
    # f is a quasi-isomorphism (both sides are acyclic), so is the cone.
    assert cone.betti(3) == [0, 0, 0, 0]


def test_cone_of_the_identity_is_acyclic():
    cx = _simplex_complex()
    cone = MappingCone(cx, cx, lambda n, key: {key: 1}, ("A", "B"))
    assert cone.keys(1) == [("A", 0, 1), ("A", 0, 2), ("A", 1, 2), ("B", 0), ("B", 1), ("B", 2)]
    assert [cone.dim(n) for n in range(4)] == [3, 6, 4, 1]
    assert cone.betti(3) == [0, 0, 0, 0]


def _sl2() -> LieAlgebra:
    return LieAlgebra(
        3, {(0, 1): vector([0, 2, 0]), (0, 2): vector([0, 0, -2]), (1, 2): vector([1, 0, 0])}
    )


def _gl2() -> NijenhuisLieAlgebra:
    # sl2 plus a central fourth basis vector.
    brackets = {key: vector(list(value) + [0]) for key, value in _sl2().brackets.items()}
    return NijenhuisLieAlgebra(LieAlgebra(4, brackets), Endomorphism.diagonal([1, 1, 2, 3]))


def _book6() -> NijenhuisLieAlgebra:
    # [e0, ei] = ei: every diagonal operator has zero torsion.
    brackets = {(0, i): vector([1 if k == i else 0 for k in range(6)]) for i in range(1, 6)}
    return NijenhuisLieAlgebra(LieAlgebra(6, brackets), Endomorphism.diagonal([1, 2, 3, -1, 2, 5]))


def _sl2_semidirect() -> NijenhuisLieAlgebra:
    base = NijenhuisLieAlgebra(_sl2(), Endomorphism.diagonal([1, 1, 2]))
    return semidirect_nijenhuis(base, adjoint_nijenhuis(base))


def _assert_squares_to_zero(cx: LinearComplex, top: int) -> None:
    for n in range(1, top + 1):
        assert cx.matrix(n).matmul(cx.matrix(n - 1)).is_zero(), n


@pytest.mark.parametrize(
    "nja, top",
    [(_book6(), 3), (_sl2_semidirect(), 3), (_gl2(), 4)],
    ids=["book6", "sl2xsl2", "gl2"],
)
def test_differential_matrices_square_to_zero(nja, top):
    complexes = _complexes(nja, adjoint_nijenhuis(nja))
    for which in ("ce", "njo", "njl"):
        _assert_squares_to_zero(complexes[which], top)


def test_fn_slices_and_the_twisted_complex_square_to_zero():
    differential = _diagonal_differential(3)
    for d in range(3):
        _assert_squares_to_zero(_fn_slice(differential, 3, d), 3)
    gl2 = _gl2()
    _assert_squares_to_zero(_twisted_complex(gl2.algebra, gl2.operator), 3)
    sl2xsl2 = _sl2_semidirect()
    _assert_squares_to_zero(_twisted_complex(sl2xsl2.algebra, sl2xsl2.operator), 2)
