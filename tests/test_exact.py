"""Tests for the exact-arithmetic and combinatorics kernels."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from njkit.exact import (
    Permutation,
    SparseMatrix,
    chi_sign,
    enumerate_shuffles,
    format_rational,
    koszul_sign,
    parse_rational,
)

from oracles import enumerate_local_shuffles


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
    # (s.compose(t))(i) = s(t(i))
    st = s.compose(t)
    assert st.images == tuple(s(t(i)) for i in (1, 2, 3))
    assert s.compose(s.inverse()).images == (1, 2, 3)
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
        assert sa.compose(sb).sign() == sa.sign() * sb.sign()


def test_koszul_sign_pinned_examples():
    swap = Permutation((2, 1))
    assert koszul_sign(Permutation.identity(3), (1, 2, 3)) == 1
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
        composed = sigma.compose(tau)
        permuted_degrees = sigma.gather(degrees)
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
    for nr, nc in shapes:
        rows = _random_sparse_rows(rng, nr, nc)
        m = SparseMatrix(nr, nc, {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})
        expected = sympy.Matrix(nr, nc, [sympy.Rational(v) for row in rows for v in row]).rank()
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
