"""Recompute the pinned reference table by routes independent of njkit.

The Betti numbers in ``catalogue.REFERENCE`` come from this file: the three
cochain complexes are assembled here from their defining formulas, without
calling njkit, and ranked with sympy over QQ. Validity verdicts come from a
direct Jacobi and torsion check on the structure constants. Run

    python3 perfbench/pin_reference.py

to compare every pinned entry with a fresh computation (exit 1 on any
difference). sympy is needed here only; the benchmark itself does not use it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations

from catalogue import LARGE, REFERENCE, SMALL, LieData


def _bracket(data: LieData, i: int, j: int) -> dict:
    if i == j:
        return {}
    if i < j:
        return data.brackets.get((i, j), {})
    return {k: -c for k, c in data.brackets.get((j, i), {}).items()}


def _bracket_vectors(data: LieData, x: dict, y: dict) -> dict:
    out: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in _bracket(data, i, j).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: v for k, v in out.items() if v}


def _apply(rows, x: dict) -> dict:
    out: dict = {}
    for j, a in x.items():
        for i in range(len(rows)):
            if rows[i][j]:
                out[i] = out.get(i, 0) + rows[i][j] * a
    return {k: v for k, v in out.items() if v}


def is_lie(data: LieData) -> bool:
    e = [{i: Fraction(1)} for i in range(data.dim)]
    for a, b, c in combinations(range(data.dim), 3):
        total: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, v in _bracket_vectors(data, _bracket_vectors(data, e[x], e[y]), e[z]).items():
                total[k] = total.get(k, 0) + v
        if any(total.values()):
            return False
    return True


def is_nijenhuis(data: LieData) -> bool:
    p = data.operator
    for a, b in combinations(range(data.dim), 2):
        x, y = {a: Fraction(1)}, {b: Fraction(1)}
        px, py = _apply(p, x), _apply(p, y)
        inner = _bracket_vectors(data, px, y)
        for k, v in _bracket_vectors(data, x, py).items():
            inner[k] = inner.get(k, 0) + v
        for k, v in _apply(p, _bracket_vectors(data, x, y)).items():
            inner[k] = inner.get(k, 0) - v
        torsion = _bracket_vectors(data, px, py)
        for k, v in _apply(p, inner).items():
            torsion[k] = torsion.get(k, 0) - v
        if any(torsion.values()):
            return False
    return True


def _deformed(data: LieData) -> LieData:
    """The bracket ``[Px, y] + [x, Py] - P[x, y]`` as structure constants."""
    p = data.operator
    table = {}
    for a, b in combinations(range(data.dim), 2):
        x, y = {a: Fraction(1)}, {b: Fraction(1)}
        out = _bracket_vectors(data, _apply(p, x), y)
        for k, v in _bracket_vectors(data, x, _apply(p, y)).items():
            out[k] = out.get(k, 0) + v
        for k, v in _apply(p, _bracket_vectors(data, x, y)).items():
            out[k] = out.get(k, 0) - v
        out = {k: v for k, v in out.items() if v}
        if out:
            table[(a, b)] = out
    return LieData(data.dim, table, data.operator)


def _keys(dim: int, degree: int) -> list:
    if degree < 0:
        return []
    return [(idx, m) for idx in combinations(range(dim), degree) for m in range(dim)]


def _place(args: tuple):
    """Sign and sorted tuple of distinct ``args``, or None on a repeat."""
    if len(set(args)) != len(args):
        return None
    sign = 1
    for s in range(len(args)):
        for t in range(s + 1, len(args)):
            if args[s] > args[t]:
                sign = -sign
    return sign, tuple(sorted(args))


def _ce_matrix(alg: LieData, action, degree: int) -> dict:
    """``{(row, col): value}`` of the CE differential C^degree -> C^degree+1.

    ``action(a)`` is the matrix of the generator ``e_a`` on the module (the
    module is the algebra's own underlying space throughout).
    """
    dim = alg.dim
    cols = {key: c for c, key in enumerate(_keys(dim, degree))}
    rows = {key: r for r, key in enumerate(_keys(dim, degree + 1))}
    out: dict = {}

    def add(row_key, col_key, value):
        if value:
            pos = (rows[row_key], cols[col_key])
            out[pos] = out.get(pos, 0) + value

    for J in combinations(range(dim), degree + 1):
        for i in range(degree + 1):
            rest = J[:i] + J[i + 1 :]
            act = action(J[i])
            for m in range(dim):
                for m2 in range(dim):
                    add((J, m2), (rest, m), (-1) ** i * act[m2][m])
        for i in range(degree + 1):
            for k in range(i + 1, degree + 1):
                rest = tuple(J[t] for t in range(degree + 1) if t not in (i, k))
                for l, c in _bracket(alg, J[i], J[k]).items():
                    placed = _place((l,) + rest)
                    if placed is None:
                        continue
                    sign, I = placed
                    for m in range(dim):
                        add((J, m), (I, m), (-1) ** (i + k) * sign * c)
    return out


def _adjoint(alg: LieData):
    def action(a: int):
        mat = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
        for m in range(alg.dim):
            for k, c in _bracket(alg, a, m).items():
                mat[k][m] += c
        return mat

    return action


def _njo_matrix(data: LieData, degree: int) -> dict:
    """``d_def - P o d_ce``: the deformed algebra acting on the module
    through ``a > m = [P a, m]``, corrected by the operator on values."""
    p = data.operator
    plain = _adjoint(data)

    def through_p(a: int):
        mat = [[Fraction(0)] * data.dim for _ in range(data.dim)]
        for k in range(data.dim):
            if p[k][a]:
                act = plain(k)
                for r in range(data.dim):
                    for c in range(data.dim):
                        mat[r][c] += p[k][a] * act[r][c]
        return mat

    out = dict(_ce_matrix(_deformed(data), through_p, degree))
    ce = _ce_matrix(data, plain, degree)
    nrows_key = _keys(data.dim, degree + 1)
    for (r, c), v in ce.items():
        idx, m = nrows_key[r]
        for m2 in range(data.dim):
            if p[m2][m]:
                pos = (nrows_key.index((idx, m2)), c)
                out[pos] = out.get(pos, 0) - p[m2][m] * v
    return out


def _psi_matrix(data: LieData, degree: int) -> dict:
    """The comparison map C^degree -> C^degree (see ``cohomology.psi``)."""
    p = data.operator
    dim = data.dim
    keys = _keys(dim, degree)
    pos = {key: i for i, key in enumerate(keys)}
    powers = [[[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]]
    for _ in range(degree):
        prev = powers[-1]
        powers.append(
            [[sum(p[i][t] * prev[t][j] for t in range(dim)) for j in range(dim)] for i in range(dim)]
        )
    out: dict = {}
    for J in combinations(range(dim), degree):
        for k in range(degree + 1):
            for subset in combinations(range(degree), k):
                choices = [
                    [(r, p[r][J[t]]) for r in range(dim) if p[r][J[t]]] if t in subset else [(J[t], 1)]
                    for t in range(degree)
                ]
                for combo in _product(choices):
                    args = tuple(r for r, _ in combo)
                    coeff = Fraction(1)
                    for _, c in combo:
                        coeff *= c
                    placed = _place(args)
                    if placed is None:
                        continue
                    sign, I = placed
                    power = powers[degree - k]
                    for m in range(dim):
                        for m2 in range(dim):
                            if power[m2][m]:
                                key = (pos[(J, m2)], pos[(I, m)])
                                out[key] = out.get(key, 0) + (-1) ** (degree - k) * sign * coeff * power[m2][m]
    return out


def _product(lists):
    if not lists:
        yield ()
        return
    for head in lists[0]:
        for tail in _product(lists[1:]):
            yield (head,) + tail


def _cone_matrix(data: LieData, degree: int) -> dict:
    """``(f, g) -> (d f, -psi f - d_njo g)`` on C^n (+) C^{n-1}."""
    dim = data.dim
    lie_rows = len(_keys(dim, degree + 1))
    lie_cols = len(_keys(dim, degree))
    out = {}
    for (r, c), v in _ce_matrix(data, _adjoint(data), degree).items():
        out[(r, c)] = v
    for (r, c), v in _psi_matrix(data, degree).items():
        out[(lie_rows + r, c)] = out.get((lie_rows + r, c), 0) - v
    if degree >= 1:
        for (r, c), v in _njo_matrix(data, degree - 1).items():
            out[(lie_rows + r, lie_cols + c)] = out.get((lie_rows + r, lie_cols + c), 0) - v
    return out


def _dims(data: LieData, which: str, degree: int) -> int:
    n = len(_keys(data.dim, degree))
    return n + len(_keys(data.dim, degree - 1)) if which == "njl" else n


def _rank(entries: dict, nrows: int, ncols: int) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not entries or not nrows or not ncols:
        return 0
    rows = [[QQ(0)] * ncols for _ in range(nrows)]
    for (r, c), v in entries.items():
        v = Fraction(v)
        rows[r][c] = QQ(v.numerator, v.denominator)
    return DomainMatrix(rows, (nrows, ncols), QQ).rank()


def betti_oracle(data: LieData, which: str, max_degree: int) -> list:
    build = {
        "ce": lambda n: _ce_matrix(data, _adjoint(data), n),
        "njo": lambda n: _njo_matrix(data, n),
        "njl": lambda n: _cone_matrix(data, n),
    }[which]
    dims = [_dims(data, which, n) for n in range(max_degree + 2)]
    ranks = [_rank(build(n), dims[n + 1], dims[n]) for n in range(max_degree + 1)]
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(max_degree + 1)]


def main() -> int:
    structures = {**LARGE, **SMALL}
    bad = 0
    for name, data in structures.items():
        pinned = REFERENCE[name]
        checks = [("lie", pinned["lie"], is_lie(data))]
        if is_lie(data):
            checks.append(("nijenhuis", pinned["nijenhuis"], is_nijenhuis(data)))
        for which, by_degree in pinned.get("betti", {}).items():
            for degree, numbers in by_degree.items():
                checks.append((f"{which}[{degree}]", numbers, betti_oracle(data, which, degree)))
        for label, want, got in checks:
            status = "ok" if want == got else "MISMATCH"
            bad += want != got
            print(f"{name:12s} {label:10s} pinned={want} oracle={got} {status}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
