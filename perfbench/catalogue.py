"""Base structures, seeded rebasing and the pinned reference table.

Every structure here is plain data (rationals as ``Fraction``) so that the
benchmark can hand it to ``njkit`` either as objects or as an ``njk`` input
file. The Betti numbers and verdicts in ``REFERENCE`` were pinned by routes
independent of the ones the benchmark times (see ``pin_reference.py``); they
are isomorphism invariants, so every seeded change of basis must reproduce
them exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


@dataclass(frozen=True)
class LieData:
    """A Lie algebra with an operator: ``brackets[(i, j)] = {k: c}`` for
    ``i < j`` and ``operator[i][j]`` = coefficient of ``e_i`` in ``P(e_j)``."""

    dim: int
    brackets: dict
    operator: tuple


def _diag(values) -> tuple:
    n = len(values)
    return tuple(tuple(F(values[i]) if i == j else F(0) for j in range(n)) for i in range(n))


def _rows(rows) -> tuple:
    return tuple(tuple(F(c) for c in row) for row in rows)


def _book(dim: int, diag) -> LieData:
    # [e0, ei] = ei: every diagonal operator has zero torsion.
    return LieData(dim, {(0, i): {i: F(1)} for i in range(1, dim)}, _diag(diag))


_SL2 = {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}}

# sl2 acting on a second copy of itself by the adjoint action (h, e, f, H, E, F).
_SL2_SEMIDIRECT = dict(_SL2)
_SL2_SEMIDIRECT.update(
    {
        (0, 4): {4: F(2)},
        (0, 5): {5: F(-2)},
        (1, 3): {4: F(-2)},
        (1, 5): {3: F(1)},
        (2, 3): {5: F(2)},
        (2, 4): {3: F(-1)},
    }
)

# Structures of the cone-betti and twisted-linfty workloads.
LARGE = {
    "sl2xsl2": LieData(6, _SL2_SEMIDIRECT, _diag([1, 1, 2, 1, 1, 2])),
    "book6": _book(6, [1, 2, 3, -1, 2, 5]),
    "book5": _book(5, [1, 2, 3, -1, 2]),
}

# Structures of the small-jobs workload; the last two are invalid on purpose.
SMALL = {
    "solv2": LieData(2, {(0, 1): {0: F(1)}}, _diag([1, 2])),
    "abelian2": LieData(2, {}, _rows([[1, 2], [0, 1]])),
    "sl2": LieData(3, dict(_SL2), _diag([1, 1, 2])),
    "sl2-scalar": LieData(3, dict(_SL2), _diag([2, 2, 2])),
    "heis3": LieData(3, {(0, 1): {2: F(1)}}, _diag([1, 2, 1])),
    "book3": _book(3, [1, 2, 3]),
    "book4": _book(4, [1, 2, 2, 3]),
    "gl2": LieData(4, dict(_SL2), _diag([1, 1, 2, 3])),  # sl2 plus a centre
    # Jacobi fails on (e0, e1, e2).
    "broken3": LieData(
        3, {(0, 1): {2: F(1)}, (0, 2): {0: F(1)}, (1, 2): {1: F(3)}}, _diag([1, 1, 1])
    ),
    # A valid bracket with an operator of nonzero torsion: T(e, f) = P^2 h = h.
    "sl2-twisted": LieData(3, dict(_SL2), _diag([1, 0, 0])),
}

VALID_SMALL = ("solv2", "abelian2", "sl2", "sl2-scalar", "heis3", "book3", "book4", "gl2")

# Pinned answers. ``betti[complex][max_degree]`` lists b_0..b_max_degree;
# ``lie``/``nijenhuis`` are the validity verdicts. The Maurer-Cartan residual
# vanishes exactly when both verdicts are true.
REFERENCE = {
    "sl2xsl2": {
        "betti": {
            "ce": {1: [0, 1]},
            "njo": {1: [2, 12]},
            "njl": {1: [0, 3], 2: [0, 3, 13], 3: [0, 3, 13, 26]},
        },
    },
    "book6": {
        "betti": {
            "ce": {1: [0, 24]},
            "njo": {1: [1, 31]},
            "njl": {1: [0, 7], 2: [0, 7, 19], 3: [0, 7, 19, 22]},
        },
    },
    "book5": {
        "betti": {
            "ce": {1: [0, 15]},
            "njo": {1: [1, 21]},
            "njl": {1: [0, 6], 2: [0, 6, 16], 3: [0, 6, 16, 16]},
        },
    },
    "solv2": {"betti": {"ce": {2: [0, 0, 0]}, "njo": {2: [1, 3, 2]}, "njl": {2: [0, 1, 3]}}},
    "abelian2": {"betti": {"ce": {2: [2, 4, 2]}, "njo": {2: [2, 4, 2]}, "njl": {2: [0, 2, 4]}}},
    "sl2": {"betti": {"ce": {2: [0, 0, 0]}, "njo": {2: [1, 4, 4]}, "njl": {2: [0, 1, 4]}}},
    "sl2-scalar": {"betti": {"ce": {2: [0, 0, 0]}, "njo": {2: [3, 9, 9]}, "njl": {2: [0, 3, 9]}}},
    "heis3": {"betti": {"ce": {2: [1, 4, 5]}, "njo": {2: [2, 6, 6]}, "njl": {2: [0, 3, 8]}}},
    "book3": {"betti": {"ce": {2: [0, 3, 3]}, "njo": {2: [1, 7, 7]}, "njl": {2: [0, 2, 6]}}},
    "book4": {"betti": {"ce": {2: [0, 8, 8]}, "njo": {2: [1, 13, 15]}, "njl": {2: [0, 5, 13]}}},
    "gl2": {"betti": {"ce": {2: [1, 1, 0]}, "njo": {2: [2, 6, 8]}, "njl": {2: [0, 2, 6]}}},
}
for _name in SMALL:
    REFERENCE.setdefault(_name, {})
    REFERENCE[_name]["lie"] = _name != "broken3"
    REFERENCE[_name]["nijenhuis"] = _name in VALID_SMALL
for _name in LARGE:
    REFERENCE[_name]["lie"] = REFERENCE[_name]["nijenhuis"] = True


# ---------------------------------------------------------------------------
# Seeded change of basis

_SCALES = tuple(
    sorted({F(p, q) for p in range(1, 6) for q in range(1, 6)})
)

# Scale magnitudes of the large structures, one per basis vector: only their
# placement and signs are seeded, so every rebased copy does about the same
# amount of rational arithmetic and run-to-run cost stays steady.
STEADY_SCALES = (F(1), F(2), F(1, 2), F(3), F(2, 3), F(3, 2))


def rebase(data: LieData, rng: random.Random, magnitudes=None) -> LieData:
    """Apply a seeded signed-permutation-and-scaling change of basis.

    The new basis is ``f_a = s_a e_{pi(a)}``; brackets and operator are
    rewritten in it, so entries and pivot order change while every
    isomorphism invariant (validity, Betti numbers) stays the same. The
    scale magnitudes are a seeded arrangement of ``magnitudes`` when given,
    and free draws otherwise.
    """
    n = data.dim
    pi = list(range(n))
    rng.shuffle(pi)
    if magnitudes is None:
        mags = [rng.choice(_SCALES) for _ in range(n)]
    else:
        mags = rng.sample(list(magnitudes[:n]), n)
    s = [m * rng.choice((1, -1)) for m in mags]
    inv = {pi[a]: a for a in range(n)}

    def old_bracket(i: int, j: int) -> dict:
        if i < j:
            return data.brackets.get((i, j), {})
        return {k: -c for k, c in data.brackets.get((j, i), {}).items()}

    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            out = {}
            for k, c in old_bracket(pi[a], pi[b]).items():
                out[inv[k]] = s[a] * s[b] * c / s[inv[k]]
            if out:
                brackets[(a, b)] = out
    operator = tuple(
        tuple(s[b] * data.operator[pi[a]][pi[b]] / s[a] for b in range(n))
        for a in range(n)
    )
    return LieData(n, brackets, operator)


def fmt(value: Fraction) -> str:
    """A rational in ``njk`` file syntax."""
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def lie_document(data: LieData) -> dict:
    """The ``njk`` Lie-algebra file for ``data`` (JSON-ready)."""
    return {
        "dim": data.dim,
        "brackets": {
            f"{i},{j}": {str(k): fmt(c) for k, c in sorted(vec.items())}
            for (i, j), vec in sorted(data.brackets.items())
        },
        "nijenhuis": [[fmt(c) for c in row] for row in data.operator],
    }


def lie_objects(data: LieData):
    """``(LieAlgebra, Endomorphism)`` for ``data``."""
    from njkit import Endomorphism, LieAlgebra

    table = {
        key: tuple(vec.get(k, F(0)) for k in range(data.dim))
        for key, vec in data.brackets.items()
    }
    return LieAlgebra(data.dim, table), Endomorphism.from_rows(data.operator)


# ---------------------------------------------------------------------------
# Polynomial operators and forms on R^n


def poly_text(terms: dict) -> str:
    """``{exponents: coeff}`` as an ``njk`` polynomial string."""
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e]
        head = fmt(abs(c))
        body = "*".join(([head] if head != "1" or not factors else []) + factors)
        parts.append(("-" if c < 0 else "+") + body)
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


def _coeff(rng: random.Random) -> Fraction:
    return rng.choice(_SCALES) * rng.choice((1, -1))


def diagonal_poly_operator(rng: random.Random, degrees) -> list:
    """``diag(p_1(x_1), ..)`` with ``deg p_i = degrees[i]`` and seeded
    coefficients; each entry depends only on its own coordinate, so the
    operator is Nijenhuis on the trivial algebroid."""
    n = len(degrees)
    rows = [["0"] * n for _ in range(n)]
    for i, d in enumerate(degrees):
        terms = {}
        for e in (0, d):
            exps = tuple(e if t == i else 0 for t in range(n))
            terms[exps] = _coeff(rng)
        rows[i][i] = poly_text(terms)
    return rows


def constant_operator(rng: random.Random, n: int) -> list:
    """A seeded constant matrix; constant operators on the trivial algebroid
    have zero torsion because constant sections commute."""
    return [[fmt(_coeff(rng)) if rng.random() < 0.6 else "0" for _ in range(n)] for _ in range(n)]


def trivial_algebroid_document(n: int, operator: list) -> dict:
    identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return {"base_dim": n, "rank": n, "anchor": identity, "structure": {}, "nijenhuis": operator}


def random_form(rng: random.Random, n: int, degree: int, terms: int) -> dict:
    """A seeded vector-valued ``degree``-form on R^n in ``njk`` syntax.

    Positions, coefficients and which variables appear are seeded; every
    coefficient is ``c x_i^2 x_j + c'`` (``c x_i^2 + c'`` when n = 1), so
    the amount of polynomial arithmetic does not depend on the seed.
    """
    from itertools import combinations

    keys = [(idx, out) for idx in combinations(range(1, n + 1), degree) for out in range(1, n + 1)]
    entries = {}
    for idx, out in rng.sample(keys, min(terms, len(keys))):
        pattern = [2, 1][:n] + [0] * (n - 2)
        rng.shuffle(pattern)
        poly = {tuple(pattern): _coeff(rng), tuple([0] * n): _coeff(rng)}
        entries[",".join(map(str, idx)) + f"|{out}"] = poly_text(poly)
    return {"degree": degree, "entries": entries}
