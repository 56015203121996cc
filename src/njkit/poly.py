"""Rational polynomials in ``x1 .. xn`` and the index helpers of the form types.

:class:`Poly` is the coefficient ring of every form, field and algebroid in
the package. The helpers below check the strictly increasing index tuples
that key the form entries, and enumerate the monomial basis that the sweeps
and the slice complexes run over; sorting and merging index words with
their signs is in :mod:`njkit.exact`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add as _add_exps
from typing import Iterator, Mapping

from .exact import Rational, format_rational, parse_rational

# ASCII digits only, as in the rational literals of :mod:`njkit.exact`.
_FACTOR_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")


@dataclass(frozen=True)
class Poly:
    """A polynomial in ``x1 .. xn`` over the rationals, stored term-sparsely.

    ``terms`` maps exponent tuples of length ``n_vars`` to nonzero
    coefficients; the zero polynomial has no terms at all.
    """

    n_vars: int
    terms: Mapping[tuple[int, ...], Rational] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # n_vars == 0 is allowed: constants, used by structures over a point.
        if self.n_vars < 0:
            raise ValueError("n_vars must be >= 0")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            key = tuple(exps)
            if len(key) != self.n_vars or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {key} for {self.n_vars} variables")
            c = Fraction(coeff)
            if c:
                clean[key] = clean.get(key, Fraction(0)) + c
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n_vars: int, terms: dict[tuple[int, ...], Fraction]) -> "Poly":
        """Wrap ``terms`` as they are: no key check, no conversion.

        Only for results of internal operations: every key a tuple of
        ``n_vars`` exponents, every value a nonzero ``Fraction``.
        """
        poly = object.__new__(cls)
        poly.__dict__.update(n_vars=n_vars, terms=terms)
        return poly

    @classmethod
    def zero(cls, n_vars: int) -> "Poly":
        return cls._trusted(n_vars, {})

    @classmethod
    def const(cls, n_vars: int, value: Rational | int) -> "Poly":
        c = Fraction(value)
        return cls._trusted(n_vars, {(0,) * n_vars: c} if c else {})

    @classmethod
    def variable(cls, n_vars: int, i: int) -> "Poly":
        """The coordinate ``x_i`` (1-based) as a polynomial."""
        if not 1 <= i <= n_vars:
            raise ValueError(f"variable index {i} out of range 1..{n_vars}")
        exps = [0] * n_vars
        exps[i - 1] = 1
        return cls._trusted(n_vars, {tuple(exps): Fraction(1)})

    @classmethod
    def parse(cls, text: str, n_vars: int) -> "Poly":
        """Parse a signed sum of terms ``c*x1^a1*x2^a2*...``.

        ``c`` is a rational literal ``p`` or ``p/q`` and may be omitted when
        a variable factor is present; ``^1`` may be omitted too. Whitespace
        is insignificant.

        >>> Poly.parse("3*x1^2 - 1/2*x2", 2) == Poly(2, {(2, 0): 3, (0, 1): Fraction(-1, 2)})
        True
        """
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ValueError("empty polynomial string")
        out: dict[tuple[int, ...], Fraction] = {}
        pos = 0
        while pos < len(s):
            sign = 1
            if s[pos] == "+":
                pos += 1
            elif s[pos] == "-":
                sign = -1
                pos += 1
            end = pos
            while end < len(s) and s[end] not in "+-":
                end += 1
            if end == pos:
                raise ValueError(f"dangling sign in polynomial: {text!r}")
            coeff = Fraction(sign)
            exps = [0] * n_vars
            for factor in s[pos:end].split("*"):
                m = _FACTOR_RE.match(factor)
                if m:
                    idx = int(m.group(1))
                    if not 1 <= idx <= n_vars:
                        raise ValueError(f"variable x{idx} out of range for n_vars={n_vars}")
                    exps[idx - 1] += int(m.group(2) or 1)
                else:
                    coeff *= parse_rational(factor)
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + coeff
            pos = end
        return cls(n_vars, out)

    def format(self) -> str:
        """Render in the :meth:`parse` syntax with a deterministic term order."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), e)):
            c = self.terms[exps]
            factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, format_rational(abs(c)))
            term = "*".join(factors)
            if not chunks:
                chunks.append(term if c > 0 else "-" + term)
            else:
                chunks.append(("+ " if c > 0 else "- ") + term)
        return " ".join(chunks)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged[key] + c if key in merged else c
        return Poly._trusted(self.n_vars, {key: c for key, c in merged.items() if c})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def neg(self) -> "Poly":
        return Poly._trusted(self.n_vars, {key: -c for key, c in self.terms.items()})

    def scale(self, factor: Rational | int) -> "Poly":
        f = Fraction(factor)
        if not f:
            return Poly.zero(self.n_vars)
        return Poly._trusted(self.n_vars, {key: c * f for key, c in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        # Most products in the form calculus have a frame-section factor 1.
        if other._is_one():
            return self
        if self._is_one():
            return other
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(_add_exps, e1, e2))
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return Poly._trusted(self.n_vars, {key: c for key, c in out.items() if c})

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to ``x_i`` (1-based)."""
        if not 1 <= i <= self.n_vars:
            raise ValueError(f"variable index {i} out of range 1..{self.n_vars}")
        # Lowering the i-th exponent is injective on the terms it keeps, so
        # no two terms meet and no coefficient cancels.
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i - 1]
            if e:
                out[exps[: i - 1] + (e - 1,) + exps[i:]] = c * e
        return Poly._trusted(self.n_vars, out)

    def _is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((0,) * self.n_vars) == 1

    def _check_compatible(self, other: "Poly") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("polynomials live over different variable counts")


def _check_index_tuple(key: tuple[int, ...], degree: int, n_vars: int) -> None:
    if len(key) != degree:
        raise ValueError(f"index tuple {key} has wrong length for degree {degree}")
    if any(not 1 <= i <= n_vars for i in key):
        raise ValueError(f"index tuple {key} out of range 1..{n_vars}")
    if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
        raise ValueError(f"index tuple {key} must be strictly increasing")


def _monomials(n_vars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples over ``n_vars`` variables of total degree ``degree``,
    in descending lexicographic order (``x1^degree`` first)."""
    if n_vars == 0:
        if degree == 0:
            yield ()
        return
    for e in range(degree, -1, -1):
        for rest in _monomials(n_vars - 1, degree - e):
            yield (e,) + rest
