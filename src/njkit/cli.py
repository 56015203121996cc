"""Command-line front end: parse structure files, dispatch, report.

Input files are JSON. Rationals are strings like ``"3"`` or ``"-1/2"``;
polynomials use the same syntax the polynomial parser accepts
(``"x1^2*x2 + 1/2"``). Three file kinds are recognized:

* Lie algebra files: ``dim``, optional ``basis``, ``brackets`` mapping
  ``"i,j"`` (0-based, i < j) to ``{"k": rational}``, optional ``nijenhuis``
  matrix, optional ``representation`` (``dim`` plus one matrix per
  generator), optional ``rep_nijenhuis`` matrix.
* Algebroid files: ``base_dim``, ``rank``, ``anchor`` (rank x base matrix
  of polynomials), ``structure`` mapping ``"i,j"`` (1-based frame pairs,
  i < j) to a rank-long list of polynomials, optional ``nijenhuis``
  (rank x rank polynomial matrix, entry [i][j] = coefficient of frame
  section i+1 in the image of section j+1).
* Form files: ``n`` plus any of ``left``/``right``/``operator``; forms are
  ``{"degree": k, "entries": {"i1,..,ik|a": polynomial}}`` with 1-based
  indices, operators are n x n polynomial matrices.

Reports are stable-ordered JSON (rationals as strings, never floats) or
flat ``key: value`` text lines. Exit codes: 0 on success with valid
structures, 2 when a validity check fails, 3 on parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Mapping, Sequence

from .algebroid import (
    AlgebroidForm,
    ConePair,
    GradedField,
    PolyAlgebroid,
    algebroid_mc_residual,
    algebroid_torsion,
    validate_algebroid,
    _delta_njld,
    _validate_phi_chain_map,
)
from .braces import mc_candidate, mc_residual
from .cohomology import betti, les_verify
from .exact import Rational, format_rational, parse_rational
from .forms import (
    VectorValuedForm,
    fn_bracket,
    nijenhuis_torsion_form,
    _poincare,
)
from .lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    adjoint_nijenhuis,
    nijenhuis_torsion,
    validate_lie,
    validate_nijenhuis,
    validate_nijenhuis_representation,
    validate_representation,
)
from .poly import Poly


class InputError(ValueError):
    """Unparseable input: malformed JSON, a schema violation, or a missing
    file. Always mapped to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, sub-action, inputs and bounds."""

    command: str
    action: str | None = None
    paths: tuple[str, ...] = ()
    complex_name: str | None = None
    max_degree: int = 3
    max_poly_degree: int = 2
    n: int = 2
    n_max: int = 2
    output_format: str = "json"
    seed: int = 0
    quiet: bool = False

    def __post_init__(self) -> None:
        if self.command not in _HANDLERS:
            raise InputError(f"unknown command {self.command!r}")
        if self.output_format not in ("json", "text"):
            raise InputError("format must be 'json' or 'text'")
        for name in ("max_degree", "max_poly_degree", "n", "n_max"):
            if getattr(self, name) < 1:
                # The one field not named like its flag: --max-poly-deg.
                flag = "max-poly-deg" if name == "max_poly_degree" else name.replace("_", "-")
                raise InputError(f"--{flag} must be positive")
        if self.command == "mc" and self.n_max < 2:
            # The bracket has arity 2: below that no equation is evaluated.
            raise InputError("--n-max must be at least 2 for mc (the bracket has arity 2)")


# ---------------------------------------------------------------------------
# Schema helpers


def _expect_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where}: expected a JSON object")
    return value


def _expect_keys(data: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InputError(f"{where}: unknown field {unknown[0]!r}")


def _expect_int(data: Mapping, key: str, where: str, minimum: int) -> int:
    if key not in data:
        raise InputError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{where}.{key}: expected an integer")
    if value < minimum:
        raise InputError(f"{where}.{key}: must be >= {minimum}")
    return value


def _index(text: str) -> int:
    """An integer index in a key, an integer flag or ``NJK_SEED``: ASCII
    digits with an optional sign, as ``int`` reads them. ``int`` alone also
    takes ``_`` separators and the digits of other scripts, which the
    grammar excludes."""
    s = text.strip()
    if not (s.isascii() and s.lstrip("+-").isdigit()):
        raise ValueError(f"not an index: {text!r}")
    return int(s)


def _int_flag(text: str) -> int:
    """The argparse type of the integer flags: :func:`_index`, refused in
    the words argparse uses for ``type=int``."""
    try:
        return _index(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _rational(value: Any, where: str) -> Rational:
    if not isinstance(value, str):
        raise InputError(f"{where}: rationals must be strings like '-1/2'")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _polynomial(value: Any, n_vars: int, where: str) -> Poly:
    if not isinstance(value, str):
        raise InputError(f"{where}: polynomials must be strings")
    try:
        return Poly.parse(value, n_vars)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _pair_key(key: str, where: str, low: int, high: int) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise InputError(f"{where}: key {key!r} is not of the form 'i,j'")
    try:
        i, j = (_index(p) for p in parts)
    except ValueError:
        raise InputError(f"{where}: key {key!r} is not of the form 'i,j'") from None
    if not (low <= i < j <= high):
        raise InputError(
            f"{where}: key {key!r} out of range (need {low} <= i < j <= {high})"
        )
    return i, j


def _matrix(
    value: Any, nrows: int, ncols: int, where: str, cell: Callable[[Any, str], Any]
) -> tuple[tuple, ...]:
    """A ``nrows`` x ``ncols`` JSON matrix, each entry read by ``cell(value, where)``."""
    if not isinstance(value, list) or len(value) != nrows:
        raise InputError(f"{where}: expected {nrows} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != ncols:
            raise InputError(f"{where}[{i}]: expected {ncols} entries")
        rows.append(tuple(cell(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(rows)


def _rational_matrix(value: Any, dim: int, where: str) -> Endomorphism:
    return Endomorphism(dim, _matrix(value, dim, dim, where, _rational))


def _poly_matrix(
    value: Any, nrows: int, ncols: int, n_vars: int, where: str
) -> tuple[tuple[Poly, ...], ...]:
    return _matrix(value, nrows, ncols, where, lambda v, here: _polynomial(v, n_vars, here))


def _operator_entries(
    value: Any, n: int, n_vars: int, where: str
) -> dict[tuple[tuple[int, ...], int], Poly]:
    """An n x n polynomial operator matrix as degree-1 form entries: entry
    ``[i][j]``, the coefficient of frame section i+1 in the image of section
    j+1, goes to the key ``((j+1,), i+1)``."""
    rows = _poly_matrix(value, n, n, n_vars, where)
    return {((j,), i): rows[i - 1][j - 1] for i in range(1, n + 1) for j in range(1, n + 1)}


# ---------------------------------------------------------------------------
# Lie algebra files


@dataclass(frozen=True)
class LieInput:
    algebra: LieAlgebra
    operator: Endomorphism | None
    representation: Representation | None
    rep_operator: Endomorphism | None


def parse_lie_file(data: Any, where: str = "input") -> LieInput:
    data = _expect_object(data, where)
    _expect_keys(
        data,
        ("dim", "basis", "brackets", "nijenhuis", "representation", "rep_nijenhuis"),
        where,
    )
    dim = _expect_int(data, "dim", where, minimum=1)

    names = None
    if "basis" in data:
        raw = data["basis"]
        if (
            not isinstance(raw, list)
            or len(raw) != dim
            or not all(isinstance(s, str) for s in raw)
        ):
            raise InputError(f"{where}.basis: expected {dim} strings")
        names = tuple(raw)

    table: dict[tuple[int, int], tuple] = {}
    brackets = _expect_object(data.get("brackets", {}), f"{where}.brackets")
    for key, inner in brackets.items():
        here = f"{where}.brackets[{key!r}]"
        i, j = _pair_key(key, f"{where}.brackets", 0, dim - 1)
        inner = _expect_object(inner, here)
        vec = [Fraction(0)] * dim
        for kstr, cell in inner.items():
            try:
                k = _index(kstr)
            except ValueError:
                raise InputError(f"{here}: component key {kstr!r} is not an integer")
            if not 0 <= k < dim:
                raise InputError(f"{here}: component index {k} out of range 0..{dim - 1}")
            vec[k] = _rational(cell, f"{here}[{kstr!r}]")
        table[(i, j)] = tuple(vec)
    algebra = LieAlgebra(dim, table, basis_names=names)

    operator = None
    if "nijenhuis" in data:
        operator = _rational_matrix(data["nijenhuis"], dim, f"{where}.nijenhuis")

    representation = None
    rep_operator = None
    if "representation" in data:
        rep = _expect_object(data["representation"], f"{where}.representation")
        _expect_keys(rep, ("dim", "matrices"), f"{where}.representation")
        rdim = _expect_int(rep, "dim", f"{where}.representation", minimum=1)
        mats = rep.get("matrices")
        if not isinstance(mats, list) or len(mats) != dim:
            raise InputError(
                f"{where}.representation.matrices: expected one matrix per generator"
            )
        actions = tuple(
            _rational_matrix(m, rdim, f"{where}.representation.matrices[{g}]")
            for g, m in enumerate(mats)
        )
        representation = Representation(algebra, rdim, actions)
        if "rep_nijenhuis" in data:
            rep_operator = _rational_matrix(
                data["rep_nijenhuis"], rdim, f"{where}.rep_nijenhuis"
            )
    elif "rep_nijenhuis" in data:
        raise InputError(f"{where}.rep_nijenhuis: requires a representation")

    return LieInput(algebra, operator, representation, rep_operator)


# ---------------------------------------------------------------------------
# Algebroid files


@dataclass(frozen=True)
class AlgebroidInput:
    algebroid: PolyAlgebroid
    operator: AlgebroidForm | None


def parse_algebroid_file(data: Any, where: str = "input") -> AlgebroidInput:
    data = _expect_object(data, where)
    _expect_keys(data, ("base_dim", "rank", "anchor", "structure", "nijenhuis"), where)
    base_dim = _expect_int(data, "base_dim", where, minimum=0)
    rank = _expect_int(data, "rank", where, minimum=1)

    anchor = _poly_matrix(
        data.get("anchor", [[] for _ in range(rank)]),
        rank,
        base_dim,
        base_dim,
        f"{where}.anchor",
    )

    structure: dict[tuple[int, int], tuple[Poly, ...]] = {}
    raw = _expect_object(data.get("structure", {}), f"{where}.structure")
    for key, value in raw.items():
        here = f"{where}.structure[{key!r}]"
        i, j = _pair_key(key, f"{where}.structure", 1, rank)
        if not isinstance(value, list) or len(value) != rank:
            raise InputError(f"{here}: expected {rank} polynomial components")
        structure[(i, j)] = tuple(
            _polynomial(cell, base_dim, f"{here}[{k}]") for k, cell in enumerate(value)
        )
    algebroid = PolyAlgebroid(base_dim, rank, anchor, structure)

    operator = None
    if "nijenhuis" in data:
        entries = _operator_entries(data["nijenhuis"], rank, base_dim, f"{where}.nijenhuis")
        operator = AlgebroidForm(base_dim, rank, 1, entries)

    return AlgebroidInput(algebroid, operator)


# ---------------------------------------------------------------------------
# Form files


@dataclass(frozen=True)
class FormsInput:
    n: int
    left: VectorValuedForm | None
    right: VectorValuedForm | None
    operator: VectorValuedForm | None


def _parse_form(data: Any, n: int, where: str) -> VectorValuedForm:
    data = _expect_object(data, where)
    _expect_keys(data, ("degree", "entries"), where)
    degree = _expect_int(data, "degree", where, minimum=0)
    entries: dict[tuple[tuple[int, ...], int], Poly] = {}
    raw = _expect_object(data.get("entries", {}), f"{where}.entries")
    for key, cell in raw.items():
        here = f"{where}.entries[{key!r}]"
        head, sep, tail = key.partition("|")
        if not sep:
            raise InputError(f"{here}: key must look like 'i1,..,ik|a'")
        try:
            idx = tuple(_index(p) for p in head.split(",")) if head else ()
            out = _index(tail)
        except ValueError:
            raise InputError(f"{here}: key must look like 'i1,..,ik|a'") from None
        if len(idx) != degree:
            raise InputError(f"{here}: expected {degree} input indices")
        if any(not 1 <= t <= n for t in idx) or tuple(sorted(set(idx))) != idx:
            raise InputError(
                f"{here}: indices must be strictly increasing within 1..{n}"
            )
        if not 1 <= out <= n:
            raise InputError(f"{here}: output index {out} out of range 1..{n}")
        entries[(idx, out)] = _polynomial(cell, n, here)
    return VectorValuedForm(n, degree, entries)


def _form_json(K: VectorValuedForm | AlgebroidForm) -> dict:
    degree = K.form_degree
    entries = {
        ",".join(str(t) for t in idx) + f"|{out}": poly.format()
        for (idx, out), poly in sorted(K.entries.items())
    }
    return {"degree": degree, "entries": entries}


def parse_forms_file(data: Any, where: str = "input") -> FormsInput:
    data = _expect_object(data, where)
    _expect_keys(data, ("n", "left", "right", "operator"), where)
    n = _expect_int(data, "n", where, minimum=1)
    left = _parse_form(data["left"], n, f"{where}.left") if "left" in data else None
    right = _parse_form(data["right"], n, f"{where}.right") if "right" in data else None
    operator = None
    if "operator" in data:
        entries = _operator_entries(data["operator"], n, n, f"{where}.operator")
        operator = VectorValuedForm(n, 1, entries)
    return FormsInput(n, left, right, operator)


# ---------------------------------------------------------------------------
# Dispatch


def _load_document(path: str) -> Any:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _single_document(config: RunConfig) -> Any:
    if len(config.paths) != 1:
        raise InputError(f"{config.command}: expected exactly one input file")
    return _load_document(config.paths[0])


def _require(value, field: str):
    if value is None:
        raise InputError(f"input: missing field {field!r}")
    return value


def _valid_pair(
    inp: LieInput,
) -> tuple[NijenhuisLieAlgebra, NijenhuisRepresentation] | dict:
    """The (algebra, module) pair, the module defaulting to the adjoint,
    once every validity report of the input passes; otherwise the
    "invalid" payload listing the reports."""
    reports = [validate_lie(inp.algebra)]
    operator = _require(inp.operator, "nijenhuis")
    reports.append(validate_nijenhuis(inp.algebra, operator))
    if inp.representation is not None:
        reports.append(validate_representation(inp.representation))
        if inp.rep_operator is not None:
            reports.append(
                validate_nijenhuis_representation(
                    inp.representation, operator, inp.rep_operator
                )
            )
    if not all(r.ok for r in reports):
        return {"verdict": "invalid", "reports": [r.to_dict() for r in reports]}
    nja = NijenhuisLieAlgebra(inp.algebra, operator)
    if inp.representation is None:
        return nja, adjoint_nijenhuis(nja)
    rep_op = inp.rep_operator
    if rep_op is None:
        rep_op = Endomorphism.diagonal([0] * inp.representation.dim)
    return nja, NijenhuisRepresentation(inp.representation, rep_op)


def _cmd_check(config: RunConfig) -> tuple[bool, dict]:
    data = _single_document(config)
    if config.action == "algebroid":
        inp = parse_algebroid_file(data)
        reports = [validate_algebroid(inp.algebroid)]
    else:
        lie_inp = parse_lie_file(data)
        if config.action == "lie":
            reports = [validate_lie(lie_inp.algebra)]
        elif config.action == "nijenhuis":
            operator = _require(lie_inp.operator, "nijenhuis")
            reports = [
                validate_lie(lie_inp.algebra),
                validate_nijenhuis(lie_inp.algebra, operator),
            ]
        else:  # rep
            rep = _require(lie_inp.representation, "representation")
            reports = [validate_lie(lie_inp.algebra), validate_representation(rep)]
            if lie_inp.operator is not None and lie_inp.rep_operator is not None:
                reports.append(
                    validate_nijenhuis(lie_inp.algebra, lie_inp.operator)
                )
                reports.append(
                    validate_nijenhuis_representation(
                        rep, lie_inp.operator, lie_inp.rep_operator
                    )
                )
    ok = all(r.ok for r in reports)
    verdict = "valid" if ok else "invalid"
    return ok, {"verdict": verdict, "reports": [r.to_dict() for r in reports]}


def _cmd_cohomology(config: RunConfig) -> tuple[bool, dict]:
    inp = parse_lie_file(_single_document(config))
    if inp.operator is None and config.complex_name == "ce":
        # The plain complex ignores the operator; default it to zero.
        inp = LieInput(
            inp.algebra,
            Endomorphism.diagonal([0] * inp.algebra.dim),
            inp.representation,
            inp.rep_operator,
        )
    pair = _valid_pair(inp)
    if isinstance(pair, dict):
        return False, pair
    table = betti(*pair, config.complex_name, config.max_degree)
    return True, {"verdict": "valid", "betti": table.to_dict()}


def _cmd_mc(config: RunConfig) -> tuple[bool, dict]:
    inp = parse_lie_file(_single_document(config))
    operator = _require(inp.operator, "nijenhuis")
    report = mc_residual(mc_candidate(inp.algebra, operator), config.n_max)
    return report.ok, {"mc": report.to_dict()}


def _cmd_fn_bracket(config: RunConfig) -> tuple[bool, dict]:
    inp = parse_forms_file(_single_document(config))
    left = _require(inp.left, "left")
    right = _require(inp.right, "right")
    result = fn_bracket(left, right)
    return True, {
        "n": inp.n,
        "left_degree": left.form_degree,
        "right_degree": right.form_degree,
        "result": _form_json(result),
    }


def _torsion_entries(table: Mapping[tuple[int, int], tuple]) -> dict[str, list[str]]:
    out = {}
    for (i, j) in sorted(table):
        vec = table[(i, j)]
        if any(vec):
            out[f"{i},{j}"] = [format_rational(c) for c in vec]
    return out


def _cmd_torsion(config: RunConfig) -> tuple[bool, dict]:
    data = _expect_object(_single_document(config), "input")
    if "dim" in data:
        inp = parse_lie_file(data)
        operator = _require(inp.operator, "nijenhuis")
        entries = _torsion_entries(nijenhuis_torsion(inp.algebra, operator))
        return True, {"kind": "lie", "torsion": entries, "is_zero": not entries}
    if "base_dim" in data:
        ainp = parse_algebroid_file(data)
        operator = _require(ainp.operator, "nijenhuis")
        torsion = algebroid_torsion(ainp.algebroid, operator)
        return True, {
            "kind": "algebroid",
            "torsion": _form_json(torsion),
            "is_zero": torsion.is_zero(),
        }
    if "n" in data:
        finp = parse_forms_file(data)
        operator = _require(finp.operator, "operator")
        torsion = nijenhuis_torsion_form(operator)
        return True, {
            "kind": "forms",
            "torsion": _form_json(torsion),
            "is_zero": torsion.is_zero(),
        }
    raise InputError("input: expected a 'dim', 'base_dim' or 'n' field")


def _cmd_poincare(config: RunConfig) -> tuple[bool, dict]:
    degrees = list(range(config.n + 1))
    homotopy, tables = _poincare(config.n, config.max_poly_degree, degrees, config.n)
    all_zero = all(b == 0 for table in tables.values() for b in table.betti)
    ok = homotopy.ok and all_zero
    return ok, {
        "n": config.n,
        "max_poly_degree": config.max_poly_degree,
        "homotopy": homotopy.to_dict(),
        "betti": {str(d): tables[d].to_dict() for d in sorted(tables)},
        "all_zero": all_zero,
    }


def _random_poly(rng: random.Random, n_vars: int) -> Poly:
    terms = {}
    for _ in range(2):
        exps = [0] * n_vars
        if n_vars and rng.randint(0, 1):
            exps[rng.randrange(n_vars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-2, 2))
    return Poly(n_vars, terms)


def _random_cone_pair(
    rng: random.Random, m: int, n: int, degree: int
) -> ConePair:
    a_part = {
        (I, alpha): _random_poly(rng, m)
        for I in combinations(range(1, n + 1), degree)
        for alpha in range(1, m + 1)
    }
    d_part = {
        (J, beta): _random_poly(rng, m)
        for J in combinations(range(1, n + 1), degree + 1)
        for beta in range(1, n + 1)
    }
    entries = {
        (I, q): _random_poly(rng, m)
        for I in combinations(range(1, n + 1), degree)
        for q in range(1, n + 1)
    }
    return ConePair(
        GradedField(m, n, degree, a_part, d_part),
        AlgebroidForm(m, n, degree, entries),
    )


def _cmd_algebroid(config: RunConfig) -> tuple[bool, dict]:
    inp = parse_algebroid_file(_single_document(config))
    A = inp.algebroid

    if config.action == "mc":
        operator = _require(inp.operator, "nijenhuis")
        report = algebroid_mc_residual(A, operator)
        return report.ok, {"mc": report.to_dict()}

    operator = _require(inp.operator, "nijenhuis")
    axioms = validate_algebroid(A)
    if not axioms.ok:
        return False, {"verdict": "invalid", "reports": [axioms.to_dict()]}
    torsion = algebroid_torsion(A, operator)
    if not torsion.is_zero():
        return False, {
            "verdict": "torsion nonzero",
            "reports": [axioms.to_dict()],
            "torsion": _form_json(torsion),
        }

    if config.action == "phi":
        chain = _validate_phi_chain_map(A, operator, seed=config.seed)
        return chain.ok, {
            "verdict": "valid" if chain.ok else "invalid",
            "reports": [axioms.to_dict(), chain.to_dict()],
        }

    # njld: the coupled differential squares to zero on sampled elements.
    # The axioms and the torsion are checked above, once for all samples.
    rng = random.Random(config.seed)
    checked = 0
    failures = 0
    for degree in range(0, 3):
        for _ in range(2):
            pair = _random_cone_pair(rng, A.base_dim, A.rank, degree)
            if not _delta_njld(A, operator, _delta_njld(A, operator, pair)).is_zero():
                failures += 1
            checked += 1
    ok = failures == 0
    return ok, {
        "verdict": "valid" if ok else "invalid",
        "reports": [axioms.to_dict()],
        "squares_checked": checked,
        "failures": failures,
    }


def _cmd_les(config: RunConfig) -> tuple[bool, dict]:
    inp = parse_lie_file(_single_document(config))
    pair = _valid_pair(inp)
    if isinstance(pair, dict):
        return False, pair
    table = les_verify(*pair, config.max_degree)
    return table.ok, {"verdict": "valid" if table.ok else "invalid", "les": table.to_dict()}


_HANDLERS = {
    "check": _cmd_check,
    "cohomology": _cmd_cohomology,
    "mc": _cmd_mc,
    "fn-bracket": _cmd_fn_bracket,
    "torsion": _cmd_torsion,
    "poincare": _cmd_poincare,
    "algebroid": _cmd_algebroid,
    "les": _cmd_les,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Dispatch one invocation; returns (exit code, report).

    Raises InputError for anything that should exit with code 3.
    """
    for path in config.paths:
        if path != "-" and not os.path.isfile(path):
            raise InputError(f"input file not found: {path}")
    ok, payload = _HANDLERS[config.command](config)
    command = config.command if config.action is None else f"{config.command} {config.action}"
    report: dict[str, Any] = {
        "command": command,
        "seed": config.seed,
        "inputs": list(config.paths),
        "ok": ok,
    }
    report.update(payload)
    return (0 if ok else 2), report


# ---------------------------------------------------------------------------
# Front end


def _render_text(value: Any, path: str, lines: list[str]) -> None:
    if isinstance(value, Mapping):
        for key, item in value.items():
            _render_text(item, f"{path}.{key}" if path else str(key), lines)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for idx, item in enumerate(value):
            _render_text(item, f"{path}[{idx}]", lines)
    elif isinstance(value, bool):
        lines.append(f"{path}: {'yes' if value else 'no'}")
    elif isinstance(value, str):
        lines.append(f"{path}: {value}")
    else:
        lines.append(f"{path}: {json.dumps(value)}")


def render_report(report: Mapping, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(report, indent=2)
    lines: list[str] = []
    _render_text(report, "", lines)
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``njk`` parser, built on first use and shared by later calls;
    ``parse_args`` keeps no state between calls."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=_int_flag, default=None)
    common.add_argument("--quiet", action="store_true")

    parser = _Parser(prog="njk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common])
    p.add_argument("kind", choices=("lie", "nijenhuis", "rep", "algebroid"))
    p.add_argument("path")

    p = sub.add_parser("cohomology", parents=[common])
    p.add_argument("--complex", required=True, choices=("ce", "njo", "njl"))
    p.add_argument("--max-degree", type=_int_flag, default=3)
    p.add_argument("path")

    p = sub.add_parser("mc", parents=[common])
    p.add_argument("--n-max", type=_int_flag, default=2)
    p.add_argument("path")

    p = sub.add_parser("fn-bracket", parents=[common])
    p.add_argument("path")

    p = sub.add_parser("torsion", parents=[common])
    p.add_argument("path")

    p = sub.add_parser("poincare", parents=[common])
    p.add_argument("--n", type=_int_flag, default=2)
    p.add_argument("--max-poly-deg", type=_int_flag, default=2)

    p = sub.add_parser("algebroid", parents=[common])
    p.add_argument("action", choices=("phi", "njld", "mc"))
    p.add_argument("path")

    p = sub.add_parser("les", parents=[common])
    p.add_argument("--max-degree", type=_int_flag, default=3)
    p.add_argument("path")

    return parser


def _resolve_seed(raw: int | None) -> int:
    if raw is not None:
        return raw
    env = os.environ.get("NJK_SEED")
    if env is None:
        return 0
    try:
        return _index(env)
    except ValueError:
        raise InputError("NJK_SEED must be an integer") from None


def config_from_args(argv: Sequence[str] | None = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    return RunConfig(
        command=args.command,
        action=getattr(args, "kind", None) or getattr(args, "action", None),
        paths=(args.path,) if hasattr(args, "path") else (),
        complex_name=getattr(args, "complex", None),
        max_degree=getattr(args, "max_degree", 3),
        max_poly_degree=getattr(args, "max_poly_deg", 2),
        n=getattr(args, "n", 2),
        n_max=getattr(args, "n_max", 2),
        output_format=args.format,
        seed=_resolve_seed(args.seed),
        quiet=args.quiet,
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = config_from_args(argv)
        code, report = run(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not config.quiet:
        print(render_report(report, config.output_format))
    return code


if __name__ == "__main__":
    sys.exit(main())
