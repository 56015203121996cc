"""Tests for the command-line front end: schemas, dispatch, exit codes.

Numeric values asserted here (Betti tables, residual counts, torsion
entries) are regression pins produced by the library modules, which have
their own independent oracles in the sibling test files.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import njkit
from njkit.cli import (
    InputError,
    RunConfig,
    _form_json,
    build_parser,
    config_from_args,
    main,
    parse_algebroid_file,
    parse_forms_file,
    parse_lie_file,
)
from njkit.poly import Poly
from oracles import algebroid_torsion_coefficients

FIXTURES = Path(__file__).parent / "fixtures"


def _fix(name: str) -> str:
    return str(FIXTURES / name)


def _run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_lie_and_exit_codes(capsys):
    code, report = _run(capsys, "check", "lie", _fix("sl2.json"))
    assert code == 0
    assert report["command"] == "check lie"
    assert report["ok"] is True
    assert report["verdict"] == "valid"
    assert report["reports"][0]["description"] == "jacobi"

    code, report = _run(capsys, "check", "lie", _fix("bad-jacobi.json"))
    assert code == 2
    assert report["verdict"] == "invalid"


def test_check_nijenhuis_and_rep(capsys):
    code, report = _run(capsys, "check", "nijenhuis", _fix("sl2-diag.json"))
    assert code == 0
    assert [r["description"] for r in report["reports"]] == [
        "jacobi",
        "nijenhuis-torsion",
    ]

    code, report = _run(capsys, "check", "rep", _fix("dim2-rep.json"))
    assert code == 0
    assert [r["description"] for r in report["reports"]] == [
        "jacobi",
        "representation",
        "nijenhuis-torsion",
        "nijenhuis-representation",
    ]


def test_check_algebroid(capsys):
    code, report = _run(capsys, "check", "algebroid", _fix("tangent2.json"))
    assert code == 0
    assert report["reports"][0]["checked"] == 2

    code, report = _run(capsys, "check", "algebroid", _fix("sl2-point.json"))
    assert code == 0
    assert report["reports"][0]["checked"] == 3

    code, report = _run(capsys, "check", "algebroid", _fix("bad-anchor.json"))
    assert code == 2
    assert report["reports"][0]["ok"] is False


def test_check_algebroid_failures_name_their_witness(capsys, monkeypatch):
    code, report = _run(capsys, "check", "algebroid", _fix("bad-anchor.json"))
    assert code == 2
    assert report["reports"][0]["failures"] == [
        {"identity": "anchor", "pair": [1, 2], "component": 1, "coefficient": "-1"}
    ]

    # sl2 over a point with [e2, e3] bent to e1 + e2.
    doc = json.loads((FIXTURES / "sl2-point.json").read_text())
    doc["structure"]["2,3"] = ["1", "1", "0"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, report = _run(capsys, "check", "algebroid", "-")
    assert code == 2
    assert report["reports"][0]["failures"] == [
        {"identity": "jacobi", "triple": [1, 2, 3], "component": 2, "coefficient": "-2"}
    ]


def test_cohomology_tables(capsys):
    code, report = _run(
        capsys,
        "cohomology", "--complex", "njl", "--max-degree", "2",
        _fix("dim2-diag.json"),
    )
    assert code == 0
    table = report["betti"]
    assert table["complex"] == "njl"
    assert table["dims"] == [2, 6, 6]
    assert table["ranks"] == [2, 3, 0]
    assert table["betti"] == [0, 1, 3]

    # Whitehead: the adjoint cohomology of sl2 vanishes in low degrees.
    # The plain complex needs no operator; a zero one is filled in.
    code, report = _run(
        capsys, "cohomology", "--complex", "ce", "--max-degree", "2", _fix("sl2.json")
    )
    assert code == 0
    assert report["betti"]["betti"] == [0, 0, 0]


def test_cohomology_requires_operator_for_twisted_complexes(capsys):
    code = main(["cohomology", "--complex", "njo", _fix("sl2.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "nijenhuis" in err


@pytest.mark.parametrize("complex_name", ["njo", "njl"])
def test_cohomology_of_an_operator_with_torsion_is_invalid(capsys, tmp_path, complex_name):
    # The library refuses Betti numbers here (d^2 != 0); the CLI validates
    # first and reports the operator as invalid.
    doc = json.loads((FIXTURES / "sl2-diag.json").read_text())
    doc["nijenhuis"] = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    path = tmp_path / "sl2-twisted.json"
    path.write_text(json.dumps(doc))
    code = main(["cohomology", "--complex", complex_name, "--max-degree", "3", str(path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["verdict"] == "invalid"
    assert "betti" not in report
    assert captured.err == ""


def test_mc_residual_exit_codes(capsys):
    code, report = _run(capsys, "mc", "--n-max", "2", _fix("sl2-diag.json"))
    assert code == 0
    assert report["mc"]["bracket_residuals"] == {"3": 0}
    assert report["mc"]["operator_residuals"] == {"2": 0}

    code, report = _run(capsys, "mc", _fix("bad-jacobi.json"))
    assert code == 2
    assert report["mc"]["bracket_residuals"]["3"] == 1
    assert report["mc"]["operator_residuals"]["2"] == 0


def test_nonpositive_bound_names_the_flag_the_parser_defines(capsys):
    assert main(["poincare", "--max-poly-deg", "0"]) == 3
    assert capsys.readouterr().err == "error: --max-poly-deg must be positive\n"


def test_mc_rejects_n_max_below_the_bracket_arity(capsys):
    # Truncating at arity 1 would drop the bracket and evaluate nothing.
    assert main(["mc", "--n-max", "1", _fix("bad-jacobi.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and "at least 2" in err

    code, report = _run(capsys, "mc", "--n-max", "2", _fix("bad-jacobi.json"))
    assert code == 2 and report["ok"] is False


def test_fn_bracket_result(capsys):
    code, report = _run(capsys, "fn-bracket", _fix("forms-pair.json"))
    assert code == 0
    assert report["result"] == {"degree": 2, "entries": {"1,2|2": "x1^2"}}


def test_torsion_lie_route(capsys, monkeypatch):
    code, report = _run(capsys, "torsion", _fix("sl2-diag.json"))
    assert code == 0
    assert report["kind"] == "lie"
    assert report["is_zero"] is True
    assert report["torsion"] == {}

    # diag(1, 2, 3) on sl2 has torsion (p2-p1)(p3-p1) h on the (e, f) slot.
    doc = {
        "dim": 3,
        "brackets": {"0,1": {"1": "2"}, "0,2": {"2": "-2"}, "1,2": {"0": "1"}},
        "nijenhuis": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, report = _run(capsys, "torsion", "-")
    assert code == 0
    assert report["is_zero"] is False
    assert report["torsion"] == {"1,2": ["2", "0", "0"]}


def _oracle_torsion(doc: dict) -> dict:
    """The torsion of an algebroid document by the coefficient-formula
    oracle, in the printed layout."""
    inp = parse_algebroid_file(doc)
    return _form_json(algebroid_torsion_coefficients(inp.algebroid, inp.operator))


def test_torsion_forms_and_algebroid_routes(capsys):
    code, report = _run(capsys, "torsion", _fix("operator-form.json"))
    assert code == 0
    assert report["kind"] == "forms"
    assert report["is_zero"] is True

    code, report = _run(capsys, "torsion", _fix("tangent2.json"))
    assert code == 0
    assert report["kind"] == "algebroid"
    assert report["torsion"] == _oracle_torsion(json.loads((FIXTURES / "tangent2.json").read_text()))
    assert report["is_zero"] is True


def _perturbed_tangent() -> dict:
    return {
        "base_dim": 2,
        "rank": 2,
        "anchor": [["1", "0"], ["0", "1"]],
        "structure": {},
        "nijenhuis": [["x1", "0"], ["x1^2", "x2"]],
    }


def test_torsion_algebroid_nonzero_pin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_perturbed_tangent())))
    code, report = _run(capsys, "torsion", "-")
    assert code == 0
    assert report["is_zero"] is False
    assert report["torsion"] == _oracle_torsion(_perturbed_tangent())
    assert report["torsion"]["entries"] == {"1,2|2": "x1^2"}


def test_poincare_verifies_the_contractible_complex(capsys):
    code, report = _run(capsys, "poincare", "--n", "2", "--max-poly-deg", "2")
    assert code == 0
    assert report["all_zero"] is True
    assert report["homotopy"]["ok"] is True
    assert report["homotopy"]["checked"] == 48
    assert set(report["betti"]) == {"0", "1", "2"}


def test_algebroid_phi_and_njld(capsys):
    code, report = _run(capsys, "algebroid", "phi", _fix("tangent2.json"))
    assert code == 0
    assert report["command"] == "algebroid phi"
    assert report["reports"][1]["checked"] == 45

    code, report = _run(capsys, "algebroid", "njld", _fix("tangent2.json"))
    assert code == 0
    assert report["squares_checked"] == 6
    assert report["failures"] == 0


def test_algebroid_mc_detects_torsion(capsys, monkeypatch):
    code, report = _run(capsys, "algebroid", "mc", _fix("tangent2.json"))
    assert code == 0
    assert report["mc"]["ok"] is True

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_perturbed_tangent())))
    code, report = _run(capsys, "algebroid", "mc", "-")
    assert code == 2
    assert report["mc"]["torsion_residual_entries"] == 1
    assert report["mc"]["lie_residual_entries"] == 0


def test_algebroid_phi_rejects_invalid_structures(capsys, monkeypatch):
    doc = {
        "base_dim": 2,
        "rank": 2,
        "anchor": [["1", "0"], ["0", "1"]],
        "structure": {"1,2": ["1", "0"]},
        "nijenhuis": [["1", "0"], ["0", "1"]],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, report = _run(capsys, "algebroid", "phi", "-")
    assert code == 2
    assert report["verdict"] == "invalid"

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_perturbed_tangent())))
    code, report = _run(capsys, "algebroid", "njld", "-")
    assert code == 2
    assert report["verdict"] == "torsion nonzero"
    assert report["torsion"]["entries"] == {"1,2|2": "x1^2"}


def test_les_exactness(capsys):
    code, report = _run(capsys, "les", "--max-degree", "3", _fix("dim2-diag.json"))
    assert code == 0
    assert report["les"]["ok"] is True
    assert len(report["les"]["nodes"]) == 12

    code, report = _run(capsys, "les", "--max-degree", "2", _fix("sl2-diag.json"))
    assert code == 0
    assert len(report["les"]["nodes"]) == 9


def test_parse_errors_exit_3(capsys, monkeypatch):
    assert main(["check", "lie", "/nonexistent.json"]) == 3
    assert "not found" in capsys.readouterr().err

    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    assert main(["check", "lie", "-"]) == 3
    assert "line 1" in capsys.readouterr().err

    monkeypatch.setattr("sys.stdin", io.StringIO('{"dim": 2, "bogus": 1}'))
    assert main(["check", "lie", "-"]) == 3
    assert "bogus" in capsys.readouterr().err

    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"dim": 2, "brackets": {"1,0": {}}}')
    )
    assert main(["check", "lie", "-"]) == 3
    assert "brackets" in capsys.readouterr().err

    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"dim": 2, "brackets": {"0,1": {"5": "1"}}}')
    )
    assert main(["check", "lie", "-"]) == 3
    assert "out of range" in capsys.readouterr().err

    assert main(["bogus"]) == 3
    assert main(["check", "lie", _fix("sl2.json"), "--max-degree"] ) == 3
    capsys.readouterr()


_ZERO_DENOMINATOR_INPUTS = {
    "lie-bracket": (["check", "lie", "-"], {"dim": 2, "brackets": {"0,1": {"0": "1/0"}}}),
    "operator": (
        ["cohomology", "--complex", "njo", "--max-degree", "1", "-"],
        {"dim": 2, "brackets": {"0,1": {"0": "1"}}, "nijenhuis": [["1/0", "0"], ["0", "1"]]},
    ),
    "polynomial": (
        ["fn-bracket", "-"],
        {
            "n": 2,
            "left": {"degree": 1, "entries": {"1|1": "1/0*x1 + 1"}},
            "right": {"degree": 1, "entries": {"1|2": "x2"}},
        },
    ),
}


@pytest.mark.parametrize("kind", sorted(_ZERO_DENOMINATOR_INPUTS))
def test_zero_denominator_exits_3_with_one_line(capsys, monkeypatch, kind):
    argv, doc = _ZERO_DENOMINATOR_INPUTS[kind]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "zero denominator" in captured.err
    assert "Traceback" not in captured.err


def test_missing_required_fields_exit_3(capsys):
    assert main(["check", "nijenhuis", _fix("sl2.json")]) == 3
    assert "nijenhuis" in capsys.readouterr().err

    assert main(["check", "rep", _fix("sl2.json")]) == 3
    assert "representation" in capsys.readouterr().err

    assert main(["fn-bracket", _fix("operator-form.json")]) == 3
    assert "left" in capsys.readouterr().err


def test_bounds_must_be_positive():
    with pytest.raises(InputError):
        RunConfig(command="poincare", n=0)
    with pytest.raises(InputError):
        RunConfig(command="bogus")
    with pytest.raises(InputError):
        config_from_args(["mc", "--n-max", "0", "x.json"])


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("NJK_SEED", "7")
    code, report = _run(capsys, "check", "lie", _fix("sl2.json"))
    assert report["seed"] == 7

    code, report = _run(capsys, "check", "lie", _fix("sl2.json"), "--seed", "9")
    assert report["seed"] == 9

    monkeypatch.setenv("NJK_SEED", "pi")
    assert main(["check", "lie", _fix("sl2.json")]) == 3
    capsys.readouterr()


_NON_ASCII_INTEGER_FLAGS = {
    "max-degree-underscore": (
        ["cohomology", "--complex", "ce", "--max-degree", "1_0", _fix("sl2.json")],
        None,
    ),
    "n-arabic-indic": (["poincare", "--n", "\u0662"], None),
    "seed-fullwidth": (["check", "lie", _fix("sl2.json"), "--seed", "\uff11\uff12"], None),
    "env-seed-underscore": (["check", "lie", _fix("sl2.json")], "1_000"),
}


@pytest.mark.parametrize("kind", sorted(_NON_ASCII_INTEGER_FLAGS))
def test_integer_flags_follow_the_document_grammar(capsys, monkeypatch, kind):
    # The grammar of integer keys: ASCII digits and a sign, no "_"
    # separators and no digits of other scripts.
    argv, env_seed = _NON_ASCII_INTEGER_FLAGS[kind]
    if env_seed is None:
        monkeypatch.delenv("NJK_SEED", raising=False)
    else:
        monkeypatch.setenv("NJK_SEED", env_seed)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


def test_negative_seed_flag_still_parses(capsys, monkeypatch):
    monkeypatch.delenv("NJK_SEED", raising=False)
    code, report = _run(capsys, "check", "lie", _fix("sl2.json"), "--seed", "-3")
    assert code == 0 and report["seed"] == -3


def test_quiet_and_text_formats(capsys):
    code = main(["check", "lie", _fix("sl2.json"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""

    code = main(["check", "lie", _fix("sl2.json"), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok: yes" in out
    assert "verdict: valid" in out


def test_output_bytes_deterministic(capsys):
    main(["cohomology", "--complex", "njl", _fix("dim2-diag.json")])
    first = capsys.readouterr().out
    main(["cohomology", "--complex", "njl", _fix("dim2-diag.json")])
    second = capsys.readouterr().out
    assert first == second


def test_shared_parser_answers_like_a_fresh_process(capsys, monkeypatch):
    """One process, several subcommands and a malformed call in between:
    each call gives the exit code and stdout of its own ``njk`` process."""
    monkeypatch.delenv("NJK_SEED", raising=False)
    env = {k: v for k, v in os.environ.items() if k != "NJK_SEED"}
    env["PYTHONPATH"] = str(Path(njkit.__file__).resolve().parents[1])
    calls = [
        ["check", "lie", _fix("sl2.json")],
        ["cohomology", "--complex", "njl", "--max-degree", "2", _fix("dim2-diag.json")],
        ["check", "lie", _fix("sl2.json"), "--max-degree"],
        ["torsion", _fix("tangent2.json"), "--format", "text"],
        ["check", "bogus", _fix("sl2.json")],
        ["poincare", "--n", "2", "--seed", "5"],
        ["check", "lie", _fix("sl2.json")],
    ]
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "njkit.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (code, captured.out) == (fresh.returncode, fresh.stdout), argv
        if code == 3:
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("error: ")
    assert build_parser() is build_parser()


def test_lie_file_values_parse_to_reduced_rationals():
    data = {
        "dim": 2,
        "brackets": {"0,1": {"1": "2/4", "0": "0"}},
        "nijenhuis": [["1", "0"], ["0", "-2/2"]],
    }
    inp = parse_lie_file(data)
    assert inp.algebra.brackets == {(0, 1): (Fraction(0), Fraction(1, 2))}
    assert inp.operator.rows == ((1, 0), (0, -1))
    # A bracket whose components are all zero is not stored.
    assert parse_lie_file({"dim": 2, "brackets": {"0,1": {"0": "0"}}}).algebra.brackets == {}


def test_operator_matrix_entry_i_j_is_the_image_of_section_j_on_section_i():
    """Entry ``[i][j]`` of an operator matrix becomes the form entry
    ``((j+1,), i+1)``, in algebroid files and in forms files alike; a "0"
    entry is not stored."""
    rows = [["x1", "2/4"], ["0", "x1*x2 - 3"]]
    expected = {
        ((1,), 1): Poly.parse("x1", 2),
        ((2,), 1): Poly.const(2, Fraction(1, 2)),
        ((2,), 2): Poly.parse("x1*x2 - 3", 2),
    }
    algebroid = parse_algebroid_file(
        {"base_dim": 2, "rank": 2, "anchor": [["1", "0"], ["0", "1"]], "nijenhuis": rows}
    )
    assert algebroid.operator.form_degree == 1
    assert algebroid.operator.entries == expected
    forms = parse_forms_file({"n": 2, "operator": rows})
    assert forms.operator.form_degree == 1
    assert forms.operator.entries == expected


# Each document uses a digit, or a digit separator, that the grammar of
# rationals, variables and index keys excludes: only ASCII digits count.
_NON_ASCII_DIGIT_INPUTS = {
    "arabic-indic-rational": (
        ["check", "lie", "-"],
        {"dim": 2, "brackets": {"0,1": {"0": "\u0663/\u0664"}}},
    ),
    "underscore-in-bracket-key": (
        ["check", "lie", "-"],
        {"dim": 11, "brackets": {"0,1_0": {"0": "1"}}},
    ),
    "underscore-in-component-key": (
        ["check", "lie", "-"],
        {"dim": 2, "brackets": {"0,1": {"0_1": "1"}}},
    ),
    "non-ascii-variable-index-and-exponent": (
        ["fn-bracket", "-"],
        {
            "n": 2,
            "left": {"degree": 1, "entries": {"1|1": "x\u0661^\uff12"}},
            "right": {"degree": 1, "entries": {"1|2": "x2"}},
        },
    ),
    "non-ascii-form-key": (
        ["fn-bracket", "-"],
        {
            "n": 2,
            "left": {"degree": 1, "entries": {"\u0661|1": "x1"}},
            "right": {"degree": 1, "entries": {"1|2": "x2"}},
        },
    ),
    "non-ascii-structure-key": (
        ["check", "algebroid", "-"],
        {"base_dim": 0, "rank": 2, "structure": {"1,\u0662": ["1", "0"]}},
    ),
}


@pytest.mark.parametrize("kind", sorted(_NON_ASCII_DIGIT_INPUTS))
def test_only_ascii_digits_parse(capsys, monkeypatch, kind):
    argv, doc = _NON_ASCII_DIGIT_INPUTS[kind]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
