"""The four workloads: seeded job rounds and how each job is checked.

A job is one ``njk``-equivalent piece of work: calls into public njkit
functions, or ``njkit.cli.main`` run in process on an input given on stdin.
``steps`` are the timed calls, run one after another; ``outcome`` turns
the tuple of their results into a small JSON-able value outside the
timing, and the job is correct when that value equals
``expected``, which comes from the pinned reference table or, for
Froelicher-Nijenhuis brackets, from the independent algebroid route.

A job the seed program is known to get wrong carries ``known_defect``, a
test that recognises exactly that wrong outcome (B0: a wrong top twisted
Betti number; D5: exit 1 on ``"1/0"``). Such a job still fails and is
counted, but only a failure that no ``known_defect`` recognises makes the
run incorrect.

A round holds every job kind of its workload once, each on a freshly
rebased input, in a seeded order. Every round of a workload has the same
composition, so medians and shares do not depend on how many rounds fit in
the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import catalogue
from catalogue import LARGE, REFERENCE, SMALL, VALID_SMALL


@dataclass
class Job:
    kind: str
    label: str
    input: Any  # what the seed generated: argv and stdin, or a rebased structure
    steps: tuple  # zero-argument callables
    expected: Any
    outcome: Callable[[tuple], Any] = lambda results: results
    # Recognises the wrong outcome the seed program is known to give here.
    known_defect: Callable[[Any], bool] | None = None


# ---------------------------------------------------------------------------
# Running njk in process


def run_cli(argv: list, stdin_text: str | None) -> tuple:
    """``(exit code, stdout)`` of ``njk argv`` with ``stdin_text`` on stdin.

    An exception escaping ``main`` is what the installed ``njk`` script
    would turn into a traceback and exit code 1, so it is reported as 1.
    """
    from njkit import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:  # noqa: BLE001 - an uncaught error is exit 1 for a user
                code = 1
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _report(stdout: str) -> dict:
    return json.loads(stdout) if stdout.strip() else {}


def cli_outcome(argv: list) -> Callable[[tuple], dict]:
    """Reduce ``(code, stdout)`` to the fields the reference pins."""
    command = "mc" if argv[:2] == ["algebroid", "mc"] else argv[0]

    def outcome(results: tuple) -> dict:
        code, stdout = results[0]
        out: dict = {"exit": code}
        if code not in (0, 2):
            return out
        report = _report(stdout)
        if command in ("check", "les", "algebroid"):
            out["verdict"] = report.get("verdict")
        elif command == "torsion":
            out["is_zero"] = report.get("is_zero")
        elif command == "mc":
            out["ok"] = report.get("mc", {}).get("ok")
        elif command == "cohomology":
            out["betti"] = report.get("betti", {}).get("betti") if code == 0 else report.get("verdict")
        elif command == "poincare":
            out["all_zero"] = report.get("all_zero")
        elif command == "fn-bracket":
            out["result"] = _canonical_form(report.get("n", 0), report.get("result", {}))
        return out

    return outcome


def _canonical_form(n: int, form: dict) -> dict:
    from njkit import Poly

    entries = {}
    for key, text in form.get("entries", {}).items():
        poly = Poly.parse(text, n)
        if not poly.is_zero():
            entries[key] = poly.format()
    return {"degree": form.get("degree"), "entries": dict(sorted(entries.items()))}


def cli_job(kind: str, label: str, argv: list, document, expected: dict) -> Job:
    text = document if isinstance(document, str) else json.dumps(document)
    return Job(kind, label, (argv, text), (lambda: run_cli(argv, text),), expected, cli_outcome(argv))


# ---------------------------------------------------------------------------
# cone-betti

CONE_DEGREE = 1
CONE_COMPLEXES = ("ce", "njo", "njl")


def _cone_outcome(results: tuple) -> dict:
    return {**dict(zip(CONE_COMPLEXES, results)), "les": results[-1]}


def cone_betti_round(rng: random.Random) -> list:
    """One job per structure: Betti numbers of all three complexes plus the
    long exact sequence, the cohomology picture ``njk`` reports for it."""
    import njkit

    jobs = []
    for name, base in LARGE.items():
        data = catalogue.rebase(base, rng, catalogue.STEADY_SCALES)
        alg, p = catalogue.lie_objects(data)
        nja = njkit.NijenhuisLieAlgebra(alg, p)
        nrep = njkit.adjoint_nijenhuis(nja)

        steps = tuple(
            (lambda c=c, nja=nja, nrep=nrep: njkit.betti(nja, nrep, c, CONE_DEGREE).betti)
            for c in CONE_COMPLEXES
        ) + ((lambda nja=nja, nrep=nrep: njkit.les_verify(nja, nrep, CONE_DEGREE).ok),)
        expected = {c: REFERENCE[name]["betti"][c][CONE_DEGREE] for c in CONE_COMPLEXES}
        expected["les"] = True
        jobs.append(Job("cone", name, data, steps, expected, _cone_outcome))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# twisted-linfty

def _twisted_outcome(results: tuple) -> dict:
    return {"mc": results[0], "betti": results[1]}


def _b0_defect(expected: dict) -> Callable[[Any], bool]:
    """B0: the seed's brace gets the top Betti number wrong (7, 8, 9 or 13
    for 26, depending on the basis) and everything below it right."""

    def recognise(outcome) -> bool:
        return (
            isinstance(outcome, dict)
            and outcome.get("mc") is True
            and isinstance(outcome.get("betti"), list)
            and len(outcome["betti"]) == len(expected["betti"])
            and outcome["betti"][:-1] == expected["betti"][:-1]
        )

    return recognise


# (structure, degree) per job of a round. Degree 3 on sl2xsl2 is the case
# the seed's brace gets wrong (8 for 26). book5 appears twice so that the
# median job of a run is one of several of the same kind.
TWISTED_JOBS = (("sl2xsl2", 3), ("book5", 3), ("book5", 3), ("book6", 2))
B0_JOBS = {("sl2xsl2", 3)}


def twisted_round(rng: random.Random) -> list:
    import njkit

    jobs = []
    for name, degree in TWISTED_JOBS:
        data = catalogue.rebase(LARGE[name], rng, catalogue.STEADY_SCALES)
        alg, p = catalogue.lie_objects(data)

        steps = (
            lambda alg=alg, p=p: njkit.mc_residual(njkit.mc_candidate(alg, p), 2).ok,
            lambda alg=alg, p=p, degree=degree: njkit.njl_twisted_betti(alg, p, degree),
        )
        expected = {"mc": True, "betti": REFERENCE[name]["betti"]["njl"][degree]}
        defect = _b0_defect(expected) if (name, degree) in B0_JOBS else None
        jobs.append(Job(f"twisted.d{degree}", name, data, steps, expected, _twisted_outcome, defect))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# poly-calculus

# Shapes are fixed so that every round costs about the same; coefficients,
# constant operators and the sl2 basis are seeded. The many bracket jobs are
# the typical short command, so the median job is one of them.
R3_DEGREES = (1, 2, 1)
FN_SHAPE = (4, 2, 1, 12)  # R^n, left degree, right degree, entries per form
FN_JOBS = 10


def _point_document(data: catalogue.LieData) -> dict:
    structure = {
        f"{i + 1},{j + 1}": [catalogue.fmt(vec.get(k, 0)) for k in range(data.dim)]
        for (i, j), vec in sorted(data.brackets.items())
    }
    return {
        "base_dim": 0,
        "rank": data.dim,
        "anchor": [[] for _ in range(data.dim)],
        "structure": structure,
        "nijenhuis": [[catalogue.fmt(c) for c in row] for row in data.operator],
    }


def _fn_expected(n: int, left: dict, right: dict) -> dict:
    """The bracket by the algebroid route on the trivial algebroid."""
    from njkit import AlgebroidForm, Poly, algebroid_fn_bracket, trivial_algebroid

    def convert(form: dict) -> AlgebroidForm:
        entries = {}
        for key, text in form["entries"].items():
            head, _, out = key.partition("|")
            idx = tuple(int(t) for t in head.split(",")) if head else ()
            entries[(idx, int(out))] = Poly.parse(text, n)
        return AlgebroidForm(n, n, form["degree"], entries)

    K = algebroid_fn_bracket(trivial_algebroid(n), convert(left), convert(right))
    entries = {",".join(map(str, idx)) + f"|{out}": poly.format() for (idx, out), poly in K.entries.items()}
    return {"degree": K.form_degree, "entries": dict(sorted(entries.items()))}


def fn_bracket_job(rng: random.Random, n: int, k: int, l: int, terms: int, label: str) -> Job:
    left = catalogue.random_form(rng, n, k, terms)
    right = catalogue.random_form(rng, n, l, terms)
    expected = {"exit": 0, "result": _fn_expected(n, left, right)}
    return cli_job("cli.fn-bracket", label, ["fn-bracket", "-"], {"n": n, "left": left, "right": right}, expected)


def poly_round(rng: random.Random) -> list:
    jobs = [
        cli_job("cli.poincare", "n3", ["poincare", "--n", "3"], None, {"exit": 0, "all_zero": True})
    ]
    structures = {
        "R3-diag": catalogue.trivial_algebroid_document(3, catalogue.diagonal_poly_operator(rng, R3_DEGREES)),
        "R2-const": catalogue.trivial_algebroid_document(2, catalogue.constant_operator(rng, 2)),
        "sl2-point": _point_document(catalogue.rebase(SMALL["sl2"], rng)),
    }
    for label, doc in structures.items():
        for action in ("phi", "njld", "mc"):
            expected = {"exit": 0, "ok": True} if action == "mc" else {"exit": 0, "verdict": "valid"}
            argv = ["algebroid", action, "--seed", str(rng.randrange(1000)), "-"]
            jobs.append(cli_job(f"cli.algebroid.{action}", label, argv, doc, expected))
    n, k, l, terms = FN_SHAPE
    for _ in range(FN_JOBS):
        jobs.append(fn_bracket_job(rng, n, k, l, terms, f"R{n}:{k},{l}"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# small-jobs

SMALL_DEGREE = "2"

# Kinds of malformed input; each must exit 3 with a one-line message.
MALFORMED = (
    "zero-denominator-bracket",
    "zero-denominator-operator",
    "zero-denominator-polynomial",
    "truncated-json",
    "unknown-key",
    "index-out-of-range",
    "not-a-rational",
    "zero-dim",
)
# D5: the seed lets the ZeroDivisionError of "1/0" escape, which is exit 1.
D5_KINDS = {"zero-denominator-bracket", "zero-denominator-operator", "zero-denominator-polynomial"}


def _d5_defect(outcome) -> bool:
    return outcome == {"exit": 1}


def _small_expected(name: str, command: str, complex_name: str | None = None) -> dict:
    ref = REFERENCE[name]
    valid = ref["lie"] and ref["nijenhuis"]
    if command == "check-lie":
        return {"exit": 0 if ref["lie"] else 2, "verdict": "valid" if ref["lie"] else "invalid"}
    if command == "check":
        return {"exit": 0 if valid else 2, "verdict": "valid" if valid else "invalid"}
    if command == "torsion":
        return {"exit": 0, "is_zero": ref["nijenhuis"]}
    if command == "mc":
        return {"exit": 0 if valid else 2, "ok": valid}
    if command == "les":
        return {"exit": 0, "verdict": "valid"}
    if valid:
        return {"exit": 0, "betti": ref["betti"][complex_name][int(SMALL_DEGREE)]}
    return {"exit": 2, "betti": "invalid"}


def _argv(command: str, complex_name: str | None) -> list:
    if command == "check-lie":
        return ["check", "lie", "-"]
    if command == "check":
        return ["check", "nijenhuis", "-"]
    if command == "cohomology":
        return ["cohomology", "--complex", complex_name, "--max-degree", SMALL_DEGREE, "-"]
    if command == "les":
        return ["les", "--max-degree", SMALL_DEGREE, "-"]
    if command == "mc":
        return ["mc", "--n-max", "2", "-"]
    return [command, "-"]


def _small_plan() -> list:
    """``(structure, command, complex)`` for the well-formed jobs of a round."""
    plan = []
    for name in VALID_SMALL:
        for command in ("check", "torsion", "mc", "les"):
            plan.append((name, command, None))
        for complex_name in ("ce", "njo", "njl"):
            plan.append((name, "cohomology", complex_name))
    plan += [("broken3", "check-lie", None), ("broken3", "cohomology", "njl")]
    plan += [("sl2-twisted", c, None) for c in ("check", "torsion", "mc")]
    plan.append(("sl2-twisted", "cohomology", "njo"))
    return plan


def _malformed(kind: str, rng: random.Random) -> tuple:
    """``(argv, stdin text)`` of one malformed input of the given kind."""
    name = rng.choice(VALID_SMALL)
    doc = catalogue.lie_document(catalogue.rebase(SMALL[name], rng))
    if kind == "zero-denominator-bracket":
        key = next(iter(doc["brackets"]), None)
        if key is None:
            doc["brackets"]["0,1"] = {"0": "1/0"}
        else:
            inner = doc["brackets"][key]
            inner[next(iter(inner))] = "1/0"
        return ["check", "nijenhuis", "-"], json.dumps(doc)
    if kind == "zero-denominator-operator":
        doc["nijenhuis"][0][0] = "1/0"
        return ["cohomology", "--complex", "njo", "--max-degree", SMALL_DEGREE, "-"], json.dumps(doc)
    if kind == "zero-denominator-polynomial":
        form = catalogue.random_form(rng, 2, 1, terms=2)
        key = next(iter(form["entries"]))
        form["entries"][key] = "1/0*x1 + 1"
        return ["fn-bracket", "-"], json.dumps({"n": 2, "left": form, "right": form})
    if kind == "truncated-json":
        text = json.dumps(doc)
        return ["torsion", "-"], text[: len(text) // 2]
    if kind == "unknown-key":
        doc["extra"] = 1
        return ["mc", "-"], json.dumps(doc)
    if kind == "index-out-of-range":
        doc["brackets"][f"0,{doc['dim']}"] = {"0": "1"}
        return ["les", "--max-degree", SMALL_DEGREE, "-"], json.dumps(doc)
    if kind == "not-a-rational":
        doc["nijenhuis"][0][0] = "one"
        return ["check", "nijenhuis", "-"], json.dumps(doc)
    doc["dim"] = 0
    return ["check", "lie", "-"], json.dumps(doc)


class SmallJobs:
    """Round builder that never hands out the same input twice in a run."""

    def __init__(self) -> None:
        self.seen: set = set()

    def _fresh(self, make: Callable[[], Job]) -> Job:
        for _ in range(100):
            job = make()
            argv, text = job.input
            if (tuple(argv), text) not in self.seen:
                self.seen.add((tuple(argv), text))
                return job
        raise RuntimeError("could not draw a fresh input")

    def round(self, rng: random.Random) -> list:
        jobs = []
        for name, command, complex_name in _small_plan():
            kind = command if complex_name is None else f"{command}.{complex_name}"
            argv = _argv(command, complex_name)
            expected = _small_expected(name, command, complex_name)
            jobs.append(
                self._fresh(
                    lambda: cli_job(
                        f"cli.{kind}", name, argv, catalogue.lie_document(catalogue.rebase(SMALL[name], rng)), expected
                    )
                )
            )
        for k in (1, 2):
            jobs.append(self._fresh(lambda: fn_bracket_job(rng, 2, k, 1, 2, f"R2:{k},1")))
        for kind in MALFORMED:
            job = self._fresh(lambda: cli_job(f"malformed.{kind}", kind, *_malformed(kind, rng), {"exit": 3}))
            if kind in D5_KINDS:
                job.known_defect = _d5_defect
            jobs.append(job)
        rng.shuffle(jobs)
        return jobs


WORKLOADS = ("cone-betti", "twisted-linfty", "poly-calculus", "small-jobs")


def round_builder(workload: str) -> Callable[[random.Random], list]:
    """A function from a seeded ``Random`` to the next round's jobs."""
    if workload == "cone-betti":
        return cone_betti_round
    if workload == "twisted-linfty":
        return twisted_round
    if workload == "poly-calculus":
        return poly_round
    if workload == "small-jobs":
        return SmallJobs().round
    raise ValueError(f"unknown workload {workload!r}")
