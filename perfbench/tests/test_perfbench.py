"""Self-tests of the benchmark: generators, reference table, tracer, runner."""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import catalogue  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from njkit import cli, validate_algebroid, validate_lie, validate_nijenhuis  # noqa: E402


def _inputs(jobs) -> list:
    return [(job.kind, job.label, repr(job.input), repr(job.expected)) for job in jobs]


@pytest.mark.parametrize("workload", ["cone-betti", "twisted-linfty", "small-jobs"])
def test_rounds_are_deterministic_per_seed(workload):
    first = _inputs(workloads.round_builder(workload)(random.Random("s:1")))
    again = _inputs(workloads.round_builder(workload)(random.Random("s:1")))
    other = _inputs(workloads.round_builder(workload)(random.Random("s:2")))
    assert first == again
    assert first != other
    assert sorted(k for k, *_ in first) == sorted(k for k, *_ in other)


def test_poly_round_is_deterministic_per_seed():
    first = _inputs(workloads.poly_round(random.Random(7)))
    assert first == _inputs(workloads.poly_round(random.Random(7)))
    assert first != _inputs(workloads.poly_round(random.Random(8)))


@pytest.mark.parametrize("seed", range(5))
def test_rebased_structures_keep_their_pinned_verdicts(seed):
    rng = random.Random(seed)
    for name, base in {**catalogue.LARGE, **catalogue.SMALL}.items():
        alg, p = catalogue.lie_objects(catalogue.rebase(base, rng))
        ref = catalogue.REFERENCE[name]
        assert validate_lie(alg).ok == ref["lie"], name
        if ref["lie"]:
            assert validate_nijenhuis(alg, p).ok == ref["nijenhuis"], name


def test_generated_algebroids_are_valid():
    for seed in range(3):
        for job in workloads.poly_round(random.Random(seed)):
            argv, text = job.input
            if argv[0] != "algebroid":
                continue
            inp = cli.parse_algebroid_file(json.loads(text))
            assert validate_algebroid(inp.algebroid).ok, job.label


def test_small_jobs_never_repeat_an_input_and_hold_malformed_share():
    builder = workloads.SmallJobs()
    rng = random.Random(3)
    jobs = builder.round(rng) + builder.round(rng)
    texts = [job.input for job in jobs]
    assert len({(tuple(a), t) for a, t in texts}) == len(texts)
    malformed = [job for job in jobs if job.kind.startswith("malformed.")]
    assert 0.08 <= len(malformed) / len(jobs) <= 0.15
    assert all(job.expected == {"exit": 3} for job in malformed)


def test_pinned_small_betti_numbers_match_the_independent_oracle():
    pytest.importorskip("sympy")
    import pin_reference

    for name in catalogue.VALID_SMALL:
        data = catalogue.SMALL[name]
        for which, by_degree in catalogue.REFERENCE[name]["betti"].items():
            for degree, numbers in by_degree.items():
                assert pin_reference.betti_oracle(data, which, degree) == numbers, (name, which)


def _located(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_everywhere_and_restores_originals():
    import njkit.cli
    import njkit.cohomology

    tracer = Tracer()
    sites = tracer.sites()
    original_betti = njkit.cohomology.betti
    assert (njkit.cli, "betti", original_betti) in sites
    tracer.install()
    try:
        assert njkit.cli.betti is not original_betti
        assert njkit.cohomology.betti is njkit.cli.betti
        for owner, attr, original in sites:
            assert _located(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in sites:
        assert _located(owner, attr) is original


def _cheap_job(expected) -> workloads.Job:
    doc = catalogue.lie_document(catalogue.SMALL["sl2"])
    argv = ["cohomology", "--complex", "ce", "--max-degree", "2", "-"]
    return workloads.cli_job("cli.cohomology.ce", "sl2", argv, doc, expected)


def _boom():
    raise RuntimeError("injected")


def test_wrong_answer_and_exception_count_as_failed_jobs(monkeypatch):
    right = _cheap_job({"exit": 0, "betti": [0, 0, 0]})
    wrong = _cheap_job({"exit": 0, "betti": [9, 9, 9]})
    crash = workloads.Job("api.crash", "boom", None, (_boom,), True)
    monkeypatch.setattr(workloads, "round_builder", lambda name: lambda rng: [wrong, crash, right])
    run = worker.run_rounds("small-jobs", seed=0, seconds=0, tracer=None)
    assert run.rounds == worker.MIN_ROUNDS
    assert (run.attempted, run.failed) == (3 * run.rounds, 2 * run.rounds)
    assert not run.correct
    metrics = worker.end_to_end(run)
    assert metrics["ok_share"][0] == pytest.approx(1 / 3)


def test_known_defect_counts_as_failed_but_other_wrong_answers_make_the_run_incorrect(monkeypatch):
    known = _cheap_job({"exit": 0, "betti": [9, 9, 9]})
    known.known_defect = lambda outcome: outcome == {"exit": 0, "betti": [0, 0, 0]}
    monkeypatch.setattr(workloads, "round_builder", lambda name: lambda rng: [known])
    run = worker.run_rounds("small-jobs", seed=0, seconds=0, tracer=None)
    assert (run.failed, run.known_failed) == (run.rounds, run.rounds)
    assert run.correct

    known.known_defect = lambda outcome: outcome == {"exit": 1}
    run = worker.run_rounds("small-jobs", seed=0, seconds=0, tracer=None)
    assert (run.failed, run.known_failed) == (run.rounds, 0)
    assert not run.correct


def test_known_defects_recognise_only_the_seed_failures():
    twisted = next(job for job in workloads.twisted_round(random.Random(0)) if job.label == "sl2xsl2")
    assert twisted.known_defect({"mc": True, "betti": [0, 3, 13, 8]})
    assert not twisted.known_defect({"mc": True, "betti": [0, 3, 12, 26]})
    assert not twisted.known_defect({"mc": False, "betti": [0, 3, 13, 8]})
    assert not twisted.known_defect({"exception": "ZeroDivisionError"})
    malformed = [job for job in workloads.SmallJobs().round(random.Random(0)) if job.kind.startswith("malformed.")]
    flagged = {job.label for job in malformed if job.known_defect is not None}
    assert flagged == workloads.D5_KINDS
    assert all(job.known_defect({"exit": 1}) and not job.known_defect({"exit": 0}) for job in malformed if job.known_defect)


def test_traced_run_matches_plain_digests_and_counts_layers(monkeypatch):
    job = _cheap_job({"exit": 0, "betti": [0, 0, 0]})
    monkeypatch.setattr(workloads, "round_builder", lambda name: lambda rng: [job])
    tracer = Tracer()
    run = worker.run_rounds("small-jobs", seed=0, seconds=0, tracer=tracer)
    assert run.failed == 0
    metrics = worker.per_layer(run, tracer)
    assert metrics["cohomology.delta_lie.calls"][0] > 0
    assert metrics["cli.parse.calls"][0] == 1
    assert metrics["cli.exit.0"][0] == 1
    job_spans = [span for span in tracer.spans if span[1].startswith("job.")]
    assert len(job_spans) == 1 and job_spans[0][4] is None
    _, _, start, end, _, _ = job_spans[0]
    assert sum(tracer.self_s.values()) + tracer.excluded_s == pytest.approx(end - start)
