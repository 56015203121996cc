"""One workload run in a fresh process: closed loop, one client.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

(``src`` and ``perfbench`` on ``PYTHONPATH``). Rounds of jobs run back to
back, each job starting when the previous one has finished, until the jobs
have taken ``--seconds`` of wall time and at least ``MIN_ROUNDS`` rounds
are done; the round under way is finished. Job times are reported at the
reference speed of ``speed.py``. The last stdout line is a JSON object with
the job counts and the metrics.

With ``--trace 1`` every job runs twice: once plain and once with the
tracer installed. The two results must have the same digest, the plain
times give the base of ``trace.overhead``, and the traced calls give the
per-layer metrics, reported per round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

import speed
import workloads
from tracer import Tracer

SPAN_DIR = ".perfbench"
SAMPLE_INTERVAL_S = 0.25
# Plain runs hold at least two rounds, so that every job kind is timed twice.
MIN_ROUNDS = 2


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


def execute(job, sample: bool = True) -> tuple:
    """``(wall seconds, reference-speed seconds, outcome)``.

    The machine speed is sampled around and, with ``sample``, during the
    job (see ``speed.Meter``). An exception is an outcome, never an abort.
    """
    results = []
    failure = None
    with speed.Meter(SAMPLE_INTERVAL_S if sample else None) as meter:
        for step in job.steps:
            try:
                results.append(step())
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, the run goes on
                failure = {"exception": type(exc).__name__}
                break
    outcome = failure if failure is not None else job.outcome(tuple(results))
    return meter.wall, meter.scaled, outcome


def exit_bucket(outcome) -> str | None:
    if not isinstance(outcome, dict) or "exit" not in outcome:
        return None
    return str(outcome["exit"]) if outcome["exit"] in (0, 2, 3) else "other"


class Run:
    """Counters of one workload run."""

    def __init__(self) -> None:
        self.wall: list[float] = []  # seconds as measured
        self.times: list[float] = []  # seconds at the reference speed
        self.traced_wall: list[float] = []
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0  # failures a job's ``known_defect`` recognises
        self.rounds = 0
        self.exits = {"0": 0, "2": 0, "3": 0, "other": 0}
        self.failures: list[str] = []

    def record(self, job, wall: float, seconds: float, outcome) -> None:
        self.attempted += 1
        self.wall.append(wall)
        self.times.append(seconds)
        bucket = exit_bucket(outcome)
        if bucket is not None:
            self.exits[bucket] += 1
        if outcome != job.expected:
            self.failed += 1
            known = job.known_defect is not None and job.known_defect(outcome)
            self.known_failed += known
            if len(self.failures) < 20:
                note = " (known defect)" if known else ""
                self.failures.append(f"{job.kind} [{job.label}]: got {outcome!r}, expected {job.expected!r}{note}")

    @property
    def correct(self) -> bool:
        """No job failed other than in a known defect of the seed program."""
        return self.failed == self.known_failed


def run_rounds(workload: str, seed: int, seconds: float, tracer: Tracer | None) -> Run:
    build = workloads.round_builder(workload)
    run = Run()
    busy = 0.0
    min_rounds = 1 if tracer is not None else MIN_ROUNDS
    while run.rounds < min_rounds or busy < seconds:
        rng = random.Random(f"{workload}:{seed}:{run.rounds}")
        for job in build(rng):
            wall, scaled, outcome = execute(job)
            busy += wall
            if tracer is not None:
                tracer.job = run.attempted
                tracer.install()
                try:
                    # No speed samples inside traced calls: they would land in span self times.
                    traced_wall, traced_scaled, traced_outcome = tracer.span(
                        f"job.{job.kind}", execute, job, sample=False
                    )
                finally:
                    tracer.uninstall()
                busy += traced_wall
                run.traced_wall.append(traced_wall)
                run.traced_times.append(traced_scaled)
                if digest(traced_outcome) != digest(outcome):
                    outcome = {"traced_digest_differs": outcome}
            run.record(job, wall, scaled, outcome)
        run.rounds += 1
    return run


def quantile(values: list, q: float) -> float:
    """The ``q`` quantile by the inclusive method of ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def job_metrics(times: list) -> dict:
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (quantile(times, 0.9), "s"),
    }


def end_to_end(run: Run) -> dict:
    return {
        **job_metrics(run.times),
        "ok_share": ((run.attempted - run.failed) / run.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


TIMED_LAYERS = (
    "cohomology.delta_lie", "cohomology.delta_njo", "cohomology.psi", "cohomology.delta_njl",
    "lie.deformed_representation", "lie.Endomorphism.apply", "lie.validate",
    "exact.rank", "exact.kernel_basis", "exact.koszul_sign",
    "braces.shuffle_brace", "braces.rn_bracket",
    "braces.SuspendedHom.evaluate", "braces.SuspendedHom.evaluate_mixed",
    "algebroid.graded_commutator", "algebroid.delta_njld", "algebroid.algebroid_fn_bracket",
    "cli.parse",
)
SELF_ONLY = (
    "cohomology.betti", "cohomology.les_verify",
    "braces.njl_twisted_betti", "braces.mc_residual",
    "forms.Poly.mul", "forms.fn_bracket", "forms.fn_betti", "forms.check_homotopy",
    "algebroid.validate_algebroid", "algebroid.validate_phi_chain_map",
    "cli.render",
)
CALLS_ONLY = ("forms.Poly.mul", "forms.Poly.add")


def per_layer(run: Run, tracer: Tracer) -> dict:
    """Per-round layer metrics from the traced calls."""
    rounds = run.rounds
    calls = lambda name: tracer.calls.get(name, 0) / rounds
    self_s = lambda name: tracer.self_s.get(name, 0.0) / rounds
    count = lambda name: tracer.counts.get(name, 0) / rounds
    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = (calls(name), "count")
    out["lie.validate.failed"] = (count("lie.validate.failed"), "count")
    out["exact.rank.nnz_in"] = (count("exact.rank.nnz_in"), "count")
    out["exact.rank.max_bits_in"] = (tracer.counts.get("exact.rank.max_bits_in", 0), "bits")
    out["forms.Poly.constructed"] = (count("forms.Poly.constructed"), "count")
    ranks = tracer.calls.get("exact.rank", 0)
    muls = tracer.calls.get("forms.Poly.mul", 0)
    out["lie.deformed_representation.per_rank_call"] = (
        tracer.calls.get("lie.deformed_representation", 0) / ranks if ranks else 0.0,
        "ratio",
    )
    out["forms.Poly.constructed_per_mul"] = (
        tracer.counts.get("forms.Poly.constructed", 0) / muls if muls else 0.0,
        "ratio",
    )
    for bucket, n in run.exits.items():
        out[f"cli.exit.{bucket}"] = (n / rounds, "count")
    traced_wall = sum(run.traced_wall)
    out["cohomology.differentials.job_share"] = (tracer.inclusive_s["cohomology.differentials"] / traced_wall, "ratio")
    elimination = tracer.self_s.get("exact.rank", 0.0) + tracer.self_s.get("exact.kernel_basis", 0.0)
    out["exact.elimination.job_share"] = (elimination / traced_wall, "ratio")
    out["trace.overhead"] = (sum(run.traced_times) / sum(run.times), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    run = run_rounds(args.workload, args.seed, args.seconds, tracer)
    metrics = per_layer(run, tracer) if tracer else end_to_end(run)
    if tracer is not None:
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    for line in run.failures:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "known_failed": run.known_failed,
        "rounds": run.rounds,
        "above_p90": sum(t > metrics["job_s.p90"][0] for t in run.times) if not tracer else None,
        "spans_kept": len(tracer.spans) if tracer else 0,
        "spans_dropped": tracer.dropped if tracer else 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "wall": {name: v for name, (v, _) in job_metrics(run.wall).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
