"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload cone-betti --seed 1 --seconds 15 --trace 0

Run from the repository root. Measures the set-up time (fresh interpreters
importing ``njkit``), then runs the workload in a fresh process whose
``PYTHONHASHSEED`` is fixed by the seed, prints every metric by name with
its unit, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. ``failed``
counts every job that missed its reference; ``correct`` is false when one
of them is not a known defect of the seed program (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from speed import at_reference_speed  # noqa: E402  (stdlib-only modules)
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170

# Times the import first, so that nothing njkit imports is loaded before it.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import njkit; d = time.perf_counter() - t; "
    "import speed; print(d, speed.kernel_seconds())"
)


def environment(src: str, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # Cached byte code keeps every timed import alike (see setup_seconds).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(env: dict) -> tuple:
    """Median time for a fresh interpreter to ``import njkit``, at the
    reference speed and as measured.

    One discarded import first, so byte-code compilation is not counted.
    """
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        seconds, kernel_s = (float(x) for x in out.stdout.split())
        if i:
            scaled.append(at_reference_speed(seconds, kernel_s))
            wall.append(seconds)
    return statistics.median(scaled), statistics.median(wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "njkit", "__init__.py")):
        print("error: run from the repository root; src/njkit not found", file=sys.stderr)
        return 2
    env = environment(src, args.seed)
    setup = None if args.trace else setup_seconds(env)

    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
        result["wall"]["setup_s"] = setup[1]

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['attempted']} jobs "
        f"in {result['rounds']} rounds, {result['failed']} failed "
        f"({result['known_failed']} of them in known defects of the seed)"
    )
    if not args.trace:
        print(f"job_s: {result['attempted']} samples, {result['above_p90']} above p90")
    else:
        print(f"spans kept {result['spans_kept']}, dropped {result['spans_dropped']}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    if not args.trace:
        print("as measured, before scaling to the reference speed:")
        for name, value in sorted(result["wall"].items()):
            print(f"  {name} = {value:.6g} {metrics[name]['unit']}")
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
