"""One seeded round of each benchmark workload, every job checked.

The benchmark in ``perfbench/`` builds its jobs from public njkit names
(``mc_candidate``, ``njl_twisted_betti``, ``AlgebroidForm``, ``cli.main``
and the rest) and checks each outcome against a pinned reference. A change
that renames one of those names, or changes an answer, fails here, before
the benchmark is run.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seeded_round_gives_every_expected_outcome(workload):
    # The seed string of the first round of a run with seed 1.
    jobs = workloads.round_builder(workload)(random.Random(f"{workload}:1:0"))
    assert jobs
    for job in jobs:
        results = tuple(step() for step in job.steps)
        assert job.outcome(results) == job.expected, (job.kind, job.label)
