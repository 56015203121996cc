"""Sign-mutation audit: does the test suite notice a wrong sign?

Each mutant changes one sign site of the package. The script copies
``src/`` and ``tests/`` to a temporary directory, applies one mutant at a
time there (never to the working tree), runs the mutant's test files with
pytest and prints ``killed`` when they fail and ``survived`` when they
pass. A survivor is a gap in the tests.

Run from the repository root::

    python tests/mutation_audit.py

The exit status is 0 when every mutant is killed, 1 otherwise. pytest does
not collect this file (no ``test_`` prefix), so it is not part of the
tier-1 run; one full audit takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A mutant that makes a loop run away counts as an error, not as killed.
TIMEOUT_S = 900

SIGN_TESTS = (
    "tests/test_exact.py",
    "tests/test_cohomology.py",
    "tests/test_forms.py",
    "tests/test_algebroid.py",
    "tests/test_braces.py",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "poincare_h.all_signs",
        "src/njkit/forms.py",
        "signed = poly.neg() if (pos + 1) % 2 else poly",
        "signed = poly.neg() if pos % 2 else poly",
        ("tests/test_forms.py",),
    ),
    Mutant(
        "poincare_h.third_position",
        "src/njkit/forms.py",
        "signed = poly.neg() if (pos + 1) % 2 else poly",
        "signed = poly.neg() if (pos + 1) % 2 != (pos == 2) else poly",
        ("tests/test_forms.py",),
    ),
    Mutant(
        "_sort_indices.no_swap_sign",
        "src/njkit/exact.py",
        "                seq[i], seq[j] = seq[j], seq[i]\n                sign = -sign",
        "                seq[i], seq[j] = seq[j], seq[i]\n                sign = sign",
        SIGN_TESTS,
    ),
    Mutant(
        "_sort_indices.odd_length_flip",
        "src/njkit/exact.py",
        "    return sign, tuple(seq)",
        "    return (sign if len(seq) < 3 else -sign), tuple(seq)",
        SIGN_TESTS,
    ),
    Mutant(
        "_merge_indices.skip_first_left",
        "src/njkit/exact.py",
        "inversions = sum(1 for a in left for b in right if a > b)",
        "inversions = sum(1 for a in left[1:] for b in right if a > b)",
        SIGN_TESTS,
    ),
    Mutant(
        "_merge_indices.flipped",
        "src/njkit/exact.py",
        "return (-1 if inversions % 2 else 1), merged",
        "return (1 if inversions % 2 else -1), merged",
        SIGN_TESTS,
    ),
    Mutant(
        "koszul_sign.sum",
        "src/njkit/exact.py",
        "if (degrees[seq[j] - 1] * degrees[seq[j + 1] - 1]) % 2:",
        "if (degrees[seq[j] - 1] + degrees[seq[j + 1] - 1]) % 2:",
        SIGN_TESTS,
    ),
    Mutant(
        "koszul_sign.first_degree",
        "src/njkit/exact.py",
        "if (degrees[seq[j] - 1] * degrees[seq[j + 1] - 1]) % 2:",
        "if degrees[seq[j] - 1] % 2:",
        SIGN_TESTS,
    ),
    Mutant(
        "Permutation.sign.far_inversions",
        "src/njkit/exact.py",
        "                if imgs[i] > imgs[j]:\n                    inv += 1",
        "                if imgs[i] > imgs[j] + 1:\n                    inv += 1",
        SIGN_TESTS,
    ),
    Mutant(
        "Permutation.sign.flipped",
        "src/njkit/exact.py",
        "return -1 if inv % 2 else 1",
        "return 1 if inv % 2 else -1",
        SIGN_TESTS,
    ),
)


def _run(mutant: Mutant, work: Path) -> str:
    target = work / mutant.path
    pristine = (ROOT / mutant.path).read_text(encoding="utf-8")
    if pristine.count(mutant.old) != 1:
        return f"error (the text to replace occurs {pristine.count(mutant.old)} times)"
    target.write_text(pristine.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        done = subprocess.run(
            command + list(mutant.tests),
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"error (no result within {TIMEOUT_S} s)"
    finally:
        target.write_text(pristine, encoding="utf-8")
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error (pytest exit {done.returncode})"


def main() -> int:
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="njkit-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        for mutant in MUTANTS:
            outcome = _run(mutant, work)
            outcomes.append(outcome)
            print(f"{outcome:9} {mutant.name}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
