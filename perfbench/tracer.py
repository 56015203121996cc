"""Outside-in tracing of njkit: wrap public functions, record spans, restore.

``Tracer.install`` replaces each traced function or method with a wrapper
everywhere njkit can reach it: the defining module, the class, the package
namespace and every njkit module that imported the name with
``from .x import y``. ``Tracer.uninstall`` puts every original back.

Each wrapped call is a span ``(id, name, start, end, parent, job)`` kept in
memory (up to ``SPAN_CAP``; later spans are still aggregated but not kept)
and written out by ``write_spans`` when the run ends. A span's self time is
its duration minus the durations of its direct child spans, accumulated on
the fly with a stack.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric name, module, attribute path). Several attributes may share one
# metric name; their calls and self time add up.
TARGETS = (
    ("cohomology.delta_lie", "njkit.cohomology", "delta_lie"),
    ("cohomology.delta_njo", "njkit.cohomology", "delta_njo"),
    ("cohomology.psi", "njkit.cohomology", "psi"),
    ("cohomology.delta_njl", "njkit.cohomology", "delta_njl"),
    ("cohomology.betti", "njkit.cohomology", "betti"),
    ("cohomology.les_verify", "njkit.cohomology", "les_verify"),
    ("lie.deformed_representation", "njkit.lie", "deformed_representation"),
    ("lie.Endomorphism.apply", "njkit.lie", "Endomorphism.apply"),
    ("lie.validate", "njkit.lie", "validate_lie"),
    ("lie.validate", "njkit.lie", "validate_nijenhuis"),
    ("lie.validate", "njkit.lie", "validate_representation"),
    ("lie.validate", "njkit.lie", "validate_nijenhuis_representation"),
    ("exact.rank", "njkit.exact", "SparseMatrix.rank"),
    ("exact.kernel_basis", "njkit.exact", "SparseMatrix.kernel_basis"),
    ("exact.koszul_sign", "njkit.exact", "koszul_sign"),
    ("braces.shuffle_brace", "njkit.braces", "shuffle_brace"),
    ("braces.rn_bracket", "njkit.braces", "rn_bracket"),
    ("braces.SuspendedHom.evaluate", "njkit.braces", "SuspendedHom.evaluate"),
    ("braces.SuspendedHom.evaluate_mixed", "njkit.braces", "SuspendedHom.evaluate_mixed"),
    ("braces.njl_twisted_betti", "njkit.braces", "njl_twisted_betti"),
    ("braces.mc_residual", "njkit.braces", "mc_residual"),
    ("forms.Poly.mul", "njkit.forms", "Poly.mul"),
    ("forms.Poly.add", "njkit.forms", "Poly.add"),
    ("forms.fn_bracket", "njkit.forms", "fn_bracket"),
    ("forms.fn_betti", "njkit.forms", "fn_betti"),
    ("forms.check_homotopy", "njkit.forms", "check_homotopy"),
    ("algebroid.graded_commutator", "njkit.algebroid", "graded_commutator"),
    ("algebroid.delta_njld", "njkit.algebroid", "delta_njld"),
    ("algebroid.algebroid_fn_bracket", "njkit.algebroid", "algebroid_fn_bracket"),
    ("algebroid.validate_algebroid", "njkit.algebroid", "validate_algebroid"),
    ("algebroid.validate_phi_chain_map", "njkit.algebroid", "validate_phi_chain_map"),
    ("cli.parse", "njkit.cli", "parse_lie_file"),
    ("cli.parse", "njkit.cli", "parse_algebroid_file"),
    ("cli.parse", "njkit.cli", "parse_forms_file"),
    ("cli.render", "njkit.cli", "render_report"),
)

# Inclusive time of the outermost calls of a group: the time spent anywhere
# inside the cochain differentials, however they nest.
GROUPS = {
    "cohomology.differentials": frozenset(
        ("cohomology.delta_lie", "cohomology.delta_njo", "cohomology.psi", "cohomology.delta_njl")
    ),
}

# Counted but not timed: a span per polynomial construction would cost more
# than the construction and blur the self time of its callers.
COUNTERS = (("forms.Poly.constructed", "njkit.forms", "Poly.__post_init__"),)


SPAN_CAP = 50_000


def _max_bits(matrix) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in matrix.entries.values()),
        default=0,
    )


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {group: 0.0 for group in GROUPS}
        self._group_depth: dict[str, int] = {group: 0 for group in GROUPS}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.excluded_s = 0.0
        self.job: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._sites: list[tuple] | None = None
        self._installed = False

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else None
        outermost = []
        for group, members in GROUPS.items():
            if name in members:
                if not self._group_depth[group]:
                    outermost.append(group)
                self._group_depth[group] += 1
        frame = [0.0, self._next_id, parent, outermost]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        for group, members in GROUPS.items():
            if name in members:
                self._group_depth[group] -= 1
        for group in frame[3]:
            self.inclusive_s[group] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], name, start, end, frame[2], self.job))
        else:
            self.dropped += 1

    def _exclude(self, seconds: float) -> None:
        """Keep bookkeeping time out of the enclosing span's self time."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (used for job roots)."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, start, time.perf_counter())

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        enter, leave, clock = self._enter, self._exit, time.perf_counter
        before = {"exact.rank": self._rank_inputs}.get(name)
        after = {"lie.validate": self._validation}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args)
                self._exclude(clock() - t)
            frame = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, start, clock())
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rank_inputs(self, args) -> None:
        matrix = args[0]
        counts = self.counts
        counts["exact.rank.nnz_in"] = counts.get("exact.rank.nnz_in", 0) + len(matrix.entries)
        counts["exact.rank.max_bits_in"] = max(counts.get("exact.rank.max_bits_in", 0), _max_bits(matrix))

    def _validation(self, report) -> None:
        if not report.ok:
            self.counts["lie.validate.failed"] = self.counts.get("lie.validate.failed", 0) + 1

    def _resolve(self) -> list[tuple]:
        """Every (owner, attribute, original, wrapper) the wrappers go into."""
        for _, module_name, _ in TARGETS + COUNTERS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items() if key == "njkit" or key.startswith("njkit.")]
        sites = []
        for kind, specs in ((self._timed, TARGETS), (self._counted, COUNTERS)):
            for name, module_name, path in specs:
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    sites.append((cls, attr, original, kind(name, original)))
                    continue
                original = getattr(owner, path)
                wrapper = kind(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            sites.append((module, attr, original, wrapper))
        return sites

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._sites is None:
            self._sites = self._resolve()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._sites or ()):
            setattr(owner, attr, original)
        self._installed = False

    def sites(self) -> list[tuple]:
        """``(owner, attribute, original)`` for every patch location."""
        if self._sites is None:
            self._sites = self._resolve()
        return [(owner, attr, original) for owner, attr, original, _ in self._sites]

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                handle.write(json.dumps([span_id, name, start, end, parent, job]) + "\n")
