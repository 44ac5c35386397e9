"""Span tracing around tamelab's public layer functions.

``Tracer.install`` wraps every function in ``LAYERS`` and patches the
wrapper into each ``tamelab`` module that binds the function's name, so
calls between functions of one module (through module globals) are
recorded too.  Spans stay in memory until ``summary``/``dump``.

``torus`` is not wrapped: it runs once per cell inside ``sources`` and
``families``, so a per-call wrapper would cost more than the call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings
from collections import Counter, defaultdict

LAYERS = {
    "cli": ("run",),
    "sources": ("materialize", "write_window", "read_window"),
    "language": ("complexity", "count_contiguous", "patterns_on", "project"),
    "entropy": ("entropy_estimate", "sequence_entropy_estimate"),
    "freeset": ("max_free_set", "is_free", "brute_force_free_oracle"),
    "classify": ("classify", "probe_projection_growth"),
    "families": ("orbit_family_sample", "find_independent_subfamily",
                 "l1_lower_bound", "epsilon_ns", "total_variation"),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
SOURCE_KINDS = ("sturmian", "sphere", "ip_indicator", "morse", "concat_nonnull",
                "char_halfline", "de_bruijn", "random", "explicit")

# Counts computed from call arguments and return values (two are file
# sizes).  They repeat exactly for identical inputs; none measures memory
# traffic.
COUNTS = ("cli.artifact_bytes", "sources.cells", "sources.io_bytes",
          "language.windows", "language.shift_cells", "freeset.free_sets",
          "freeset.levels", "freeset.beam_limited", "freeset.horizon_warnings",
          "classify.brackets", "families.sample_cells")


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec = [("error_rate", "ratio"), ("trace_overhead_s", "s"), ("uncovered_s", "s")]
    spec += [(f"{layer}.self_s", "s") for layer in LAYERS]
    for fname in FUNCTIONS:
        spec += [(f"{fname}.calls", "count"), (f"{fname}.busy_s", "s"),
                 (f"{fname}.self_s", "s"), (f"{fname}.failed", "count")]
    spec += [(f"sources.materialize.{kind}.busy_s", "s") for kind in SOURCE_KINDS]
    spec += [(name, "bytes" if name.endswith("_bytes") else "count") for name in COUNTS]
    spec.append(("sources.cells_per_s", "1/s"))
    return spec


def is_count(name: str) -> bool:
    """Counts repeat exactly between passes; the other metrics are measured."""
    return name in COUNTS or name.endswith((".calls", ".failed"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _box_windows(extents, n):
    count = 1
    for extent in extents:
        count *= max(extent - n + 1, 0)
    return count


def _count_run(c, args, kwargs, rc):
    out = _arg(args, kwargs, 2, "out_dir")
    with os.scandir(out) as entries:
        c["cli.artifact_bytes"] += sum(e.stat().st_size for e in entries
                                       if e.name != "manifest.txt")


def _count_materialize(c, args, kwargs, win):
    c["sources.cells"] += int(win.symbols.size)


def _count_write(c, args, kwargs, result):
    c["sources.io_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read(c, args, kwargs, win):
    c["sources.io_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_complexity(c, args, kwargs, lang):
    win = _arg(args, kwargs, 0, "win")
    for n in range(1, _arg(args, kwargs, 1, "n_max") + 1):
        windows = _box_windows(win.extents, n)
        c["language.windows"] += windows
        c["language.shift_cells"] += windows * n ** win.rank


def _count_contiguous(c, args, kwargs, result):
    win, n = _arg(args, kwargs, 0, "win"), _arg(args, kwargs, 1, "n")
    windows = _box_windows(win.extents, n)
    c["language.windows"] += windows
    c["language.shift_cells"] += windows * n


def _count_patterns(c, args, kwargs, ps):
    c["language.windows"] += ps.shift_count
    c["language.shift_cells"] += ps.shift_count * ps.coordset.size


def _count_project(c, args, kwargs, ps):
    source = _arg(args, kwargs, 0, "ps")
    c["language.windows"] += source.count
    c["language.shift_cells"] += source.count * source.coordset.size


def _count_search(c, args, kwargs, result):
    c["freeset.free_sets"] += sum(entry.free_count for entry in result.profile)
    c["freeset.levels"] += len(result.profile)
    c["freeset.beam_limited"] += int(result.beam_limited)


def _count_classify(c, args, kwargs, report):
    c["classify.brackets"] += len(report.max_free_by_bracket)


def _count_family(c, args, kwargs, fs):
    c["families.sample_cells"] += fs.n_members * fs.n_points


COUNTERS = {
    "cli.run": _count_run,
    "sources.materialize": _count_materialize,
    "sources.write_window": _count_write,
    "sources.read_window": _count_read,
    "language.complexity": _count_complexity,
    "language.count_contiguous": _count_contiguous,
    "language.patterns_on": _count_patterns,
    "language.project": _count_project,
    "freeset.max_free_set": _count_search,
    "classify.classify": _count_classify,
    "families.orbit_family_sample": _count_family,
}


class Tracer:
    """Records one span per wrapped call: (function, start, end, parent, job, failed, tag)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "tamelab" or name.startswith("tamelab.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"tamelab.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fname, fn):
        counter = COUNTERS.get(fname)
        catch = fname == "freeset.max_free_set"
        is_run = fname == "cli.run"
        is_materialize = fname == "sources.materialize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            tag = _arg(args, kwargs, 0, "source").kind if is_materialize else None
            failed = True
            start = time.perf_counter()
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.counts["freeset.horizon_warnings"] += len(caught)
                else:
                    result = fn(*args, **kwargs)
                failed = is_run and result != 0
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (fname, start, end, parent, self.job, failed, tag)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self, makespan: float) -> dict:
        """Per-function calls, busy, self and failed, plus layer and count totals.

        Busy time counts only the outermost span of a function, so a
        function that reaches itself again is not counted twice.  Self
        time is a span's duration minus its direct children's durations.
        """
        out: dict[str, float] = defaultdict(float)
        for fname in FUNCTIONS:
            for key in ("calls", "busy_s", "self_s", "failed"):
                out[f"{fname}.{key}"] = 0
        for kind in SOURCE_KINDS:
            out[f"sources.materialize.{kind}.busy_s"] = 0.0
        child_time = [0.0] * len(self.spans)
        for fname, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        root_time = 0.0
        for i, (fname, start, end, parent, _, failed, tag) in enumerate(self.spans):
            duration = end - start
            out[f"{fname}.calls"] += 1
            out[f"{fname}.failed"] += int(failed)
            out[f"{fname}.self_s"] += duration - child_time[i]
            if parent < 0:
                root_time += duration
            if not self._inside(i, fname):
                out[f"{fname}.busy_s"] += duration
                if tag is not None:
                    out[f"sources.materialize.{tag}.busy_s"] += duration
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{n}.self_s"] for n in names)
        out["uncovered_s"] = makespan - root_time
        for name in COUNTS:
            out[name] = self.counts[name]
        busy = out["sources.materialize.busy_s"]
        out["sources.cells_per_s"] = self.counts["sources.cells"] / busy if busy else 0.0
        return dict(out)

    def _inside(self, index: int, fname: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == fname:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, origin: float) -> list:
        """Spans with times relative to ``origin``, for writing out."""
        return [[fname, round(start - origin, 9), round(end - origin, 9), parent, job,
                 failed, tag]
                for fname, start, end, parent, job, failed, tag in self.spans]
