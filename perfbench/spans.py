"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public layer entry points of the ``rookmonoids``
package from outside: while it is installed, each call to one of the
functions in ``LAYERS`` records a span (name, start, end, parent, run id)
and the computed counts taken from the call's arguments or result.  Nothing
inside the package changes, and uninstalling puts the original functions
back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time


def _seeds(args):
    size = len(args[0])
    return size * (size - 1) // 2


# (span name, module, attribute, counts taken from (args, result)).  The
# module is relative to the package; "core.MonoidUniverse" names the class
# whose method is wrapped.  Counts are computed, not timed, so they repeat
# exactly for identical work.
LAYERS = (
    ("core.enumerate", "core", "enumerate_universe",
     lambda args, out: {"core.elements": len(out)}),
    ("core.table", "core.MonoidUniverse", "multiplication_table",
     lambda args, out: {"core.table_mb": out.size * out.itemsize / 1e6}),
    ("green.partition", "green", "green_partition", None),
    ("green.report", "green", "green_report", None),
    ("green.ideals", "green", "enumerate_ideals",
     lambda args, out: {"green.ideals": len(out)}),
    ("families.predict", "families", "predicted_congruences",
     lambda args, out: {"families.predicted": len(out)}),
    ("families.verify", "families", "verify_classification", None),
    ("congruences.normal_subgroups", "congruences", "normal_subgroups", None),
    ("congruences.is_congruence", "congruences", "is_congruence", None),
    ("congruences.lattice", "congruences", "congruence_lattice",
     lambda args, out: {"congruences.lattice_size": len(out),
                        "congruences.seeds": _seeds(args)}),
    ("congruences.closure", "congruences", "congruence_closure",
     lambda args, out: {"congruences.closure_classes": out.num_classes}),
    ("cli.main", "cli", "main", None),
)

# Counts that add up over the calls of one run; every other count is a
# property of the run's universe and is the same on every call.
SUMMED = frozenset({"congruences.closure_classes"})

MODULES = ("core", "green", "congruences", "families", "cli")


class Tracer:
    """Records spans while installed; ``run`` opens the root span of a job."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.counts = {}  # run id -> {count name: value}
        self._stack = []
        self._run_id = None

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self._add_counts(count(args, out))
            return out

        return traced

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._run_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _add_counts(self, values):
        run = self.counts.setdefault(self._run_id, {})
        for key, value in values.items():
            run[key] = run.get(key, 0) + value if key in SUMMED else value

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding of each layer function for its traced wrapper.

        Functions are rebound wherever the package's modules imported them
        by name, so calls between layers are traced too.
        """
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        saved = []
        try:
            for name, where, attr, count in LAYERS:
                owner = self.package
                for part in where.split("."):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                traced = self._wrap(name, original, count)
                targets = [owner] if isinstance(owner, type) else modules
                for target in targets:
                    if vars(target).get(attr) is original:
                        saved.append((target, attr, original))
                        setattr(target, attr, traced)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    @contextlib.contextmanager
    def run(self, run_id):
        """Root span of one job or set-up; spans opened inside it share its run id."""
        self._run_id = run_id
        index = self._open("job")
        try:
            yield
        finally:
            self._close(index)
            self._run_id = None

    def summarize(self):
        """Per run: root wall time, self time and call durations per layer."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        runs = {}
        for index, (name, start, end, parent, run_id) in enumerate(self.spans):
            run = runs.setdefault(run_id, {"wall": 0.0, "self": {}, "calls": {}})
            if parent is None:
                run["wall"] += end - start
            own = end - start - children[index]
            run["self"][name] = run["self"].get(name, 0.0) + own
            run["calls"].setdefault(name, []).append(end - start)
        return runs
