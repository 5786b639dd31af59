"""Spans around the benchmark's calls into each markoff layer.

Only the traced run installs the wrappers.  A wrapper replaces the
public function on every markoff module that holds it, so calls made
inside the library (enumerate_solutions inside verify_breakup,
neighbor_indices inside compute_orbits) are recorded too.  Spans stay in
memory as (name, start, end, parent, item) and are written out when the
run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# traced span name -> (module, function)
LAYERS = {
    "enumeration.enumerate_solutions": ("enumeration", "enumerate_solutions"),
    "enumeration.count_solutions_bruteforce": ("enumeration", "count_solutions_bruteforce"),
    "conics.closed_form_total": ("conics", "closed_form_total"),
    "orbits.neighbor_indices": ("orbits", "neighbor_indices"),
    "orbits.compute_orbits": ("orbits", "compute_orbits"),
    "orbits.verify_divisibility": ("orbits", "verify_divisibility"),
    "delta.build_certificate": ("delta", "build_certificate"),
    "delta.verify_certificate": ("delta", "verify_certificate"),
    "obstruction.verify_breakup": ("obstruction", "verify_breakup"),
    "special_cases.orbits_00_minus3": ("special_cases", "orbits_00_minus3"),
    "special_cases.orbit_table_22m2": ("special_cases", "orbit_table_22m2"),
    "special_cases.tiny_orbits_22m2": ("special_cases", "tiny_orbits_22m2"),
}


def maxrss_mb() -> float:
    """ru_maxrss high-water mark of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _arrays_mb(obj) -> float:
    """Size of the numpy arrays an object holds, computed from array sizes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 2 ** 20


class Tracer:
    """Span recorder for one traced repetition, single-threaded."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self.item: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, item = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, item)

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def _count(self, name: str, args, result) -> None:
        """Work counts at the layer boundary, taken after the span has ended."""
        if name == "enumeration.enumerate_solutions":
            self.counts["enumeration.points"] += len(result)
            self.peak("enumeration.result_mb", _arrays_mb(result))
            self.peak("enumeration.rss_after_mb", maxrss_mb())
        elif name == "enumeration.count_solutions_bruteforce":
            self.counts["enumeration.bruteforce_cells"] += args[0].p ** 3
        elif name == "orbits.neighbor_indices":
            self.counts["orbits.edges"] += int(result.size)
        elif name == "orbits.compute_orbits":
            self.counts["orbits.orbit_count"] += len(result.orbits)
            self.peak("orbits.rss_after_mb", maxrss_mb())
        elif name == "delta.build_certificate":
            pts = result.solutions.points
            self.counts["delta.zero_locus_points"] += int(np.count_nonzero((pts == 0).any(axis=1)))
            self.peak("delta.values_mb", result.values.nbytes / 2 ** 20)
        elif name == "delta.verify_certificate":
            self.counts["delta.fixed_edges"] += result.n_fixed_edges

    def wrap(self, name: str, fn, refusal: type[Exception]):
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except refusal:
                self.counts["delta.refusals"] += 1
                raise
            self._count(name, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace each layer function on every markoff module that holds it."""
        import markoff
        from markoff import delta
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "markoff" or n.startswith("markoff."))]
        patched = []
        for name, (mod_name, fn_name) in LAYERS.items():
            original = getattr(getattr(markoff, mod_name), fn_name)
            wrapper = self.wrap(name, original, delta.NoConsistentExtension)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)
