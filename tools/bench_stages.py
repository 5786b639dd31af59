"""Per-stage wall time and peak memory of the pipeline at one prime.

Usage: python tools/bench_stages.py P [a1,a2,a3]

Builds the field tables untimed, then runs the brute-force count oracle
(oracle_s) and, after it, enumerate -> orbits -> certificate verify, in
this process, and prints one JSON object.  The certificate is built
untimed between orbits and verify: it is its formula, an O(1) call, and
all the certificate's work is in cert_verify.  Parameters the
certificate refuses (s = 0, say) stop after orbits, with the refusal in
the output.  total_s covers the pipeline from enumeration on; the
oracle is timed on its own and stays out of it.  Run one process per
prime so that peak RSS belongs to that prime alone.

The pipeline runs twice.  The first run is timed with tracemalloc off,
since tracing charges every allocation and skews the stages unevenly;
peak_rss_mb_after is the process's RSS high-water mark after each of its
stages.  The second run, its results dropped, gives traced_peak_mb: the
tracemalloc peak within each stage, which numpy's arrays report and
which, unlike RSS, does not depend on what the allocator kept from
earlier stages.  That peak includes the arrays still live from earlier
stages, the solution set among them; traced_own_mb is the peak less
what was traced just before the stage ran, the stage's own
allocations.  The oracle's cached root table is cleared before the
second run, so both runs build it.

The move lookups of the timed run are timed inside the stage that makes
them, from wrappers around the functions that do them: orbits_lookup_s
is the time compute_orbits spends finding its edges, the cell targets
of orbits._cell_targets (0 on commits without it), and search_s the
rest of compute_orbits.
searches counts the graph searches of the timed orbits stage: the calls
of scipy's breadth_first_order and, on older commits, depth_first_order.
On s = 0 the orbits stage is the CLI's dispatch to cone_orbits, on
commits that have it, with the orbit list read inside the stage: no
enumerate stage, no cell targets, and one search, on the graph of the
at most 2p + 1 projective classes.
A wrapper replaces a function on every markoff module that holds it; a
function a commit lacks is not wrapped, so the tool runs unchanged on
older commits.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy

from markoff import cli, delta, enumeration, orbits
from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.surface import SurfaceParams

# the functions that look up move images, and the graph searches, where a commit has them
LOOKUPS = ("_cell_targets",)
SEARCHES = ("breadth_first_order", "depth_first_order")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _wrap_lookups(spent: dict, calls: dict, current: list) -> None:
    """Add each lookup's and search's time to spent[(stage running, name)], its calls to calls.

    The functions are replaced on every markoff module that holds them.
    """
    def timed(fn, name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[current[0], name] += time.perf_counter() - start
            calls[current[0], name] += 1
            return out
        return wrapper

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("markoff")]
    for name in LOOKUPS + SEARCHES:
        fn = getattr(orbits, name, None)
        if fn is None:
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, timed(fn, name))


def _listed_partition(params: SurfaceParams):
    """The CLI's partition with its orbit list read, which the cone engine builds on first use."""
    part = cli._orbit_partition(params)
    part.orbits
    return part


def _pipeline(params: SurfaceParams, run) -> dict:
    """The oracle, then enumerate -> orbits -> certificate, each stage through run(stage, fn, *args).

    Where the CLI sends s = 0 to the cone engine, the orbits stage is that
    dispatch and no enumerate stage runs.
    """
    out = {"oracle_count": run("oracle", count_solutions_bruteforce, params)}
    if params.s == 0 and params.p != 2 and hasattr(orbits, "cone_orbits"):
        part = run("orbits", _listed_partition, params)
        out.update(points=part.total, orbits=len(part.orbits))
    else:
        sol = run("enumerate", enumerate_solutions, params)
        part = run("orbits", orbits.compute_orbits, sol)
        out.update(points=len(sol), orbits=len(part.orbits))
    try:
        delta.require_consistent(params)
    except (ValueError, delta.NoConsistentExtension) as exc:
        out["refused"] = str(exc)  # s = 0 or a bad plane: no certificate stages
    else:
        assign = delta.build_certificate(sol)
        report = run("cert_verify", delta.verify_certificate, assign, part)
        out.update(fixed_edges=report.n_fixed_edges, all_divisible=report.all_divisible)
    return out


def main(argv: list[str]) -> int:
    p = int(argv[0])
    a = tuple(int(v) for v in argv[1].split(",")) if len(argv) > 1 else (1, 1, 1)
    params = SurfaceParams.make(p, a)
    params.field.chi_table, params.field.sqrt_table  # build the field tables untimed
    stages: dict[str, float] = {}
    rss: dict[str, float] = {}
    traced: dict[str, float] = {}
    own: dict[str, float] = {}
    spent: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    current = [""]
    _wrap_lookups(spent, calls, current)

    def timed(stage: str, fn, *args):
        current[0] = stage
        start = time.perf_counter()
        out = fn(*args)
        stages[stage + "_s"] = time.perf_counter() - start
        rss[stage] = _rss_mb()
        return out

    def traced_peak(stage: str, fn, *args):
        current[0] = "traced"
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        traced[stage] = peak / 2 ** 20
        own[stage] = (peak - before) / 2 ** 20
        return out

    result = _pipeline(params, timed)
    root_table = getattr(enumeration, "_root_table", None)
    if hasattr(root_table, "cache_clear"):  # where a commit caches it, the traced run rebuilds it
        root_table.cache_clear()
    tracemalloc.start()
    _pipeline(params, traced_peak)
    tracemalloc.stop()

    stages["orbits_lookup_s"] = sum(spent["orbits", name] for name in LOOKUPS)
    stages["search_s"] = stages["orbits_s"] - stages["orbits_lookup_s"]
    stages["total_s"] = sum(stages.get(k + "_s", 0.0)
                            for k in ("enumerate", "orbits", "cert_verify"))
    print(json.dumps({
        "p": p, "a": list(params.a), **result,
        "searches": sum(calls["orbits", name] for name in SEARCHES),
        "stages_s": {k: round(v, 3) for k, v in sorted(stages.items())},
        "peak_rss_mb_after": {k: round(v, 1) for k, v in rss.items()},
        "traced_peak_mb": {k: round(v, 1) for k, v in traced.items()},
        "traced_own_mb": {k: round(v, 1) for k, v in own.items()},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
