"""Per-stage wall time and peak memory of the pipeline at one prime.

Usage: python tools/bench_stages.py P [a1,a2,a3]

Builds the field tables untimed, then runs the brute-force count oracle
(oracle_s) and, after it, enumerate -> orbits -> certificate build ->
certificate verify once, in this process, and prints one JSON object.
Parameters the certificate refuses (s = 0, say) stop after orbits, with
the refusal in the output.  Where the certificate is its formula, as
here, cert_build is an O(1) call and all the certificate's work is in
cert_verify; on older commits cert_build writes an (M, 3) Delta array.
total_s covers the pipeline from enumeration on; the oracle is timed on
its own and stays out of it.  Run one process per prime so that peak RSS
belongs to that prime alone.

The move lookups are timed inside the stage that makes them, from
wrappers around the functions that do them: orbits_lookup_s is the time
compute_orbits spends finding its edges (the cell targets of
orbits._cell_targets, or on older commits the row lookups of
orbits.neighbor_indices), and search_s the rest of compute_orbits;
verify_lookup_s is the time verify_certificate spends locating move
images, on older commits in SolutionSet._locate or
orbits.neighbor_indices; it reads 0 here, where the verifier makes no
row lookup.  A wrapper replaces a function on every markoff module that
holds it, and _locate on the SolutionSet class; a function a commit
lacks is not wrapped, so the tool runs unchanged on older commits.

peak_rss_mb_after is the process's RSS high-water mark after each stage.
traced_peak_mb is the tracemalloc peak within each stage, which numpy's
arrays report: unlike RSS it does not depend on what the allocator kept
from earlier stages.
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

from markoff import delta, orbits
from markoff.enumeration import SolutionSet, count_solutions_bruteforce, enumerate_solutions
from markoff.surface import SurfaceParams

# the functions that look up move images, where a commit has them
LOOKUPS = ("_cell_targets", "neighbor_indices")
# the method that locates move images, where a commit has it
LOCATE = "_locate"


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _wrap_lookups(spent: dict, current: list) -> None:
    """Add each lookup's time to spent[(stage running, name)].

    The functions are replaced on every markoff module that holds them,
    and the method on SolutionSet.
    """
    def timed(fn, name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[current[0], name] += time.perf_counter() - start
            return out
        return wrapper

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("markoff")]
    for name in LOOKUPS:
        fn = getattr(orbits, name, None)
        if fn is None:
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, timed(fn, name))
    if hasattr(SolutionSet, LOCATE):
        setattr(SolutionSet, LOCATE, timed(getattr(SolutionSet, LOCATE), LOCATE))


def main(argv: list[str]) -> int:
    p = int(argv[0])
    a = tuple(int(v) for v in argv[1].split(",")) if len(argv) > 1 else (1, 1, 1)
    params = SurfaceParams.make(p, a)
    params.field.chi_table, params.field.sqrt_table  # build the field tables untimed
    stages: dict[str, float] = {}
    rss: dict[str, float] = {}
    traced: dict[str, float] = {}
    spent: dict = defaultdict(float)
    current = [""]
    _wrap_lookups(spent, current)
    tracemalloc.start()

    def run(stage: str, fn, *args):
        current[0] = stage
        tracemalloc.reset_peak()
        start = time.perf_counter()
        out = fn(*args)
        stages[stage + "_s"] = time.perf_counter() - start
        traced[stage] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        rss[stage] = _rss_mb()
        return out

    oracle_count = run("oracle", count_solutions_bruteforce, params)
    sol = run("enumerate", enumerate_solutions, params)
    part = run("orbits", orbits.compute_orbits, sol)
    try:
        delta.require_consistent(params)
    except (ValueError, delta.NoConsistentExtension) as exc:
        certificate = {"refused": str(exc)}  # s = 0 or a bad plane: no certificate stages
    else:
        assign = run("cert_build", delta.build_certificate, sol)
        report = run("cert_verify", delta.verify_certificate, assign, part)
        certificate = {"fixed_edges": report.n_fixed_edges,
                       "all_divisible": report.all_divisible}
    tracemalloc.stop()

    stages["orbits_lookup_s"] = sum(spent["orbits", name] for name in LOOKUPS)
    stages["search_s"] = stages["orbits_s"] - stages["orbits_lookup_s"]
    stages["verify_lookup_s"] = sum(spent["cert_verify", name] for name in (*LOOKUPS, LOCATE))
    stages["total_s"] = sum(stages.get(k + "_s", 0.0)
                            for k in ("enumerate", "orbits", "cert_build", "cert_verify"))
    print(json.dumps({
        "p": p, "a": list(params.a), "points": len(sol), "oracle_count": oracle_count,
        "orbits": len(part.orbits), **certificate,
        "stages_s": {k: round(v, 3) for k, v in sorted(stages.items())},
        "peak_rss_mb_after": {k: round(v, 1) for k, v in rss.items()},
        "traced_peak_mb": {k: round(v, 1) for k, v in traced.items()},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
