"""One measured run of one workload, in a fresh process started by run.py.

Closed loop, one client, one thread: the next item starts when the
previous verdict is in.  The run's items are repeated in passes while
another pass still fits in --seconds, at least MIN_PASSES times.
An item faster than SHORT_S in the first pass is, in later passes, run
again after every slower item, so that its runs spread over the whole
pass.  Every run is checked.  An item's time is its fastest run: on a
shared host other tenants slow the CPU by up to 2x for stretches of
milliseconds to minutes, and the fastest of runs spread over time is
what the code itself costs.  Drift that lasts a whole run (up to 1.4x
for ten minutes and more) is mostly taken out by timing a fixed kernel
after every pass: the end-to-end times are reported at the host speed
at which that kernel takes KERNEL_REF_S, and the raw times are kept in
the run record.
With --trace 1 the run makes one untraced and one traced pass instead,
each running every item once.  After the timed passes the equivalent
`markoff` command runs once in-process, and its verdict must equal the
benchmark's.  The result is one JSON line on stdout; exit code 1 means
a correctness or parity check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 3
SHORT_S = 0.001
KERNEL_REF_S = 0.008


def setup(workload: str):
    """Import markoff from this checkout and build the workload's field tables."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import markoff
    import workloads
    t_import = time.perf_counter()
    for p in workloads.TABLE_PRIMES[workload]:
        fld = markoff.prime_field(p)
        fld.chi_table, fld.sqrt_table, fld.inv_table
    t_end = time.perf_counter()
    if not Path(markoff.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"markoff imported from {markoff.__file__}, not from this checkout")
    return workloads, t_end - t0, t_end - t_import


def run_pass(items, golden: dict, short: frozenset = frozenset(), tracer=None) -> dict:
    """Run every item once, and each item whose index is in `short` once more
    after every item that is not; time and check every run."""
    import workloads
    times = [[] for _ in items]
    records, failures = [None] * len(items), []
    rerun = sorted(short)
    t_pass = time.perf_counter()

    def run(k: int) -> int:
        item = items[k]
        if tracer is not None:
            tracer.item = k
            ctx = tracer.span("item")
        else:
            ctx = contextlib.nullcontext()
        t0 = time.perf_counter()
        with ctx:
            try:
                record, bad, m = item.run()
            except Exception as exc:  # a failing item is counted and the run goes on
                record, bad, m = None, [f"{type(exc).__name__}: {exc}"], 0
        times[k].append(time.perf_counter() - t0)
        if record is not None and golden.get(item.key) != workloads.digest(record):
            bad.append("digest")
        if bad:
            failures.append((item.key, bad))
        records[k] = record
        return m

    points = 0
    for k in range(len(items)):
        points += run(k)
        if k not in short:
            for j in rerun:
                run(j)
    return {"wall": time.perf_counter() - t_pass, "times": [min(t) for t in times],
            "points": points, "runs": sum(map(len, times)), "failures": failures,
            "records": records}


def tail(times: list[float]) -> tuple[float, float]:
    """Nearest-rank percentile: the highest listed one with at least 10 items beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    q = next((q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10), 100.0)
    rank = max(1, -(-q * n // 100))       # ceil(q/100 * n), 1-based
    return q, ordered[int(rank) - 1]


def cli(argv: list[str]) -> tuple[int, str]:
    from markoff.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def parity(workload: str, seed: int, items, first: dict) -> list[str]:
    """Run the equivalent CLI command; return the disagreements."""
    import workloads
    recs = first["records"]
    clean = not first["failures"]
    problems = []
    if workload == "sweep_mid":
        argv = ["sweep", "--p-list", ",".join(map(str, workloads.MID_PRIMES)),
                "--samples", str(workloads.MID_SAMPLES),
                "--seed", str(workloads.mid_sweep_seed(seed))]
        code, out = cli(argv)
        lines = out.strip().splitlines()
        verdict = lines[-1] if lines else ""
        runs = verdict.split()[1] if verdict.startswith("sweep: ") else None
        if runs != str(len(items)) or (code == 0) != clean or verdict.endswith(" 0 failures") != clean:
            problems.append(f"{' '.join(argv)}: {verdict!r} exit {code}")
    elif workload == "families":
        by_kind = {}
        for item, rec in zip(items, recs):
            by_kind.setdefault(item.key.split(":")[0], []).append((item.key, rec))
        for key, rec in by_kind["breakup"]:
            a = key.rsplit(":", 1)[1]
            code, out = cli(["verify", "breakup", "-p", str(workloads.FAMILY_P), "-a", a])
            if code != (0 if rec and rec["bound_holds"] else 1) or json.loads(out) != rec:
                problems.append(f"verify breakup -a {a}: report differs")
        (_, table), = by_kind["table22m2"]
        code, out = cli(["table-22m2", "--max-p", str(workloads.TABLE_MAX_P)])
        if code != 0 or table is None or out != table["csv"]:
            problems.append("table-22m2: CSV differs")
    return problems


def kernel_s(rounds: int = 5) -> float:
    """Fastest of `rounds` runs of a fixed kernel that does not touch markoff:
    modular arithmetic on 10^6 int64, like the brute-force residual.  On this
    kind of shared host it slows with both workloads, where a Python loop or
    a searchsorted kernel tracks them less well."""
    import numpy as np
    x = np.arange(1_000_000, dtype=np.int64)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        int(((x * x + 7 * x) % 101).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def end_to_end(repeats: list[dict], peak_rss_mb: float, scale: float) -> tuple[dict, float]:
    """Metrics over each item's fastest run times `scale`, and the tail percentile used."""
    best = [min(t) * scale for t in zip(*(r["times"] for r in repeats))]
    wall = sum(best)
    q, tail_s = tail(best)
    return {
        "wall_s": wall,
        "items_per_s": len(best) / wall,
        "points_per_s": repeats[0]["points"] / wall,
        "item_p50_ms": statistics.median(best) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }, q


def per_layer(tracer, tables_s: float, n_primes: int, overhead_s: float) -> dict:
    from tracing import LAYERS
    totals = tracer.layer_totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {"field.tables_s": tables_s, "field.tables.calls": n_primes}
    for name in LAYERS:
        row = totals.get(name, zero)
        out[f"{name}_s"] = row["s"]
        out[f"{name}.calls"] = row["calls"]
    out["orbits.labelling_s"] = totals.get("orbits.compute_orbits", zero)["self_s"]
    out["obstruction.verify_breakup.self_s"] = totals.get("obstruction.verify_breakup", zero)["self_s"]
    out["special_cases.orbit_table_22m2.self_s"] = totals.get(
        "special_cases.orbit_table_22m2", zero)["self_s"]
    for name in ("enumeration.points", "enumeration.bruteforce_cells", "orbits.edges",
                 "orbits.orbit_count", "delta.zero_locus_points", "delta.fixed_edges",
                 "delta.refusals", "conics.count_mismatches"):
        out[name] = tracer.counts[name]
    for name in ("enumeration.result_mb", "enumeration.rss_after_mb", "orbits.rss_after_mb",
                 "delta.values_mb"):
        out[name] = tracer.peaks.get(name, 0.0)
    bf_s = out["enumeration.count_solutions_bruteforce_s"]
    out["enumeration.bruteforce_cells_per_s"] = out["enumeration.bruteforce_cells"] / bf_s if bf_s else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads, setup_s, tables_s = setup(args.workload)
    if args.setup_only:
        scale = KERNEL_REF_S / kernel_s()
        print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s,
                          "tables_s": tables_s}))
        return 0

    from tracing import Tracer, maxrss_mb
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())["items"]
    items = workloads.run_items(args.workload, args.seed)
    result = {"setup_s": setup_s}
    if args.trace:
        untraced = run_pass(items, golden)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(items, golden, tracer=tracer)
        repeats = [untraced, traced]
        tracer.counts["conics.count_mismatches"] = sum(
            b.startswith("closed_form") for _, bad in traced["failures"] for b in bad)
        result["metrics"] = per_layer(tracer, tables_s, len(workloads.TABLE_PRIMES[args.workload]),
                                      traced["wall"] - untraced["wall"])
        trace_path = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        repeats, kernels, short, t0 = [], [], frozenset(), time.perf_counter()
        while (len(repeats) < MIN_PASSES
               or time.perf_counter() - t0 + repeats[-1]["wall"] <= args.seconds):
            repeats.append(run_pass(items, golden, short))
            kernels.append(kernel_s())
            short = frozenset(k for k, t in enumerate(repeats[0]["times"]) if t < SHORT_S)
        scale = KERNEL_REF_S / statistics.median(kernels)
        result["metrics"], result["tail_percentile"] = end_to_end(repeats, maxrss_mb(), scale)
        result["raw_metrics"], _ = end_to_end(repeats, maxrss_mb(), 1.0)
        result["kernel_s"], result["scale"] = kernels, scale

    try:
        problems = parity(args.workload, args.seed, items, repeats[0])
    except Exception as exc:  # a crashing CLI is a parity failure, not a benchmark crash
        problems = [f"CLI raised {type(exc).__name__}: {exc}"]
    failures = [f for r in repeats for f in r["failures"]]
    result.update({
        "attempted": sum(r["runs"] for r in repeats),
        "failed": len(failures),
        "failures": failures[:20],
        "parity_problems": problems,
        "items": len(items),
        "repeats": len(repeats),
        "repeat_wall_s": [r["wall"] for r in repeats],
        "params_hash": workloads.digest({"keys": [it.key for it in items]}),
        "correct": not failures and not problems,
    })
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
