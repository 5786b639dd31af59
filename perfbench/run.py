"""markoff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_mid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50   # each in turn

Run from the root of a checkout; markoff is imported from its src/.  The
run starts fresh processes one after another, never two at once: a few
set-up-only processes (setup_s is their median), then the measuring
worker (worker.py).  Every child gets one thread and no MARKOFF_WORKERS.
With --trace 0 the result carries the end-to-end metrics, their times
scaled to a reference host speed (worker.py says how; the raw times are
printed and recorded too), with --trace 1 the per-layer ones, unscaled.  The last stdout line is the JSON result; the full
record (environment, counts, failures) goes to perfbench/out/.  Exit code
0 means every item and the CLI parity check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_mid", "families")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "points_per_s": "1/s",
    "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MARKOFF_WORKERS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str]) -> tuple[int, dict | None]:
    """Run worker.py to completion; return its exit code and JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:   # run() has killed and reaped the child
        print(f"error: worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return -1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "markoff").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "source_sha256": src.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [main(["--workload", name, *rest]) for name in WORKLOADS]
        return max(codes)
    if not (ROOT / "src" / "markoff" / "__init__.py").is_file():
        print(f"error: no markoff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            code, res = run_child(common + ["--seconds", "0", "--setup-only"])
            if code != 0 or res is None:
                print(f"error: set-up process failed (exit {code})", file=sys.stderr)
                return 2
            setups.append(res["setup_s"])
            raw_setups.append(res["raw_setup_s"])
    t0 = time.perf_counter()
    code, res = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    if res is None:
        print(f"error: worker failed (exit {code}) without a result", file=sys.stderr)
        return 2

    metrics = res["metrics"]
    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    record = {"environment": environment(args.workload, args.seed), "trace": args.trace,
              "seconds": args.seconds, "worker_wall_s": time.perf_counter() - t0,
              "setup_samples_s": setups, "raw_setup_samples_s": raw_setups, **res}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['commit'][:12]} "
          f"items={res['items']} repeats={res['repeats']} params_hash={res['params_hash']}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"# item times are each item's fastest run over {res['repeats']} passes; "
              f"item_tail_ms is p{res['tail_percentile']:g} of {res['items']} items")
        raw = res["raw_metrics"]
        print(f"# times are scaled to the host speed of the reference kernel (x{res['scale']:.4f}); "
              f"raw: setup_s = {statistics.median(raw_setups):.6g} s, wall_s = {raw['wall_s']:.6g} s, "
              f"item_p50_ms = {raw['item_p50_ms']:.6g} ms, item_tail_ms = {raw['item_tail_ms']:.6g} ms")
    print(f"failed_fraction = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} runs)")
    for key, bad in res["failures"]:
        print(f"# FAILED {key}: {', '.join(bad)}")
    for problem in res["parity_problems"]:
        print(f"# PARITY {problem}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if res["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
