"""Run-to-run spread of the end-to-end metrics over sets of seeded runs.

    python3 perfbench/spread.py --workloads sweep_mid families --sets 401-410 501-510 \
        --seconds 50 --out perfbench/out/spread.json

Runs `run.py --trace 0` once per seed, one run at a time, and reports
for each workload, set and metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median, plus how far the later sets' medians moved from the
first set's.  Every run must pass its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--sets", nargs="+", required=True, help="seed ranges, e.g. 401-410")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads:
        sets = {}
        for spec in args.sets:
            runs = [run(workload, seed, args.seconds) for seed in seed_range(spec)]
            sets[spec] = {name: summarise([r[name] for r in runs]) for name in runs[0]}
            for name, row in sorted(sets[spec].items()):
                first = next(iter(sets.values()))[name]["median"]
                print(f"{workload} seeds {spec} {name}: median {row['median']:.6g} "
                      f"spread {row['spread']:.3f} median shift {row['median'] / first - 1:+.3f}",
                      flush=True)
        report[workload] = sets
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
