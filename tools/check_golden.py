"""Check this checkout's benchmark items against perfbench/golden.json.

Usage: python tools/check_golden.py [KIND ...]

Runs every item of perfbench/workloads.py's all_pool_items() whose key
starts with `KIND:` (all of them when no KIND is given), using markoff
and workloads.py from this checkout, and compares each record's digest
with the one in golden.json.  Prints one line per kind:

    <KIND> checked=<N> mismatched=<K>

and one line on stderr for each item whose digest differs or whose own
checks fail.  Exits 1 if any item mismatched or failed, 2 if a KIND
names no item, and 0 otherwise.  It writes no file.  The kinds are
sample, breakup, certificate, 00m3, table22m2 and tiny22m2; the whole
pool takes about 70 s on a 2-core x86-64 box.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["items"]
    by_kind: dict[str, list] = {}
    for item in workloads.all_pool_items():
        by_kind.setdefault(item.key.split(":")[0], []).append(item)
    kinds = argv or list(by_kind)
    unknown = [k for k in kinds if k not in by_kind]
    if unknown:
        print(f"no items of kind {', '.join(unknown)}; kinds are {', '.join(by_kind)}",
              file=sys.stderr)
        return 2
    failed = False
    for kind in kinds:
        mismatched = 0
        for item in by_kind[kind]:
            want = golden.get(item.key)
            try:
                record, bad, _ = item.run()
                got = workloads.digest(record)
            except Exception as exc:  # a crashing item is a failed item; go on
                got, bad = None, [f"{type(exc).__name__}: {exc}"]
            if got != want:
                mismatched += 1
                print(f"{item.key}: digest {got}, golden {want}", file=sys.stderr)
            if bad:
                print(f"{item.key}: failed checks {bad}", file=sys.stderr)
            failed |= bool(bad) or got != want
        print(f"{kind} checked={len(by_kind[kind])} mismatched={mismatched}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
