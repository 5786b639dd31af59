"""Record golden.json: the digest of every item any seed can produce.

Run from the repository root on the commit whose outputs are the
reference (about 3 minutes on a 2-core x86-64 box):

    python3 perfbench/record_golden.py

An item is recorded only if all of its own checks pass.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    items = workloads.all_pool_items()
    digests, bad_items = {}, []
    t0 = time.perf_counter()
    for k, item in enumerate(items):
        record, bad, _ = item.run()
        if bad:
            bad_items.append((item.key, bad))
        digests[item.key] = workloads.digest(record)
        if k % 500 == 0:
            print(f"{k}/{len(items)} items, {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    if bad_items:
        print(f"refusing to record: {len(bad_items)} items fail their checks, "
              f"first {bad_items[:5]}", file=sys.stderr)
        return 1
    out = {"digest": "sha256 of the item record as canonical JSON, first 16 hex digits",
           "items": dict(sorted(digests.items()))}
    (HERE / "golden.json").write_text(json.dumps(out, indent=0) + "\n")
    print(f"recorded {len(digests)} items", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
