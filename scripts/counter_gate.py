#!/usr/bin/env python3
"""Holds the benchmark's exact work counters and the digest layer to a baseline.

Run from the repository root after capturing, for each workload W,

    python3 ctxbench/run.py --workload W --seed 1 --seconds 2 --trace 1 \\
        --check-counters > counters-W.txt
    python3 ctxbench/run.py --workload edit-session --seed 1 --seconds 2 \\
        --trace 1 > layers-edit-session.txt

then `python3 scripts/counter_gate.py`. It reads the last (JSON) line of each
capture and exits 1 when

* an exact work counter of a workload exceeds its checked-in seed-1 value
  (a change that is not meant to alter solver work reproduces these exactly;
  one that lowers them updates BASELINE), or
* the traced edit-session update spends more than MAX_DIGEST_SHARE of its
  end-to-end time in `core.digest_ms`. Both numbers come from one run, so
  the ratio does not depend on machine speed.
"""

import json
import sys

BASELINE = {
    "fig6-batch": {"core.events": 8_986_495, "core.facts": 8_036_139},
    "edit-session": {
        "core.events": 409_908,
        "core.facts": 1_028_445,
        # Retractive updates re-solve; nothing is over-deleted any more.
        "core.overdeleted": 0,
    },
    "query-cold": {
        "core.events": 9_691,
        "core.facts": 8_033,
        "demand.slice_derivations": 11_891,
    },
}
MAX_DIGEST_SHARE = 0.2


def metrics(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-1])["metrics"]


def main():
    failed = False
    for workload, limits in BASELINE.items():
        m = metrics(f"counters-{workload}.txt")
        for name, limit in limits.items():
            value = m[name]["value"]
            ok = value <= limit
            failed |= not ok
            print(f"{workload} {name} {value:.0f} (max {limit}){'' if ok else '  FAIL'}")
    m = metrics("layers-edit-session.txt")
    digest, update = m["core.digest_ms"]["value"], m["e2e.traced_ms"]["value"]
    share = digest / update
    ok = share <= MAX_DIGEST_SHARE
    failed |= not ok
    print(
        f"edit-session core.digest_ms {digest:.1f} of e2e.traced_ms {update:.1f} "
        f"= {share:.2f} (max {MAX_DIGEST_SHARE}){'' if ok else '  FAIL'}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
