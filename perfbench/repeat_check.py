"""Check that two traced runs on one seed agree exactly on every count.

    python3 perfbench/repeat_check.py [--seed 1]

Runs `run.py --trace 1` twice per workload, one after the other, and
compares every metric with unit `count` plus
`multiplicity.fast_path_frac`.  Prints each difference and exits 1 if
there is any.  Timings are not compared: they are bounded by the
end-to-end spread instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT = {"multiplicity.fast_path_frac"}


def counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] == "count" or k in EXACT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    differ = 0
    for workload in WORKLOADS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        for key in first:
            if first[key] != second[key]:
                differ += 1
                print(f"{workload}: {key} {first[key]} != {second[key]}")
        print(f"{workload}: {len(first)} count metrics compared")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
