"""Reproduce the two fixture baselines the roadmap starts from.

    python3 perfbench/baselines.py

Times `orbit_spectrum` over every bundled fixture, once by the projection
route alone and once with the default cross-check (triangular identity
plus direct composition for q <= 6), and prints the median of five
repeats as one JSON line.  The library is called directly, without the
command line, as the roadmap's figures were.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from orbitdex.germfile import parse_germ
    from orbitdex.orbits import orbit_spectrum

    fixtures = sorted((ROOT / "src" / "orbitdex" / "fixtures").glob("*.germ"))
    docs = [parse_germ(p.read_text()) for p in fixtures]
    timings = {}
    for label, cross_check in (("projection_ms", False), ("crosscheck_s", True)):
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for doc in docs:
                orbit_spectrum(doc.matrix, doc.gmap, cross_check=cross_check)
            runs.append(time.perf_counter() - start)
        scale = 1000 if label.endswith("_ms") else 1
        timings[label] = {"median": statistics.median(runs) * scale,
                          "min": min(runs) * scale, "max": max(runs) * scale}
    print(json.dumps({"fixtures": len(docs), "repeats": REPEATS, **timings}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
