#!/usr/bin/env python3
"""Sweep least-n thresholds for the connectivity partition relations.

For each requested mode this scans target sizes m and reports the least
vertex count n at which every coloring (one representative per
color-permutation orbit) satisfies the relation, together with the
extremal coloring one step below.  hc rows sweep the connectivity
demand j = 1..m-2 and name it; at j >= m-1 an hc set is a clique, so
those cells are the classical rows.  A cell whose --time-limit runs out
prints "capped": true with a null threshold and the lower bound
"at_least" that the levels it searched prove, and the sweep goes on.

Examples:
    python3 scripts/run_thresholds.py --colors 2 --palette-size 1 --max-m 3 --max-n 6
    python3 scripts/run_thresholds.py --modes wc --colors 2 --palette-size 2 --max-m 4 --max-n 7
"""

import argparse
import json
import math
import sys
import time

from connramsey import ResourceCapExceeded, ramsey_number, write_coloring


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modes", nargs="+", default=["classical", "hc", "wc"],
                        choices=["classical", "hc", "wc"])
    parser.add_argument("--colors", type=int, default=2)
    parser.add_argument("--palette-size", type=int, default=1)
    parser.add_argument("--min-m", type=int, default=2)
    parser.add_argument("--max-m", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--show-extremal", action="store_true")
    args = parser.parse_args()
    # ramsey_number rejects these, and a swapped m range would run no
    # cell at all; say so before the first cell runs.
    if args.colors < 1:
        parser.error(f"--colors must be at least 1, got {args.colors}")
    if args.palette_size < 1:
        parser.error(f"--palette-size must be at least 1, got {args.palette_size}")
    if args.min_m < 2:
        parser.error(f"--min-m must be at least 2, got {args.min_m}")
    if args.min_m > args.max_m:
        parser.error(f"--min-m must be at most --max-m, got {args.min_m} > {args.max_m}")
    if args.max_n < args.max_m:
        parser.error(f"--max-n must be at least --max-m, got {args.max_n} < {args.max_m}")
    if args.time_limit is not None and math.isnan(args.time_limit):
        parser.error("--time-limit must be a number of seconds, got nan")

    rows = []
    for mode in args.modes:
        for m in range(args.min_m, args.max_m + 1):
            for j in range(1, m - 1) if mode == "hc" else [None]:
                start = time.perf_counter()
                try:
                    result = ramsey_number(
                        mode, m, args.colors, args.palette_size, args.max_n,
                        j=j, time_limit=args.time_limit,
                    )
                except ResourceCapExceeded as exc:
                    # A search that stepped into level k has found failing
                    # colorings below k, so the threshold is at least k.
                    result, at_least = None, max(exc.reached, m)
                elapsed = time.perf_counter() - start
                row = {
                    "mode": mode,
                    "m": m,
                    "colors": args.colors,
                    "palette_size": args.palette_size,
                    "threshold": None if result is None else result.threshold,
                    "seconds": round(elapsed, 2),
                }
                if j is not None:
                    row["j"] = j
                if result is None:
                    row["capped"] = True
                    row["at_least"] = at_least
                elif args.show_extremal:
                    row["extremal"] = write_coloring(result.extremal)
                rows.append(row)
                print(json.dumps(row, sort_keys=True))
    found = [r["threshold"] for r in rows if r["threshold"] is not None]
    print(f"# {len(found)}/{len(rows)} thresholds found within max_n={args.max_n}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
