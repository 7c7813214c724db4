#!/usr/bin/env python3
"""Exhaustive club-system axiom checks over a grid of bounds.

Runs check_csystem_axioms for every exponent bound d and coefficient cap
up to the requested limits and prints one report line per cell, plus a
sample of the derived coloring on a sampled ordinal universe.

Example:
    python3 scripts/club_axioms_report.py --max-d 3 --max-coeff 4
"""

import argparse
import sys

from connramsey import check_csystem_axioms, coloring_from_csystem, sample_universe, write_coloring
from connramsey.ordinals import ord_print


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=3)
    parser.add_argument("--max-coeff", type=int, default=4)
    parser.add_argument("--sample-size", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    # The sample checks every bound before the first cell runs.
    try:
        universe = sample_universe(args.max_d, args.max_coeff, args.sample_size, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    failures = 0
    for d in range(1, args.max_d + 1):
        for coeff_max in range(1, args.max_coeff + 1):
            rep = check_csystem_axioms(d, coeff_max)
            status = "ok" if rep.ok else f"VIOLATION: {rep.first_violation}"
            print(
                f"d={d} coeff_max={coeff_max}: {status} "
                f"(limits={rep.limits_checked} clubs={rep.clubs_checked} pairs={rep.pairs_checked})"
            )
            failures += 0 if rep.ok else 1

    print(f"\nsampled universe (seed={args.seed}):", ", ".join(ord_print(x) for x in universe))
    print("derived coloring:")
    sys.stdout.write(write_coloring(coloring_from_csystem(universe)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
