#!/usr/bin/env python3
"""Cross-validate the two complete deciders on an exhaustive family.

Enumerates every nonempty subset of the punctured radius-2 ball of F(2)
with at most three elements, runs the sign-assignment decider and the
truncated-order decider on each, and reports agreement and timing. Use
--max-size / --radius to grow the family (runtime climbs quickly).

The truncated-order decider indexes the l-ball once per rank and radius
and closes cones of integers semi-naively, re-closing each branch from
its one adjoined element; the sign search takes most of the time here.
"""

import argparse
import itertools
import sys
import time

from ellgroups.rightorder import LgValid, clay_smith, decide_valid_lg
from ellgroups.words import IDENTITY, ball


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--radius", type=int, default=2)
    parser.add_argument("--max-size", type=int, default=3)
    args = parser.parse_args()

    elems = sorted(w for w in ball(args.rank, args.radius) if w != IDENTITY)
    family = [
        frozenset(c)
        for r in range(1, args.max_size + 1)
        for c in itertools.combinations(elems, r)
    ]
    print(f"{len(family)} subsets of the {args.radius}-ball of F({args.rank})")

    start = time.monotonic()
    n_valid = mismatches = 0
    for i, subset in enumerate(family, start=1):
        valid = isinstance(decide_valid_lg(subset), LgValid)
        not_extendable = clay_smith(subset, args.rank) is None
        if valid != not_extendable:
            mismatches += 1
            print("MISMATCH:", sorted(map(str, subset)))
        n_valid += valid
        if i % 500 == 0:
            print(f"  ... {i} done ({time.monotonic() - start:.1f}s)")
    elapsed = time.monotonic() - start

    print(f"valid: {n_valid}, extendable: {len(family) - n_valid}")
    print(f"mismatches: {mismatches}")
    print(f"elapsed: {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
