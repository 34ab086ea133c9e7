#!/usr/bin/env python3
"""Cross-validate the two complete deciders on an exhaustive family.

Enumerates every nonempty subset of the punctured radius-2 ball of F(2)
with at most three elements, runs the sign-assignment decider and the
truncated-order decider on each, and reports agreement and timing. Use
--max-size / --radius to grow the family (runtime climbs quickly), and
--sample N --seed S to decide a seeded sample of N subsets of it
instead, for families too large to run whole:

    python scripts/cross_validate.py --radius 4 --sample 3000 --seed 1

The truncated-order decider lists the (l-1)-ball once per rank and
radius and closes cones of letter tuples semi-naively, re-closing each
branch from its one adjoined element. On subsets of the radius-3 ball
the two deciders take about the same time.
"""

import argparse
import itertools
import math
import random
import sys
import time

from ellgroups.rightorder import LgValid, clay_smith, decide_valid_lg
from ellgroups.words import IDENTITY, ball


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--radius", type=int, default=2)
    parser.add_argument("--max-size", type=int, default=3)
    parser.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="decide N subsets drawn without replacement, in canonical order",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    args = parser.parse_args()

    elems = sorted(w for w in ball(args.rank, args.radius) if w != IDENTITY)
    sizes = range(1, args.max_size + 1)
    total = sum(math.comb(len(elems), r) for r in sizes)
    # the family is enumerated lazily: a sample keeps only its own subsets
    family = (
        frozenset(c) for r in sizes for c in itertools.combinations(elems, r)
    )
    if args.sample is None:
        print(f"{total} subsets of the {args.radius}-ball of F({args.rank})")
    else:
        picked = set(random.Random(args.seed).sample(range(total), min(args.sample, total)))
        family = (S for i, S in enumerate(family) if i in picked)
        print(
            f"{len(picked)} of the {total} subsets of the {args.radius}-ball"
            f" of F({args.rank}), seed {args.seed}"
        )

    start = time.monotonic()
    n_valid = mismatches = decided = 0
    for decided, subset in enumerate(family, start=1):
        valid = isinstance(decide_valid_lg(subset), LgValid)
        not_extendable = clay_smith(subset, args.rank) is None
        if valid != not_extendable:
            mismatches += 1
            print("MISMATCH:", sorted(map(str, subset)))
        n_valid += valid
        if decided % 500 == 0:
            print(f"  ... {decided} done ({time.monotonic() - start:.1f}s)")
    elapsed = time.monotonic() - start

    print(f"valid: {n_valid}, extendable: {decided - n_valid}")
    print(f"mismatches: {mismatches}")
    print(f"elapsed: {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
