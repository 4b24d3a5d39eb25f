"""Tabulate zero-divisor cup lengths and TC bounds for K_m.

For each m the table shows how many canonical exponent multisets the search
visits per product length, where the last nonzero product sits, and the
resulting motion-planning bounds.

Usage:
    python scripts/zcl_table.py --max-m 8
"""

import argparse
import sys
import time

from kleinforge import tensor_zcl as tz


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=8)
    args = ap.parse_args()

    print(f"{'m':>3} {'zcl':>4} {'TC lower':>9} {'TC upper':>9} {'checked':>9} {'secs':>7}")
    for m in range(2, args.max_m + 1):
        start = time.perf_counter()
        bounds = tz.tc_bounds(m)
        checked = sum(
            tz.count_canonical_multisets(m, length)
            for length in range(1, bounds.zcl + 2)
        )
        print(
            f"{m:>3} {bounds.zcl:>4} {bounds.lower:>9} {bounds.upper:>9} "
            f"{checked:>9} {time.perf_counter() - start:>7.2f}"
        )
    print("\nlower = zcl + 1; upper = 2m + 1; checked = multisets visited up to the vanishing length")
    return 0


if __name__ == "__main__":
    sys.exit(main())
