#!/usr/bin/env python3
"""Per-pivot and per-factorization regression gates for the bench-smoke preset.

Reads the lp_solvers CSV produced by a filtered bench run (the q90 MC-PERF
point) and applies two gates:

- Per pivot: derives the Forrest-Tomlin microseconds-per-pivot figure from
  the ft-s / ft-it columns and compares it against the most recent committed
  baseline in bench_results/BENCH_lp.json (the `us_per_pivot` field of the
  latest entry's lp_solvers.mcperf_8x8x60_q90 record). Fails when the
  measured figure regresses by more than --max-regress (default 25%).
- Per factorization: the lu-ms column (median wall time of refactorizing
  the optimal q90 basis) must stay within the absolute --max-factorize-ms
  budget (default 25 ms, over 10x the ~2 ms an O(nnz log m) Markowitz
  search takes; the O(m^2) search it replaced took ~73 ms).

Exits non-zero when either gate fails.

Usage:
  check_bench_smoke.py <lp_solvers.csv> <BENCH_lp.json>
      [--max-regress 0.25] [--max-factorize-ms 25]
"""

import argparse
import csv
import json
import sys


def q90_row(csv_path: str) -> dict:
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise SystemExit(f"{csv_path}: no data rows (did the bench run?)")
    # A filtered run writes exactly the benchmarked point(s); take the last
    # row so an unfiltered run still gates on the final (q99) MC-PERF point
    # only if q90 is absent.
    for row in rows:
        if row.get("rows") == "3914":
            return row
    return rows[-1]


def measured_factorize_ms(csv_path: str, row: dict) -> float:
    value = row.get("lu-ms", "-")
    if value in ("", "-"):
        raise SystemExit(f"{csv_path}: no lu-ms value on the q90 row")
    return float(value)


def measured_us_per_pivot(csv_path: str, row: dict) -> float:
    ft_s = float(row["ft-s"])
    ft_it = float(row["ft-it"])
    if ft_it <= 0:
        raise SystemExit(f"{csv_path}: ft-it column is {ft_it}")
    return ft_s / ft_it * 1e6


def baseline_us_per_pivot(json_path: str) -> float:
    with open(json_path) as handle:
        entries = json.load(handle)
    for entry in reversed(entries):
        point = entry.get("lp_solvers", {}).get("mcperf_8x8x60_q90", {})
        if "us_per_pivot" in point:
            return float(point["us_per_pivot"])
    raise SystemExit(
        f"{json_path}: no entry with lp_solvers.mcperf_8x8x60_q90.us_per_pivot"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_path")
    parser.add_argument("json_path")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="allowed fractional per-pivot slowdown")
    parser.add_argument("--max-factorize-ms", type=float, default=25.0,
                        help="absolute budget for one q90 factorization")
    args = parser.parse_args()

    row = q90_row(args.csv_path)
    measured = measured_us_per_pivot(args.csv_path, row)
    baseline = baseline_us_per_pivot(args.json_path)
    limit = baseline * (1.0 + args.max_regress)
    pivot_ok = measured <= limit
    print(f"bench-smoke q90: measured {measured:.1f} us/pivot, "
          f"baseline {baseline:.1f}, limit {limit:.1f} -> "
          f"{'OK' if pivot_ok else 'REGRESSION'}")
    factorize = measured_factorize_ms(args.csv_path, row)
    factorize_ok = factorize <= args.max_factorize_ms
    print(f"bench-smoke q90: factorize {factorize:.2f} ms, "
          f"budget {args.max_factorize_ms:.1f} -> "
          f"{'OK' if factorize_ok else 'REGRESSION'}")
    return 0 if pivot_ok and factorize_ok else 1


if __name__ == "__main__":
    sys.exit(main())
