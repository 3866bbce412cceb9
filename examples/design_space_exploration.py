#!/usr/bin/env python3
"""Design-space exploration of GeAr adders (Table IV / Fig. 4).

Enumerates every valid (R, P) configuration of an N-bit GeAr adder,
evaluates the analytic error model (no simulation needed), extracts the
Pareto front, and answers the paper's two selection queries.  Also maps
published adders (ACA-I/ACA-II/ETAII/GDA) into the same space.

Run:  python3 examples/design_space_exploration.py [N]
"""

import sys

from repro.adders.variants import known_adder_configs
from repro.characterization.report import format_records
from repro.dse.explorer import explore_gear_space
from repro.dse.pareto import pareto_front
from repro.dse.selection import select_max_accuracy, select_min_area
from repro.errors.analytic import analytic_error_rate


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    print(f"== GeAr design space for N = {n} ==\n")
    records = explore_gear_space(n)
    for record in records:
        record["accuracy_percent"] = round(record["accuracy_percent"], 2)
    print(format_records(
        records,
        columns=["r", "p", "k", "l", "accuracy_percent", "lut_count",
                 "delay_ps"],
        title=f"All {len(records)} valid approximate configurations",
    ))

    front = pareto_front(
        records, [("lut_count", True), ("accuracy_percent", False)]
    )
    print("\nPareto front (LUTs vs accuracy):")
    for record in sorted(front, key=lambda r: r["lut_count"]):
        print(f"  R={record['r']:2d} P={record['p']:2d}: "
              f"{record['accuracy_percent']:6.2f}% @ "
              f"{record['lut_count']} LUTs")

    best = select_max_accuracy(records)
    print(f"\nMax-accuracy configuration: {best['name']} "
          f"({best['accuracy_percent']:.2f}%)")
    try:
        pick = select_min_area(records, 90.0)
        print(f"Min-area with >= 90% accuracy: {pick['name']} "
              f"({pick['lut_count']} LUTs, {pick['accuracy_percent']:.2f}%)")
    except ValueError as exc:
        print(f"No configuration reaches 90%: {exc}")

    if n >= 16 and n % 8 == 0:
        print("\n== Published adders as GeAr configurations ==")
        for name, config in known_adder_configs(n).items():
            p_err = analytic_error_rate(config)
            print(f"  {name:16s} -> {config.name:22s} "
                  f"accuracy {100 * (1 - p_err):6.2f}%")


if __name__ == "__main__":
    main()
