"""Ablation: GeAr error-probability models vs ground truth.

Compares, over every valid N=11 configuration plus selected wider ones:

* the paper's inclusion-exclusion model (Sec. 4.2),
* the exact rate of the block-adder error engine's ``(carry, run)``
  walk (column ``exact_DP``),
* exhaustive enumeration (N <= 11) or Monte-Carlo (wider),

The headline finding: the paper's event family is complete, so its
inclusion-exclusion model is *exact* (gap 0 against both the walk and
enumeration) -- the models differ only in cost, where the walk is
polynomial and the expansion is exponential in the event count.
"""

from __future__ import annotations

from repro.adders.gear import GeArConfig
from repro.adders.gear_error import (
    exhaustive_error_rate,
    monte_carlo_error_rate,
    paper_error_probability,
)
from repro.characterization.report import format_records
from repro.errors.analytic import analytic_error_rate

from _util import emit


def sweep_models():
    rows = []
    for config in GeArConfig.all_valid(11):
        n_events = config.r * (config.k - 1)
        paper = (
            paper_error_probability(config) if n_events <= 18 else None
        )
        exact = analytic_error_rate(config)
        truth = exhaustive_error_rate(config)
        rows.append(
            {
                "config": config.name,
                "paper_IE": round(paper, 6) if paper is not None else "n/a",
                "exact_DP": round(exact, 6),
                "ground_truth": round(truth, 6),
                "IE_gap": round(exact - paper, 6) if paper is not None else "n/a",
            }
        )
    for n, r, p in ((16, 4, 4), (16, 2, 2), (32, 4, 4)):
        config = GeArConfig(n, r, p)
        n_events = config.r * (config.k - 1)
        # For wide configs, truncate the inclusion-exclusion at an even
        # order (Bonferroni lower bound) to keep it tractable.
        order = None if n_events <= 18 else 4
        paper = paper_error_probability(config, max_order=order)
        exact = analytic_error_rate(config)
        rows.append(
            {
                "config": config.name,
                "paper_IE": round(paper, 6),
                "exact_DP": round(exact, 6),
                "ground_truth": round(
                    monte_carlo_error_rate(config, n_samples=300_000), 6
                ),
                "IE_gap": round(exact - paper, 6),
            }
        )
    return rows


def test_error_model_ablation(benchmark):
    rows = benchmark.pedantic(sweep_models, rounds=1, iterations=1)
    emit(
        "error_model_ablation",
        format_records(
            rows, title="GeAr error models: paper IE vs exact DP vs truth"
        ),
        data={"rows": rows},
    )
    for row in rows:
        # The walk is exact: it matches enumeration to double precision
        # (and Monte Carlo to sampling noise).
        if "N=11" in row["config"]:
            assert abs(row["exact_DP"] - row["ground_truth"]) < 1e-9, row
        else:
            assert abs(row["exact_DP"] - row["ground_truth"]) < 0.01, row
        # The paper's model never overestimates and stays close.
        if row["paper_IE"] != "n/a":
            assert row["IE_gap"] >= -1e-9, row
            assert row["IE_gap"] < 0.02, row
