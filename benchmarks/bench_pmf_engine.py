"""PMF-convolution engine vs enumeration: exact at simulation-free cost.

The analytic engine (:mod:`repro.errors.analytic`) derives the complete
error distribution of a block adder by a carry/run dynamic program --
polynomial in the operand width -- where exhaustive enumeration is
``4**N`` and Monte Carlo trades accuracy for samples.  This benchmark
pins both claims:

* **exactness** -- total variation 0 against enumeration at N=12, and
  at N=16 (where enumeration is intractable, Monte Carlo supplies a
  sanity reference) the ``(carry, run)`` walk's error rate agrees with
  the full PMF's;
* **cost** -- the N=12 speedup over enumeration is CI-gated at
  >= 100x (measured in the thousands; the gate is deliberately slack
  so shared CI runners never flake it).
"""

from __future__ import annotations

import time

from repro.adders.gear import GeArConfig
from repro.adders.gear_error import monte_carlo_error_rate
from repro.adders.hetero import HeteroGeArConfig
from repro.characterization.report import format_records
from repro.errors.analytic import (
    analytic_error_pmf,
    analytic_error_rate,
    exhaustive_error_pmf,
)

from _util import emit

#: Hard CI gate on the N=12 analytic-vs-exhaustive speedup.
MIN_SPEEDUP_N12 = 100.0

#: Monte Carlo samples for the N=16 reference row.
MC_SAMPLES = 300_000


def _timed(thunk):
    t0 = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - t0


def sweep_engines():
    rows = []
    for config in (
        GeArConfig(12, 4, 4),
        GeArConfig(12, 2, 2),
        HeteroGeArConfig(((6, 0), (3, 2), (3, 3))),
    ):
        pmf, t_analytic = _timed(lambda c=config: analytic_error_pmf(c))
        truth, t_truth = _timed(lambda c=config: exhaustive_error_pmf(c))
        rows.append(
            {
                "config": config.name,
                "reference": "exhaustive",
                "t_analytic_ms": round(t_analytic * 1e3, 3),
                "t_reference_ms": round(t_truth * 1e3, 1),
                "speedup": round(t_truth / t_analytic, 1),
                "gap": pmf.total_variation(truth),
            }
        )
    # N=16: enumeration is 4**16 operand pairs -- intractable, which is
    # the point.  The walk's rate still matches the full PMF's, and a
    # large Monte Carlo run brackets it within sampling noise.
    config = GeArConfig(16, 4, 4)
    rate, t_analytic = _timed(lambda: analytic_error_rate(config))
    mc, t_mc = _timed(
        lambda: monte_carlo_error_rate(config, n_samples=MC_SAMPLES, seed=0)
    )
    rows.append(
        {
            "config": config.name,
            "reference": f"monte_carlo({MC_SAMPLES})",
            "t_analytic_ms": round(t_analytic * 1e3, 3),
            "t_reference_ms": round(t_mc * 1e3, 1),
            "speedup": round(t_mc / t_analytic, 1),
            "gap": abs(rate - analytic_error_pmf(config).error_rate),
        }
    )
    return rows


def test_pmf_engine(benchmark):
    rows = benchmark.pedantic(sweep_engines, rounds=1, iterations=1)
    emit(
        "pmf_engine",
        format_records(
            rows, title="analytic PMF engine vs enumeration / Monte Carlo"
        ),
        data={"rows": rows},
        config={"min_speedup_n12": MIN_SPEEDUP_N12, "mc_samples": MC_SAMPLES},
    )
    for row in rows:
        if row["reference"] == "exhaustive":
            # Exact agreement: all probabilities are dyadic rationals,
            # representable without rounding at these widths.
            assert row["gap"] == 0.0, row
            assert row["speedup"] >= MIN_SPEEDUP_N12, row
        else:
            assert row["gap"] <= 1e-9, row
            assert row["speedup"] > 1.0, row
