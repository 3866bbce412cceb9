"""Statistical cross-validation of the GeAr error models.

The paper derives a closed-form error probability (Sec. 4.2,
inclusion-exclusion over carry-miss events) and validates it by
simulation (Table IV).  This module turns that validation into a
conformance check with *declared tolerances*:

* ``paper`` (:func:`~repro.adders.gear_error.paper_error_probability`)
  vs ``exact`` (the block-adder error engine's ``(carry, run)`` walk,
  :func:`~repro.errors.analytic.analytic_error_rate`) -- both are
  analytically exact, so they must agree to double-precision rounding
  (``1e-9``);
* ``exhaustive`` enumeration of all ``4**N`` operand pairs vs ``exact``
  -- ground truth vs model, tolerance ``1e-12``;
* ``monte_carlo`` vs ``exact`` -- a binomial estimate, tolerated within
  ``z * sigma`` of the true rate (``z = 6``: a one-in-a-billion false
  alarm even across the full Table IV sweep);
* the full error :class:`~repro.errors.pmf.ErrorPMF` from exhaustive
  enumeration -- its ``error_rate`` must reproduce the exhaustive rate,
  its support must be non-positive (GeAr only ever *misses* carries),
  and the PMF empirically observed by the Monte Carlo stream must sit
  within a total-variation ball of the exhaustive PMF;
* the full PMF of the convolution engine
  (:func:`~repro.errors.analytic.analytic_error_pmf`) vs all of the
  above -- a second, independent computation: its ``error_rate`` must
  match the walk to ``1e-9`` and the whole PMF must match exhaustive
  enumeration in total variation.

:func:`hetero_statistics_checks` runs the same cross-validation for
heterogeneous block adders, where the analytic PMF is the model under
test (the paper's model covers homogeneous GeAr only): analytic vs
exhaustive enumeration, analytic vs Monte Carlo within ``z * sigma``,
and the support-sign invariant for configurations that provably never
overestimate.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from ..adders.gear import GeArAdder, GeArConfig
from ..adders.gear_error import (
    exhaustive_error_rate,
    monte_carlo_error_rate,
    paper_error_probability,
)
from ..campaign import derive_seed
from ..errors.analytic import (
    analytic_error_pmf,
    analytic_error_rate,
    exhaustive_error_pmf,
)
from ..errors.pmf import ErrorPMF
from .report import Budget, CheckResult, resolve_budget

__all__ = [
    "GEAR_TOLERANCES",
    "gear_statistics_checks",
    "hetero_statistics_checks",
    "verify_gear_statistics",
]

#: Declared agreement tolerances of the model cross-validation.
GEAR_TOLERANCES = {
    # Two exact analyses of the same process: float rounding only.
    "paper_vs_exact": 1e-9,
    # Enumeration vs the walk: both exact rationals in floats.
    "exhaustive_vs_exact": 1e-12,
    # Monte Carlo z-score bound (plus a 2/n floor for tiny rates).
    "mc_sigma_z": 6.0,
    # Empirical (MC) PMF vs exhaustive PMF, total variation distance.
    "pmf_tv": 0.05,
    # Full analytic PMF's rate vs the walk: float rounding only.
    "analytic_vs_exact": 1e-9,
    # Analytic PMF vs exhaustive PMF: both exact rationals in floats.
    "analytic_pmf_tv": 1e-9,
    # The paper's inclusion-exclusion expands 2**events terms; beyond
    # this the model is evaluated truncated elsewhere, so skip it here.
    "max_paper_events": 20,
}


def _check(
    config: GeArConfig, name: str, passed: bool, n_inputs: int,
    exhaustive: bool, detail: str, component: Optional[str]
) -> CheckResult:
    return CheckResult(
        component=component or f"gear/N{config.n}R{config.r}P{config.p}",
        check=f"stat:{name}",
        passed=passed,
        n_inputs=n_inputs,
        exhaustive=exhaustive,
        detail=detail,
    )


def _gear_error_pairs(config: GeArConfig) -> tuple:
    """(approx, exact) sums over all ``4**N`` operand pairs."""
    adder = GeArAdder(config)
    mask = (1 << config.n) - 1
    index = np.arange(1 << (2 * config.n), dtype=np.int64)
    a = index & mask
    b = index >> config.n
    return adder.add(a, b), a + b


def gear_statistics_checks(
    config: GeArConfig,
    budget: str | Budget = "fast",
    seed: int = 0,
    component: Optional[str] = None,
) -> List[CheckResult]:
    """Cross-validate every available error model of one configuration.

    Args:
        config: GeAr architecture under check.
        budget: Verification budget (names or instance); controls the
            Monte Carlo sample count and whether the ``4**N`` pair space
            is enumerated.
        seed: Base seed; the Monte Carlo stream seed derives from it.
        component: Registry name to stamp on the results.

    Returns:
        One :class:`CheckResult` per model pair that the budget allows.
    """
    budget = resolve_budget(budget)
    checks: List[CheckResult] = []
    exact = analytic_error_rate(config)

    analytic_pmf = analytic_error_pmf(config)
    analytic = analytic_pmf.error_rate
    tol = GEAR_TOLERANCES["analytic_vs_exact"]
    diff = abs(analytic - exact)
    checks.append(_check(
        config, "analytic_vs_exact", diff <= tol, 0, True,
        f"|{analytic:.12g} - {exact:.12g}| = {diff:.3g} (tol {tol:g})",
        component,
    ))

    n_events = config.r * (config.k - 1)
    if n_events <= GEAR_TOLERANCES["max_paper_events"]:
        paper = paper_error_probability(config)
        tol = GEAR_TOLERANCES["paper_vs_exact"]
        diff = abs(paper - exact)
        checks.append(_check(
            config, "paper_vs_exact", diff <= tol, 0, True,
            f"|{paper:.12g} - {exact:.12g}| = {diff:.3g} (tol {tol:g})",
            component,
        ))

    mc_samples = budget.mc_samples
    mc = monte_carlo_error_rate(
        config, n_samples=mc_samples,
        seed=derive_seed(seed, "verify_mc", config.n, config.r, config.p),
    )
    sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / mc_samples)
    mc_tol = GEAR_TOLERANCES["mc_sigma_z"] * sigma + 2.0 / mc_samples
    mc_diff = abs(mc - exact)
    checks.append(_check(
        config, "monte_carlo_vs_exact", mc_diff <= mc_tol,
        mc_samples, False,
        f"|{mc:.6g} - {exact:.6g}| = {mc_diff:.3g} (tol {mc_tol:.3g})",
        component,
    ))

    if 2 * config.n <= budget.gear_exhaustive_bits:
        n_pairs = 1 << (2 * config.n)
        rate = exhaustive_error_rate(config)
        tol = GEAR_TOLERANCES["exhaustive_vs_exact"]
        diff = abs(rate - exact)
        checks.append(_check(
            config, "exhaustive_vs_exact", diff <= tol, n_pairs, True,
            f"|{rate:.12g} - {exact:.12g}| = {diff:.3g} (tol {tol:g})",
            component,
        ))

        approx_sums, exact_sums = _gear_error_pairs(config)
        pmf = ErrorPMF.from_pairs(approx_sums, exact_sums)
        pmf_ok = abs(pmf.error_rate - rate) <= tol
        support_ok = max(pmf.support) <= 0
        checks.append(_check(
            config, "pmf_vs_exhaustive",
            pmf_ok and support_ok, n_pairs, True,
            f"PMF {pmf.summary()}; support max {max(pmf.support)}",
            component,
        ))

        # The convolution engine must reproduce the *whole* exhaustive
        # distribution, not just its rate.
        tv = analytic_pmf.total_variation(pmf)
        tv_tol = GEAR_TOLERANCES["analytic_pmf_tv"]
        checks.append(_check(
            config, "analytic_pmf_vs_exhaustive", tv <= tv_tol,
            n_pairs, True, f"TV = {tv:.4g} (tol {tv_tol:g})", component,
        ))

        # The sampled error distribution must look like the true one.
        rng = np.random.default_rng(
            derive_seed(seed, "verify_pmf_mc", config.n, config.r, config.p)
        )
        hi = 1 << config.n
        a = rng.integers(0, hi, size=mc_samples, dtype=np.int64)
        b = rng.integers(0, hi, size=mc_samples, dtype=np.int64)
        adder = GeArAdder(config)
        mc_pmf = ErrorPMF.from_pairs(adder.add(a, b), a + b)
        tv = pmf.total_variation(mc_pmf)
        tv_tol = GEAR_TOLERANCES["pmf_tv"]
        checks.append(_check(
            config, "pmf_tv_mc_vs_exhaustive", tv <= tv_tol,
            mc_samples, False,
            f"TV = {tv:.4g} (tol {tv_tol:g})", component,
        ))
    return checks


def hetero_statistics_checks(
    config,
    budget: str | Budget = "fast",
    seed: int = 0,
    component: Optional[str] = None,
) -> List[CheckResult]:
    """Cross-validate the analytic engine on one heterogeneous config.

    For :class:`~repro.adders.hetero.HeteroGeArConfig` there is no
    paper model to compare against, so the PMF-convolution engine is the
    model under test: it must agree with exhaustive enumeration (rate and full-PMF
    total variation) when the pair space fits the budget, sit within
    ``z * sigma`` of a Monte Carlo estimate always, and -- for
    configurations whose prediction depths are monotone
    (``never_overestimates``) -- produce a non-positive support.
    """
    from ..adders.hetero import HeteroGeArAdder

    budget = resolve_budget(budget)
    stamp = component or f"hetero/{config.name}"
    checks: List[CheckResult] = []
    pmf = analytic_error_pmf(config)
    rate = pmf.error_rate

    def _hcheck(name, passed, n_inputs, exhaustive, detail):
        checks.append(CheckResult(
            component=stamp, check=f"stat:{name}", passed=passed,
            n_inputs=n_inputs, exhaustive=exhaustive, detail=detail,
        ))

    if config.never_overestimates:
        worst = max(pmf.support)
        _hcheck(
            "analytic_support_sign", worst <= 0, 0, True,
            f"support max {worst} (monotone prediction depths)",
        )

    adder = HeteroGeArAdder(config)
    mc_samples = budget.mc_samples
    rng = np.random.default_rng(
        derive_seed(seed, "verify_hetero_mc", config.name)
    )
    hi = 1 << config.n
    a = rng.integers(0, hi, size=mc_samples, dtype=np.int64)
    b = rng.integers(0, hi, size=mc_samples, dtype=np.int64)
    mc = float(np.mean(adder.add(a, b) != a + b))
    sigma = math.sqrt(max(rate * (1.0 - rate), 0.0) / mc_samples)
    mc_tol = GEAR_TOLERANCES["mc_sigma_z"] * sigma + 2.0 / mc_samples
    mc_diff = abs(mc - rate)
    _hcheck(
        "monte_carlo_vs_analytic", mc_diff <= mc_tol, mc_samples, False,
        f"|{mc:.6g} - {rate:.6g}| = {mc_diff:.3g} (tol {mc_tol:.3g})",
    )

    if 2 * config.n <= budget.gear_exhaustive_bits:
        n_pairs = 1 << (2 * config.n)
        exh = exhaustive_error_pmf(config)
        tol = GEAR_TOLERANCES["exhaustive_vs_exact"]
        diff = abs(exh.error_rate - rate)
        _hcheck(
            "analytic_vs_exhaustive", diff <= tol, n_pairs, True,
            f"|{exh.error_rate:.12g} - {rate:.12g}| = {diff:.3g} "
            f"(tol {tol:g})",
        )
        tv = pmf.total_variation(exh)
        tv_tol = GEAR_TOLERANCES["analytic_pmf_tv"]
        _hcheck(
            "analytic_pmf_vs_exhaustive", tv <= tv_tol, n_pairs, True,
            f"TV = {tv:.4g} (tol {tv_tol:g})",
        )
    return checks


def verify_gear_statistics(
    configs: Optional[Iterable[GeArConfig]] = None,
    budget: str | Budget = "full",
    seed: int = 0,
) -> List[CheckResult]:
    """Model-agreement checks over a configuration sweep.

    With the defaults this is the acceptance gate for the paper's
    Table IV: every valid ``N = 11`` configuration is checked
    analytic-vs-exhaustive-vs-Monte-Carlo within the declared
    tolerances.
    """
    if configs is None:
        configs = GeArConfig.all_valid(11)
    checks: List[CheckResult] = []
    for config in configs:
        checks.extend(gear_statistics_checks(config, budget, seed))
    return checks
