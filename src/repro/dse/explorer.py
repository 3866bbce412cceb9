"""Design-space sweeps (paper Table IV, Fig. 4, Fig. 6).

:func:`explore_gear_space` enumerates every valid ``(R, P)`` of an
N-bit GeAr adder, evaluates the chosen accuracy model (the exact rate
of the block-adder error engine's walk, the paper's inclusion-exclusion
model, or Monte Carlo) and the FPGA LUT area proxy, and returns records
suitable for :mod:`repro.dse.pareto` and :mod:`repro.dse.selection` --
the Table IV / Fig. 4 data.  :func:`explore_multiplier_space` does the
same for the recursive multiplier family of Fig. 6.  Heterogeneous
layouts are swept by :mod:`repro.dse.hetero`.

Both sweeps submit through the campaign engine
(:mod:`repro.campaign`): one task per configuration, with a
deterministic per-task seed derived from the sweep seed and the
configuration identity.  That makes Monte Carlo rows **reproducible**
(two sweeps with the same ``seed``/``n_samples`` agree bit for bit,
regardless of ``n_workers``) and makes large sweeps cacheable and
resumable via ``cache_dir``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..adders.gear import GeArConfig
from ..campaign import CampaignResult, CampaignTask, derive_seed, run_campaign
from ..multipliers.characterize import fig6_multiplier_family

__all__ = [
    "explore_gear_space",
    "explore_gear_space_campaign",
    "explore_multiplier_space",
    "gear_space_tasks",
]

_MODELS = ("exact", "paper", "monte_carlo")


def gear_space_tasks(
    n: int = 11,
    model: str = "exact",
    include_delay: bool = True,
    n_samples: int = 200_000,
    seed: int = 0,
) -> List[CampaignTask]:
    """One ``gear_dse_row`` campaign task per valid (R, P) configuration.

    Each task's seed is derived from ``(seed, n, r, p, model)``, so a
    row's Monte Carlo stream is pinned by what the row *is* -- not by
    enumeration order or worker count.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; known: {_MODELS}")
    tasks = []
    for config in GeArConfig.all_valid(n):
        params = {
            "n": config.n,
            "r": config.r,
            "p": config.p,
            "model": model,
            "include_delay": include_delay,
        }
        if model == "monte_carlo":
            params["n_samples"] = n_samples
        tasks.append(
            CampaignTask(
                kind="gear_dse_row",
                params=params,
                seed=derive_seed(seed, "gear_dse_row", config.n, config.r,
                                 config.p, model),
            )
        )
    return tasks


def explore_gear_space_campaign(
    n: int = 11,
    model: str = "exact",
    include_delay: bool = True,
    n_samples: int = 200_000,
    seed: int = 0,
    n_workers: int = 1,
    cache_dir: str | None = None,
    progress=None,
) -> CampaignResult:
    """Run the GeAr design-space sweep as a campaign.

    Returns the raw :class:`~repro.campaign.CampaignResult` (records in
    ``.results``, run metrics in ``.stats``); records are sorted by
    ``(r, p)`` like :func:`explore_gear_space`.
    """
    tasks = gear_space_tasks(
        n, model=model, include_delay=include_delay,
        n_samples=n_samples, seed=seed,
    )
    result = run_campaign(
        tasks, n_workers=n_workers, cache_dir=cache_dir, progress=progress
    )
    order = sorted(
        range(len(result.results)),
        key=lambda i: (result.results[i]["r"], result.results[i]["p"]),
    )
    result.tasks = [result.tasks[i] for i in order]
    result.results = [result.results[i] for i in order]
    return result


def explore_gear_space(
    n: int = 11,
    model: str = "exact",
    include_delay: bool = True,
    n_samples: int = 200_000,
    seed: int = 0,
    n_workers: int = 1,
    cache_dir: str | None = None,
) -> List[Dict]:
    """Characterize every valid approximate GeAr configuration of width n.

    Args:
        n: Operand width (the paper sweeps N = 11).
        model: Accuracy model -- ``"exact"`` (the
            :func:`~repro.errors.analytic.analytic_error_rate` walk over
            generate/propagate strings), ``"paper"``
            (inclusion-exclusion) or ``"monte_carlo"``.
        include_delay: Also record the critical-path delay proxy.
        n_samples: Monte Carlo sample count per configuration
            (``model="monte_carlo"`` only).
        seed: Sweep seed; per-row seeds derive from it deterministically,
            so repeated sweeps reproduce Table IV bit for bit.
        n_workers: Worker processes for the campaign (1 = serial).
        cache_dir: Optional campaign result cache (warm start / resume).

    Returns:
        One record per configuration with keys ``r``, ``p``, ``k``,
        ``l``, ``accuracy_percent``, ``lut_count``, ``area_ge`` (and
        ``delay_ps``), sorted by (r, p).
    """
    return list(
        explore_gear_space_campaign(
            n, model=model, include_delay=include_delay,
            n_samples=n_samples, seed=seed,
            n_workers=n_workers, cache_dir=cache_dir,
        ).results
    )


def explore_multiplier_space(
    widths: Iterable[int] = (4, 8),
    n_samples: int = 30_000,
    n_workers: int = 1,
    cache_dir: str | None = None,
) -> List[Dict]:
    """Characterization records for the recursive-multiplier family."""
    return [
        rec.as_row()
        for rec in fig6_multiplier_family(
            widths, n_samples=n_samples,
            n_workers=n_workers, cache_dir=cache_dir,
        )
    ]
