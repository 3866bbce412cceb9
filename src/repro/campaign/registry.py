"""Registry of campaign task kinds.

A task *kind* maps a name to a module-level function
``fn(params: dict, seed: int) -> JSON-serializable result``.  Keeping
the mapping name-based (rather than shipping callables) is what lets
the runner hand tasks to a ``multiprocessing`` pool and key the result
cache on nothing but the task's canonical JSON description.

Task functions must be **pure and deterministic**: the result may
depend only on ``params``, ``seed``, and the library code (whose
behavioural version is pinned by
:data:`repro.campaign.task.CODE_VERSION`).  All heavy ``repro``
imports happen inside the task bodies so this module stays cheap to
import from anywhere (including the worker processes of a freshly
forked pool).

Built-in kinds cover the paper's characterization workloads:

========================  ====================================================
kind                      workload
========================  ====================================================
``gear_dse_row``          one Table IV / Fig. 4 design-space record
``gear_mc_chunk``         one Monte Carlo shard of a GeAr error-rate estimate
``analytic``              one exact analytic error record (GeAr or HeteroGeAr)
``ripple_adder``          one ripple-adder characterization (Sec. 6 library)
``gear_adder``            one simulated GeAr characterization
``multiplier``            one Fig. 6 recursive/2x2 multiplier record
``sad_quality``           one SAD-accelerator quality/energy record
``filter_ssim``           one Fig. 10 low-pass-filter SSIM record
``verify_component``      one differential-verification conformance report
``resilience``            one transient-fault sweep point (any layer)
``chaos_*``               pathological workloads for runner hardening
                          (:mod:`repro.campaign.chaos`)
========================  ====================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .task import CampaignTask

__all__ = ["register", "get_task_function", "task_kinds", "execute_task"]

TaskFunction = Callable[[Dict[str, Any], int], Any]

_REGISTRY: Dict[str, TaskFunction] = {}


def register(kind: str) -> Callable[[TaskFunction], TaskFunction]:
    """Decorator registering ``fn`` as the implementation of ``kind``."""

    def decorator(fn: TaskFunction) -> TaskFunction:
        if kind in _REGISTRY:
            raise ValueError(f"task kind {kind!r} already registered")
        _REGISTRY[kind] = fn
        return fn

    return decorator


def get_task_function(kind: str) -> TaskFunction:
    """Implementation of ``kind``; raises ``KeyError`` when unknown."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown task kind {kind!r}; known: {known}") from None


def task_kinds() -> List[str]:
    """Registered kind names, sorted."""
    return sorted(_REGISTRY)


def execute_task(task: CampaignTask) -> Any:
    """Run one task in the current process and return its raw result."""
    return get_task_function(task.kind)(dict(task.params), task.seed)


# ----------------------------------------------------------------------
# built-in task kinds
# ----------------------------------------------------------------------


@register("gear_dse_row")
def _gear_dse_row(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One design-space record for a GeAr configuration (Table IV row)."""
    from ..adders.gear import GeArAdder, GeArConfig
    from ..adders.gear_error import (
        exact_error_probability,
        monte_carlo_error_rate,
        paper_error_probability,
    )

    config = GeArConfig(
        n=int(params["n"]), r=int(params["r"]), p=int(params["p"])
    )
    model = params.get("model", "exact")
    if model == "exact":
        p_err = exact_error_probability(config)
    elif model == "paper":
        p_err = paper_error_probability(config)
    elif model == "monte_carlo":
        p_err = monte_carlo_error_rate(
            config, n_samples=int(params.get("n_samples", 200_000)), seed=seed
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    adder = GeArAdder(config)
    record: Dict[str, Any] = {
        "name": config.name,
        "n": config.n,
        "r": config.r,
        "p": config.p,
        "k": config.k,
        "l": config.l,
        "accuracy_percent": 100.0 * (1.0 - p_err),
        "lut_count": adder.lut_count,
        "area_ge": adder.area_ge,
    }
    if params.get("include_delay", True):
        record["delay_ps"] = adder.delay_ps
    return record


@register("gear_mc_chunk")
def _gear_mc_chunk(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One Monte Carlo shard of a GeAr error-rate estimate."""
    from ..adders.gear import GeArConfig
    from ..adders.gear_error import monte_carlo_error_rate

    config = GeArConfig(
        n=int(params["n"]), r=int(params["r"]), p=int(params["p"])
    )
    n_samples = int(params["n_samples"])
    rate = monte_carlo_error_rate(config, n_samples=n_samples, seed=seed)
    return {"error_rate": rate, "n_samples": n_samples}


@register("analytic")
def _analytic(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One exact analytic error record for a block adder configuration.

    ``params`` names the configuration either homogeneously
    (``n``/``r``/``p``) or heterogeneously (``segments``: a list of
    ``[r, p]`` pairs or a ``"r:p,r:p,..."`` string).  The record is
    computed by the PMF-convolution engine
    (:func:`repro.errors.analytic_summary`) -- no sampling, so ``seed``
    is part of the cache key but never consumed.
    """
    from ..adders.hetero import HeteroGeArAdder, HeteroGeArConfig
    from ..errors.analytic import analytic_summary

    if "segments" in params:
        spec = params["segments"]
        if isinstance(spec, str):
            config = HeteroGeArConfig.from_string(spec)
        else:
            config = HeteroGeArConfig(tuple((int(r), int(p)) for r, p in spec))
    else:
        config = HeteroGeArConfig.from_gear_params(
            int(params["n"]), int(params["r"]), int(params["p"])
        )
    adder = HeteroGeArAdder(config)
    record: Dict[str, Any] = {
        "name": params.get("name", config.name),
        "n": config.n,
        "k": config.k,
        "segments": [list(seg) for seg in config.segments],
        "never_overestimates": config.never_overestimates,
        "lut_count": adder.lut_count,
        "area_ge": adder.area_ge,
        "delay_ps": adder.delay_ps,
    }
    record.update(analytic_summary(config))
    return record


@register("ripple_adder")
def _ripple_adder(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Characterize one approximate ripple adder."""
    from ..adders.characterize import characterize_adder
    from ..adders.ripple import ApproximateRippleAdder

    adder = ApproximateRippleAdder(
        int(params["width"]),
        approx_fa=params["fa"],
        num_approx_lsbs=int(params["num_approx_lsbs"]),
    )
    record = characterize_adder(
        adder, n_samples=int(params.get("n_samples", 100_000)), seed=seed
    )
    return record.to_record()


@register("gear_adder")
def _gear_adder(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Characterize one GeAr configuration by simulation."""
    from ..adders.characterize import characterize_adder
    from ..adders.gear import GeArAdder, GeArConfig

    config = GeArConfig(
        n=int(params["n"]), r=int(params["r"]), p=int(params["p"])
    )
    record = characterize_adder(
        GeArAdder(config),
        n_samples=int(params.get("n_samples", 100_000)),
        seed=seed,
    )
    return record.to_record()


@register("multiplier")
def _multiplier(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Characterize one multiplier of the Fig. 6 family.

    ``params["leaf_policy"] == "spec2x2"`` selects the 2x2 leaf
    specification path (``params["leaf_mul"]`` names the cell);
    anything else builds a :class:`RecursiveMultiplier`.
    """
    from ..errors.metrics import compute_error_metrics
    from ..logic.simulate import estimate_power
    from ..multipliers.characterize import (
        MultiplierCharacterization,
        _operand_sweep,
        characterize_multiplier,
    )
    from ..multipliers.mul2x2 import multiplier_2x2
    from ..multipliers.recursive import RecursiveMultiplier

    n_samples = int(params.get("n_samples", 50_000))
    if params.get("leaf_policy") == "spec2x2":
        spec = multiplier_2x2(params["leaf_mul"])
        a, b = _operand_sweep(2, n_samples, seed)
        metrics = compute_error_metrics(
            spec.multiply(a, b), a * b, max_output=9.0
        )
        record = MultiplierCharacterization(
            name=params.get("name", params["leaf_mul"]),
            width=2,
            area_ge=spec.area_ge,
            power_nw=estimate_power(spec.netlist()).total_nw,
            metrics=metrics,
        )
        return record.to_record()
    mul = RecursiveMultiplier(
        int(params["width"]),
        leaf_mul=params.get("leaf_mul", "ApxMulOur"),
        leaf_policy=params.get("leaf_policy", "none"),
        adder_fa=params.get("adder_fa", "AccuFA"),
        adder_approx_lsbs=int(params.get("adder_approx_lsbs", 0)),
    )
    record = characterize_multiplier(
        mul, name=params.get("name"), n_samples=n_samples, seed=seed
    )
    return record.to_record()


@register("sad_quality")
def _sad_quality(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Quality/energy record for one SAD accelerator variant.

    The stimulus is regenerated from ``seed`` inside the task, so every
    variant evaluated with the same seed sees identical blocks -- the
    sharded sweep reproduces the serial family sweep bit for bit.
    """
    import numpy as np

    from ..accelerators.sad import SADAccelerator

    n_pixels = int(params["n_pixels"])
    n_samples = int(params.get("n_samples", 3000))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, (n_samples, n_pixels))
    b = rng.integers(0, 256, (n_samples, n_pixels))
    truth = SADAccelerator(n_pixels).sad(a, b)
    fa = params.get("fa", "AccuFA")
    approx_lsbs = int(params.get("approx_lsbs", 0))
    accelerator = SADAccelerator(n_pixels, fa=fa, approx_lsbs=approx_lsbs)
    result = accelerator.sad(a, b)
    med = float(np.abs(result - truth).mean())
    mre = float(np.mean(np.abs(result - truth) / np.maximum(truth, 1)))
    return {
        "name": params.get("name", accelerator.name),
        "fa": fa,
        "approx_lsbs": approx_lsbs,
        "mean_error_distance": round(med, 2),
        "mean_relative_error": round(mre, 5),
        "energy_fj": round(accelerator.energy_per_op_fj, 0),
    }


@register("filter_ssim")
def _filter_ssim(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """SSIM of one approximate low-pass filter on one synthetic image.

    Reproduces a single point of the Fig. 10 data-dependent-resilience
    study: the named standard image is filtered by the exact 3x3
    binomial kernel and by the approximate adder-tree variant, and the
    two results are compared by SSIM.
    """
    from ..accelerators.filters import LowPassFilterAccelerator, gaussian3x3_exact
    from ..media.ssim import ssim
    from ..media.synthetic import standard_image

    image_name = params["image"]
    image = standard_image(
        image_name, size=int(params.get("size", 64)), seed=seed
    )
    accelerator = LowPassFilterAccelerator(
        fa=params.get("fa", "AccuFA"),
        approx_lsbs=int(params.get("approx_lsbs", 0)),
    )
    exact = gaussian3x3_exact(image)
    approx = accelerator.apply(image)
    return {
        "image": image_name,
        "fa": accelerator.fa,
        "approx_lsbs": accelerator.approx_lsbs,
        "ssim": ssim(exact, approx),
        "area_ge": accelerator.area_ge,
    }


@register("verify_component")
def _verify_component(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One component's differential-verification conformance report.

    The named budget is part of ``params`` (and hence of the cache key),
    so cached fast-budget reports are never served to a full-budget run.
    """
    from ..verify.conformance import verify_component

    report = verify_component(
        params["component"], budget=params["budget"], seed=seed
    )
    return report.to_record()


@register("resilience")
def _resilience(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fault-sweep point: a workload under a seeded transient plan.

    ``params["workload"]`` picks the layer and measurement (see
    :mod:`repro.resilience.sweep`); the fault plan derives from
    ``(seed, workload, rate)``, so the record is reproducible from the
    task alone -- like every other kind here.
    """
    from ..resilience.sweep import resilience_record

    return resilience_record(params, seed)


# Chaos kinds register themselves on import; keeping the import at the
# bottom (after ``register`` exists) resolves the intentional cycle.
from . import chaos  # noqa: E402,F401  (registration side effect)
