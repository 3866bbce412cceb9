"""Seeded fault-rate sweeps, packaged as campaign tasks.

One *sweep point* evaluates a workload under a
:class:`~repro.resilience.plan.FaultPlan` at one fault rate and returns
a JSON record -- which makes a fault sweep exactly a characterization
campaign: :func:`fault_sweep_tasks` builds the task list, the hardened
:func:`repro.campaign.run_campaign` fans it out, caches it, and survives
the pathological tasks fault experiments love to produce.

Workloads span the three layers:

========== ============== ================================================
workload   layer          measurement
========== ============== ================================================
``cell``   logic          Table III full-adder netlist under per-net SEUs
``gear``   datapath       GeAr adder under operand/carry upsets
``sad``    architecture   SAD accelerator under accumulator upsets,
                          optionally behind a :class:`QosGuard`
``filter`` architecture   low-pass filter SSIM vs fault rate (Fig. 10
                          extension)
``dct``    architecture   8x8 DCT coefficient error under MAC upsets
========== ============== ================================================

The plan seed for a sweep point derives from ``(task seed, workload,
rate)``, so every point is reproducible in isolation and the whole sweep
is bit-identical for any worker count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..campaign.task import CampaignTask, derive_seed
from .plan import FaultPlan

__all__ = [
    "WORKLOAD_LAYERS",
    "resilience_record",
    "fault_sweep_tasks",
    "run_fault_sweep",
    "guarded_sad_record",
]

#: Layer each sweep workload injects at.
WORKLOAD_LAYERS: Dict[str, str] = {
    "cell": "logic",
    "gear": "datapath",
    "sad": "architecture",
    "filter": "architecture",
    "dct": "architecture",
}


def _plan_for(params: Dict[str, Any], seed: int) -> FaultPlan:
    workload = params["workload"]
    rate = float(params["rate"])
    sites = params.get("sites")
    return FaultPlan(
        seed=derive_seed(seed, "fault-sweep", workload, repr(rate)),
        rate=rate,
        layer=WORKLOAD_LAYERS[workload],
        sites=tuple(sites) if sites else None,
    )


# ----------------------------------------------------------------------
# per-workload sweep points
# ----------------------------------------------------------------------

def _cell_record(params: Dict[str, Any], plan: FaultPlan) -> Dict[str, Any]:
    from ..adders.fulladder import FULL_ADDERS
    from .logic import transient_fault_run

    cell = params.get("cell", "AccuFA")
    report = transient_fault_run(FULL_ADDERS[cell].netlist(), plan)
    record = report.to_record()
    record["cell"] = cell
    return record


def _gear_record(
    params: Dict[str, Any], plan: FaultPlan, seed: int
) -> Dict[str, Any]:
    from ..adders.gear import GeArAdder, GeArConfig
    from .datapath import gear_add_with_faults

    config = GeArConfig(
        n=int(params.get("n", 8)), r=int(params.get("r", 2)),
        p=int(params.get("p", 2)),
    )
    adder = GeArAdder(config)
    n_samples = int(params.get("n_samples", 5000))
    rng = np.random.default_rng(derive_seed(seed, "gear-stimulus"))
    a = rng.integers(0, 1 << config.n, n_samples)
    b = rng.integers(0, 1 << config.n, n_samples)
    exact = a + b
    faulty = gear_add_with_faults(adder, a, b, plan)
    corrected, iterations = adder.add_with_correction(a, b)
    errors = faulty != exact
    return {
        "name": config.name,
        "n_samples": n_samples,
        "error_rate": float(np.mean(errors)),
        "mean_error_distance": float(np.abs(faulty - exact).mean()),
        "correction_iterations_mean": float(iterations.mean()),
        "corrected_error_rate_fault_free": float(np.mean(corrected != exact)),
    }


def _sad_stimulus(params: Dict[str, Any], seed: int):
    n_pixels = int(params.get("n_pixels", 16))
    n_samples = int(params.get("n_samples", 512))
    rng = np.random.default_rng(derive_seed(seed, "sad-stimulus"))
    a = rng.integers(0, 256, (n_samples, n_pixels))
    b = rng.integers(0, 256, (n_samples, n_pixels))
    return n_pixels, a, b


def guarded_sad_record(
    params: Dict[str, Any], plan: FaultPlan, seed: int
) -> Dict[str, Any]:
    """One SAD sweep point, optionally behind a :class:`QosGuard`.

    With ``params["qos"]`` truthy, the faulty accelerator runs as stage 0
    of a guard whose golden rung is the exact SAD; the returned record
    carries the degradation log summary alongside the raw fault impact.
    """
    from ..accelerators.sad import SADAccelerator
    from .arch import FaultySADAccelerator
    from .qos import QosGuard

    n_pixels, a, b = _sad_stimulus(params, seed)
    fa = params.get("fa", "AccuFA")
    approx_lsbs = int(params.get("approx_lsbs", 0))
    base = SADAccelerator(n_pixels, fa=fa, approx_lsbs=approx_lsbs)
    golden = SADAccelerator(n_pixels)
    faulty = FaultySADAccelerator(base, plan)
    exact_out = golden.sad(a, b)
    faulty_out = faulty.sad(a, b)
    affected = faulty_out != exact_out
    record: Dict[str, Any] = {
        "workload": "sad",
        "n_pixels": n_pixels,
        "n_blocks": int(a.shape[0]),
        "fa": fa,
        "approx_lsbs": approx_lsbs,
        "n_fault_affected": int(np.count_nonzero(affected)),
        "block_error_rate": float(np.mean(affected)),
        "mean_error_distance": float(np.abs(faulty_out - exact_out).mean()),
        "qos": None,
    }
    if params.get("qos"):
        guard = QosGuard(
            golden_fn=golden.sad,
            stages=[("faulty_approx", faulty.sad)],
            check=params.get("qos_check", "full"),
            canary_fraction=float(params.get("canary_fraction", 0.1)),
            tolerance=float(params.get("tolerance", 0.0)),
            seed=derive_seed(seed, "canary"),
            name=f"sad-qos-r{plan.rate}",
        )
        guarded_out, log = guard.run(a, b)
        record["qos"] = log.to_record()
        record["qos"]["exact_match"] = bool(
            np.array_equal(guarded_out, exact_out)
        )
    return record


def _filter_record(
    params: Dict[str, Any], plan: FaultPlan, seed: int
) -> Dict[str, Any]:
    from ..accelerators.filters import (
        LowPassFilterAccelerator,
        gaussian3x3_exact,
    )
    from ..media.ssim import ssim
    from ..media.synthetic import standard_image
    from .arch import FaultyLowPassFilter

    image_name = params.get("image", "gradient")
    size = int(params.get("size", 64))
    image = standard_image(
        image_name, size=size, seed=derive_seed(seed, "image") % 2**31
    )
    accelerator = LowPassFilterAccelerator(
        fa=params.get("fa", "AccuFA"),
        approx_lsbs=int(params.get("approx_lsbs", 0)),
    )
    faulty = FaultyLowPassFilter(accelerator, plan)
    exact = gaussian3x3_exact(image)
    out = faulty.apply(image)
    return {
        "workload": "filter",
        "image": image_name,
        "fa": accelerator.fa,
        "approx_lsbs": accelerator.approx_lsbs,
        "ssim": ssim(exact, out),
        "pixel_error_rate": float(np.mean(out != exact)),
    }


def _dct_record(
    params: Dict[str, Any], plan: FaultPlan, seed: int
) -> Dict[str, Any]:
    from ..accelerators.dct import ApproximateDCT8x8
    from .arch import FaultyDCT8x8

    rng = np.random.default_rng(derive_seed(seed, "dct-stimulus"))
    n_blocks = int(params.get("n_blocks", 16))
    dct = ApproximateDCT8x8()
    faulty = FaultyDCT8x8(dct, plan)
    total_err = 0.0
    n_affected = 0
    for _ in range(n_blocks):
        block = rng.integers(0, 256, (8, 8))
        exact = dct.forward(block)
        out = faulty.forward(block)
        total_err += float(np.abs(out - exact).mean())
        n_affected += int(np.any(out != exact))
    return {
        "workload": "dct",
        "n_blocks": n_blocks,
        "mean_coeff_error": total_err / n_blocks,
        "block_error_rate": n_affected / n_blocks,
    }


def resilience_record(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fault-sweep point (the ``resilience`` campaign task body)."""
    workload = params.get("workload")
    if workload not in WORKLOAD_LAYERS:
        known = ", ".join(sorted(WORKLOAD_LAYERS))
        raise ValueError(f"unknown workload {workload!r}; known: {known}")
    plan = _plan_for(params, seed)
    if workload == "cell":
        record: Dict[str, Any] = _cell_record(params, plan)
    elif workload == "gear":
        record = _gear_record(params, plan, seed)
    elif workload == "sad":
        record = guarded_sad_record(params, plan, seed)
    elif workload == "filter":
        record = _filter_record(params, plan, seed)
    else:
        record = _dct_record(params, plan, seed)
    record["rate"] = float(params["rate"])
    record["layer"] = plan.layer
    record["plan"] = plan.as_dict()
    return record


# ----------------------------------------------------------------------
# sweep construction / execution
# ----------------------------------------------------------------------

def fault_sweep_tasks(
    workload: str,
    rates: Sequence[float],
    seed: int = 0,
    **params: Any,
) -> List[CampaignTask]:
    """One ``resilience`` task per fault rate (shared sweep seed)."""
    if workload not in WORKLOAD_LAYERS:
        known = ", ".join(sorted(WORKLOAD_LAYERS))
        raise ValueError(f"unknown workload {workload!r}; known: {known}")
    return [
        CampaignTask(
            kind="resilience",
            params={"workload": workload, "rate": float(rate), **params},
            seed=seed,
        )
        for rate in rates
    ]


def run_fault_sweep(
    workload: str,
    rates: Sequence[float],
    seed: int = 0,
    n_workers: int = 1,
    cache_dir: Optional[str] = None,
    timeout_s: Optional[float] = None,
    max_attempts: int = 1,
    progress: Optional[Any] = None,
    **params: Any,
):
    """Run a fault-rate sweep through the hardened campaign engine.

    Returns the full :class:`~repro.campaign.runner.CampaignResult`
    (records in rate order, stats, and any structured failures).
    """
    from ..campaign import run_campaign

    tasks = fault_sweep_tasks(workload, rates, seed=seed, **params)
    return run_campaign(
        tasks,
        n_workers=n_workers,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        max_attempts=max_attempts,
        progress=progress,
    )
