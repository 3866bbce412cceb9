"""Partitioned-SIMD datapath vs the LUT fast paths, Fig. 6 / Fig. 8 kernels.

Times the two bulk kernels the partitioned evaluator was built for
under both engines (the packed kernels vs the default ``"auto"`` fast
paths), verifies the results are bit-identical, and records the
speedups under ``benchmarks/results/partsim_speedup.txt`` plus the
machine-readable ``BENCH_partsim_speedup.json`` that CI's threshold
check consumes.

The acceptance bar (ISSUE/PR 7) is 5x on both gated kernels:

* the Fig. 6 error-case count of a 16x16 recursive multiplier, where
  ``partsim`` replaces the recursion above the 8x8 level with quadrant
  sub-product gathers;
* the Fig. 8 full-search SAD surface, where :func:`sad_surface` keeps
  the whole (block, displacement) grid in the packed word domain.
"""

from __future__ import annotations

import time

import numpy as np

from repro.accelerators.sad import SADAccelerator
from repro.characterization.report import format_records
from repro.datapath.partsim import sad_surface, sad_surface_reference
from repro.multipliers.recursive import RecursiveMultiplier

from _util import emit

MUL_WIDTH = 16
MUL_SAMPLES = 200_000
FRAME = 256
BLOCK = 8
SEARCH = 4
GATE = 5.0


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _row(kernel, auto_s, partsim_s, identical):
    return {
        "kernel": kernel,
        "auto_ms": round(auto_s * 1e3, 2),
        "partsim_ms": round(partsim_s * 1e3, 3),
        "speedup": round(auto_s / partsim_s, 1),
        "bit_identical": identical,
    }


def _fig6_multiplier_kernel():
    """Fig. 6 error-case count for the 16x16 approximate recursive
    multiplier: every product against the exact reference over a bulk
    random operand sweep."""
    rng = np.random.default_rng(2016)
    a = rng.integers(0, 1 << MUL_WIDTH, MUL_SAMPLES)
    b = rng.integers(0, 1 << MUL_WIDTH, MUL_SAMPLES)
    auto = RecursiveMultiplier(MUL_WIDTH, leaf_mul="ApxMulOur")
    partsim = RecursiveMultiplier(
        MUL_WIDTH, leaf_mul="ApxMulOur", eval_mode="partsim"
    )
    # Warm up both engines outside the timers (LUT construction).
    auto.multiply(a[:64], b[:64])
    partsim.multiply(a[:64], b[:64])
    p_auto, auto_s = _timed(lambda: auto.multiply(a, b))
    p_part, partsim_s = _timed(lambda: partsim.multiply(a, b))
    identical = bool(np.array_equal(p_auto, p_part))
    errors = int((p_part != a * b).sum())
    row = _row("fig6_mul16x16_error_cases", auto_s, partsim_s, identical)
    row["error_cases"] = errors
    return row


def _fig8_sad_surface_kernel():
    """Fig. 8 full-search SAD surface on a 256x256 frame pair: the
    packed surface kernel vs the bulk batch-``sad`` formulation."""
    rng = np.random.default_rng(1998)
    cur = rng.integers(0, 256, (FRAME, FRAME))
    ref = np.clip(cur + rng.integers(-12, 13, cur.shape), 0, 255)
    accel = SADAccelerator(BLOCK * BLOCK)
    # Warm-up pass builds the absdiff LUTs and packing scratch.
    sad_surface(accel, cur[:32, :32], ref[:32, :32], BLOCK, search=2)
    sad_surface_reference(accel, cur[:32, :32], ref[:32, :32], BLOCK, search=2)
    s_part, partsim_s = _timed(
        lambda: sad_surface(accel, cur, ref, BLOCK, search=SEARCH)
    )
    s_auto, auto_s = _timed(
        lambda: sad_surface_reference(accel, cur, ref, BLOCK, search=SEARCH)
    )
    identical = bool(np.array_equal(s_auto, s_part))
    return _row("fig8_sad_surface_256", auto_s, partsim_s, identical)


def sweep_speedups():
    return [
        _fig6_multiplier_kernel(),
        _fig8_sad_surface_kernel(),
    ]


def test_partsim_speedup(benchmark):
    rows = benchmark.pedantic(sweep_speedups, rounds=1, iterations=1)
    emit(
        "partsim_speedup",
        format_records(
            rows,
            title="Partitioned-SIMD datapath vs LUT fast paths "
            "(Fig. 6 multiplier / Fig. 8 SAD surface kernels)",
        ),
        data={"rows": rows},
        config={
            "mul_width": MUL_WIDTH,
            "mul_samples": MUL_SAMPLES,
            "frame": FRAME,
            "block_size": BLOCK,
            "search": SEARCH,
            "gate": GATE,
        },
    )
    assert all(r["bit_identical"] for r in rows), rows
    # Both acceptance kernels are gated at 5x (ISSUE/PR 7).
    for row in rows:
        assert row["speedup"] >= GATE, rows
