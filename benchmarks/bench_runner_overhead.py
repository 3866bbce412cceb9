"""Campaign dispatch overhead: warm persistent pool vs a fork per task.

The warm pool is the campaign runner's only isolated engine.  A pool
built with ``max_tasks_per_worker=1`` recycles its worker after every
task, so each task pays a fresh ``multiprocessing.Process`` fork -- the
cost every attempt paid before workers were kept warm.  For the small
tasks that dominate service traffic and fine-grained sweeps
(single-config analytic characterizations, ~0.2 ms of real work), that
fork is the bottleneck: process setup + pipe plumbing + teardown cost
an order of magnitude more than the task.

This benchmark runs the **same sweep** (small unique analytic tasks,
hardened with a per-task ``timeout_s``) through
:func:`repro.campaign.run_campaign` on two pools:

* ``recycle_1`` -- ``WarmPool(max_tasks_per_worker=1)``: a fresh
  worker process per task (baseline);
* ``unbounded`` -- the default pool, whose workers serve the whole
  sweep with micro-batched dispatch.

and cross-checks the two result lists for **bit-identity** before
reporting the speedup.  Gate: the unbounded pool must be >= 5x faster
on the small-task sweep (typical observed: ~15x on one core).  Each
timed run includes forking and closing its pool.

Emits ``results/BENCH_runner_overhead.json`` for the CI artifact and
threshold re-check.
"""

from __future__ import annotations

import time

from repro.campaign import CampaignTask, WarmPool, run_campaign

from _util import emit

N_TASKS = 64
N_WORKERS = 2
TIMEOUT_S = 30.0

GATE_MIN_SPEEDUP = 5.0


def _tasks():
    """Small unique hardened tasks: seeds differ so nothing dedupes."""
    return [
        CampaignTask("analytic", {"n": 8, "r": 2, "p": 2}, seed=41_000 + i)
        for i in range(N_TASKS)
    ]


def _run(max_tasks_per_worker):
    start = time.perf_counter()
    with WarmPool(
        n_workers=N_WORKERS, max_tasks_per_worker=max_tasks_per_worker
    ) as pool:
        result = run_campaign(
            _tasks(), n_workers=N_WORKERS, timeout_s=TIMEOUT_S,
            warm_pool=pool,
        )
    wall_s = time.perf_counter() - start
    assert result.ok, f"sweep quarantined: {result.failures}"
    return result, wall_s


def _row(pool: str, wall_s: float) -> dict:
    return {
        "pool": pool,
        "tasks": N_TASKS,
        "wall_s": round(wall_s, 4),
        "ms_per_task": round(1e3 * wall_s / N_TASKS, 3),
        "jobs_per_s": round(N_TASKS / wall_s, 1),
    }


def bench():
    # Warm-up once so neither run pays one-off import costs inside the
    # measured window.
    run_campaign(
        [CampaignTask("analytic", {"n": 8, "r": 2, "p": 2}, seed=1)],
        n_workers=1, timeout_s=TIMEOUT_S,
    )

    fresh_result, fresh_s = _run(max_tasks_per_worker=1)
    warm_result, warm_s = _run(max_tasks_per_worker=None)

    bit_identical = fresh_result.results == warm_result.results
    speedup = fresh_s / warm_s if warm_s > 0 else float("inf")
    rows = [
        _row("recycle_1", fresh_s),
        {**_row("unbounded", warm_s),
         "speedup": round(speedup, 2), "bit_identical": bit_identical},
    ]

    assert bit_identical, (
        "unbounded-pool results diverge from a fresh process per task"
    )
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"warm-pool speedup {speedup:.2f}x < gate {GATE_MIN_SPEEDUP}x "
        f"(recycle=1 {fresh_s:.3f}s vs unbounded {warm_s:.3f}s)"
    )
    return rows


def main() -> None:
    rows = bench()
    lines = [
        f"{row['pool']:<10}  "
        + "  ".join(f"{k}={v}" for k, v in row.items() if k != "pool")
        for row in rows
    ]
    emit(
        "runner_overhead",
        "\n".join(lines),
        data={"rows": rows},
        config={
            "n_tasks": N_TASKS,
            "n_workers": N_WORKERS,
            "timeout_s": TIMEOUT_S,
            "gate_min_speedup": GATE_MIN_SPEEDUP,
        },
    )


if __name__ == "__main__":
    main()
