"""The program's process for the ``sweep`` workload.

Runs rounds of the five ``repro campaign`` sweeps the way
``repro campaign <name> --workers 2 --cache-dir DIR --seed S`` runs them
(same task builders, default engine), each round with a new seed so
nothing is a cache hit.  The ``run_campaign`` arguments are the CLI's
plus one: every task may take a second attempt (``MAX_ATTEMPTS``, as
``repro resilience --retries 1`` allows), because the default engine can
judge a worker that finished cleanly to have crashed.  Such crashes are
counted and reported with the run.

Set-up -- building every round's task lists and creating the cache
directory -- is timed ``--setups`` times before the windows, each time
from the same process state: the previous task lists are dropped and
the garbage collector has run before the clock starts.  A window runs
whole rounds until ``--seconds`` have passed (and at least
``MIN_ROUNDS`` rounds, so the latency p99 has ten samples beyond it).
With ``--trace 1`` an untraced window is followed by a traced one of the
same length.
Every result is then checked against a direct
``repro.campaign.registry.execute_task`` call, outside the windows.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from repro.accelerators.sad import sad_family_tasks
from repro.adders.characterize import ripple_family_tasks
from repro.campaign import runner
from repro.campaign.registry import execute_task
from repro.campaign.task import CampaignTask
from repro.dse.explorer import gear_space_tasks
from repro.media.synthetic import standard_images
from repro.multipliers.characterize import fig6_multiplier_tasks

import layers
import workload
from spans import Tracer

IMPORTED_AT = time.monotonic()

#: Campaign order of one round, with the kind each campaign runs.
CAMPAIGNS = (("table4", "gear_dse_row"), ("fig6", "multiplier"),
             ("ripple", "ripple_adder"), ("sad", "sad_quality"),
             ("filter", "filter_ssim"))
N_WORKERS = 2
#: Attempts per task.  The default engine polls a worker's pipe before
#: checking whether the worker is alive, so a worker that sends its
#: result and exits between the two checks is judged crashed (exit code
#: 0) and, with a single attempt, its result is lost.  A second attempt
#: recomputes it; the crash stays visible in ``n_crashes`` and
#: ``n_retries``.
MAX_ATTEMPTS = 2
MIN_ROUNDS = 6
#: Rounds prepared in set-up; a window that exhausts them ends early.
MAX_ROUNDS = 24
FILTER_CELLS = ("ApxFA1", "ApxFA2", "ApxFA3", "ApxFA4", "ApxFA5")
LSBS = (2, 4, 6)


def round_tasks(seed: int) -> dict:
    """Task lists of one round, as the ``repro campaign`` defaults build them."""
    images = sorted(standard_images(size=64))
    return {
        "table4": gear_space_tasks(11, model="exact", n_samples=200_000,
                                   seed=seed),
        "fig6": fig6_multiplier_tasks(widths=(2, 4, 8, 16), n_samples=50_000,
                                      seed=seed),
        "ripple": ripple_family_tasks(8, approx_lsb_counts=LSBS,
                                      n_samples=100_000, seed=seed),
        "sad": sad_family_tasks(n_pixels=64, lsb_counts=LSBS, n_samples=3000,
                                seed=seed),
        "filter": [
            CampaignTask(kind="filter_ssim",
                         params={"image": image, "fa": cell,
                                 "approx_lsbs": lsbs, "size": 64},
                         seed=seed)
            for image in images for cell in FILTER_CELLS for lsbs in LSBS
        ],
    }


def set_up(args, index: int):
    start = time.perf_counter()
    cache_dir = os.path.join(args.run_dir, f"cache-{index}")
    os.makedirs(cache_dir)
    rounds = [round_tasks(args.seed * 1000 + r) for r in range(MAX_ROUNDS)]
    return rounds, cache_dir, time.perf_counter() - start


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_window(rounds, first: int, cache_dir: str, seconds: float) -> dict:
    """Whole rounds from ``rounds[first]`` on, for at least ``seconds``."""
    campaigns, latencies = [], []
    cpu0 = cpu_s()
    elapsed = 0.0
    index = first
    while index < len(rounds) and (elapsed < seconds or
                                   index - first < MIN_ROUNDS):
        for name, kind in CAMPAIGNS:
            tasks = rounds[index][name]
            done_at = []
            start = time.perf_counter()

            def progress(done: int, total: int) -> None:
                done_at.append((time.perf_counter(), done))

            result = runner.run_campaign(tasks, n_workers=N_WORKERS,
                                         cache_dir=cache_dir,
                                         progress=progress,
                                         max_attempts=MAX_ATTEMPTS)
            elapsed += time.perf_counter() - start
            previous = done_at[0][1] if done_at else 0
            for stamp, done in done_at[1:]:
                latencies += [stamp - start] * (done - previous)
                previous = done
            stats = result.stats
            campaigns.append({
                "round": index, "name": name, "kind": kind,
                "tasks": tasks, "results": result.results,
                "quarantined": {failure.key: failure.attempts[-1].message
                                for failure in result.failures},
                "stats": {field: getattr(stats, field) for field in (
                    "n_tasks", "n_executed", "n_cache_hits", "n_workers",
                    "n_retries", "n_crashes", "n_quarantined", "wall_s",
                    "task_s")},
            })
        index += 1
    return {"campaigns": campaigns, "latencies": latencies,
            "elapsed_s": elapsed, "cpu_s": cpu_s() - cpu0,
            "rounds": index - first, "next_round": index,
            "peak_rss_mb": workload.peak_rss_mb()}


def verify(window: dict) -> list:
    """Failed tasks of a window: missing results or direct-call mismatches."""
    return [
        {"kind": task.kind, "key": task.key,
         "reason": campaign["quarantined"].get(task.key, "no result")
         if result is None else "mismatch"}
        for campaign in window["campaigns"]
        for task, result in zip(campaign["tasks"], campaign["results"])
        if result is None or workload.canonical(result)
        != workload.canonical(execute_task(task))
    ]


def summarize(window: dict, failures: list) -> dict:
    tasks = sum(c["stats"]["n_tasks"] for c in window["campaigns"])
    failed = len(failures)
    return {
        "attempted": tasks,
        "succeeded": tasks - failed,
        "failed": failed,
        "failures": failures[:5],
        "runner": {field: sum(c["stats"][field] for c in window["campaigns"])
                   for field in ("n_retries", "n_crashes", "n_quarantined")},
        "throughput_ops_s": (tasks - failed) / window["elapsed_s"],
        "latency": workload.latency_summary(window["latencies"]),
        "elapsed_s": window["elapsed_s"],
        "rounds": window["rounds"],
        "peak_rss_mb": window["peak_rss_mb"],
    }


def main(args) -> dict:
    samples = []
    for index in range(args.setups):
        rounds = None
        gc.collect()
        rounds, cache_dir, elapsed = set_up(args, index)
        samples.append(elapsed)
    report = {"imported_at": IMPORTED_AT, "setup_s": samples}
    plain = run_window(rounds, 0, cache_dir, args.seconds)
    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.SWEEP_TARGETS)
        tracer.recording = True
        traced = run_window(rounds, plain["next_round"], cache_dir,
                            args.seconds)
        tracer.recording = False
        tracer.uninstall()
        report["absent"] = dict(tracer.absent)
        report["spans"] = tracer.spans
    report["plain"] = summarize(plain, verify(plain))
    if traced is not None:
        report["traced"] = summarize(traced, verify(traced))
        report["traced"]["metrics"] = layers.sweep_metrics(
            traced["campaigns"], tracer.spans, traced["cpu_s"])
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setups", type=int, required=True)
    out = main(parser.parse_args())
    sys.stdout.write(json.dumps(out) + "\n")
