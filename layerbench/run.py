"""layerbench: the repository's end-to-end and per-layer benchmark.

Usage, from the root of a source tree::

    python3 layerbench/run.py --workload {sweep,serve_cold,serve_hot} \\
        --seed N --seconds S --trace {0,1}

Builds its inputs from ``--seed``, runs the program from ``src/`` in
separate processes, checks every output against direct library calls,
and prints one JSON object as its last stdout line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` an untraced
window and a traced one (twice as long for ``serve_hot``) run back to
back and the metrics are the per-layer ones.  The line before it records
the run's context (host-speed probe, the share of CPU time the
hypervisor stole, nproc, mount types, seed, source identity, sample
counts, span table).

See ``layerbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "serve_cold", "serve_hot")
#: Timed set-ups of a sweep run, all before its window (the median is
#: reported).
SWEEP_SETUPS = 100
#: Wall-clock budget of one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170.0


def child_env(root: Path) -> Dict[str, str]:
    """Environment of the program's processes.

    The program runs from this tree's ``src/`` with its default engine:
    an inherited ``REPRO_CAMPAIGN_ISOLATION`` is dropped.  A fixed hash
    seed keeps dict and set orders identical from run to run.
    """
    env = dict(os.environ)
    env.pop("REPRO_CAMPAIGN_ISOLATION", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sweep(args, root: Path, run_dir: Path, env, log) -> Dict[str, Any]:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep_proc.py"), "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace), "--run-dir", str(run_dir), "--setups",
         str(SWEEP_SETUPS)],
        stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(root),
        timeout=RUN_TIMEOUT_S, check=True,
    )
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    report["import_s"] = report["imported_at"] - spawned
    report["correct"] = True
    return report


def end_to_end(report: Dict[str, Any]) -> Dict[str, Any]:
    from workload import median

    plain = report["plain"]
    metrics = {
        "setup_s": (median(report["setup_s"]), "s"),
        "throughput_ops_s": (plain["throughput_ops_s"], "ops/s"),
        "latency_p50_ms": (plain["latency"]["p50_ms"], "ms"),
        "latency_p99_ms": (plain["latency"]["p99_ms"], "ms"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if value is not None}


def per_layer(report: Dict[str, Any]) -> Dict[str, Any]:
    from layers import PER_LAYER

    values = dict(report["traced"]["metrics"])
    values["process.import_s"] = report["import_s"]
    untraced = report["plain"]["throughput_ops_s"]
    values["process.tracing_overhead_share"] = (
        1.0 - report["traced"]["throughput_ops_s"] / untraced
        if untraced else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def context(args, root: Path, run_dir: Path,
            report: Dict[str, Any]) -> Dict[str, Any]:
    import workload

    info: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_probe_s": report["host_probe_s"],
        "host_steal_share": report["host_steal_share"],
        **workload.cpu_count(),
        "state_and_cache_mount": report["mount"],
        **workload.source_identity(root),
        "setup_samples_s": report["setup_s"],
        "import_s": report["import_s"],
    }
    for label in ("plain", "traced"):
        if label in report:
            window = dict(report[label])
            window.pop("metrics", None)
            info[label] = window
    if args.trace:
        from spans import span_table

        info["absent_layers"] = report.get("absent", {})
        info["span_table"] = span_table(report.get("spans", []))
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("layerbench: run from the root of a source tree "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workload

    run_dir = root / ".layerbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    log_path = run_dir.parent / f"{run_dir.name}.log"
    env = child_env(root)
    probe = workload.host_probe_s()
    steal, started = workload.cpu_steal_s(), time.monotonic()
    try:
        with open(log_path, "wb") as log:
            if args.workload == "sweep":
                report = run_sweep(args, root, run_dir, env, log)
            else:
                import loadgen

                report = asyncio.run(asyncio.wait_for(
                    loadgen.run(args, root, run_dir, env, log),
                    timeout=RUN_TIMEOUT_S))
        report["host_probe_s"] = probe
        report["host_steal_share"] = (workload.cpu_steal_s() - steal) / (
            (time.monotonic() - started) * workload.cpu_count()["cpu_count"])
        report["mount"] = workload.mount_type(run_dir)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            asyncio.TimeoutError, ValueError, KeyError) as exc:
        print(f"layerbench: {args.workload} run failed: {exc!r}",
              file=sys.stderr)
        if log_path.exists():
            sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        log_path.unlink(missing_ok=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    windows = [report[label] for label in ("plain", "traced")
               if label in report]
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    runner = {field: sum(w.get("runner", {}).get(field, 0) for w in windows)
              for field in ("n_crashes", "n_retries", "n_quarantined")}
    if runner["n_crashes"]:
        print(f"layerbench: sweep workers judged crashed: {runner} "
              "(see MAX_ATTEMPTS in layerbench/sweep_proc.py)",
              file=sys.stderr)
    metrics = per_layer(report) if args.trace else end_to_end(report)
    print(json.dumps({"layerbench": context(args, root, run_dir, report)}))
    print(json.dumps({
        "correct": bool(report["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
