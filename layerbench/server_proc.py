"""The served program's process for ``serve_cold`` and ``serve_hot``.

Deploys the service the way
``repro serve --state-dir DIR --workers 2 --tenant t0:1 --tenant t1:2
--tenant t2:4 --tenant t3:8`` does (brownout off, unlimited token
buckets, default backlogs), on loopback with an ephemeral port, with
fsync given its tmpfs cost (see :func:`emulate_tmpfs_fsync`).

Set-up is repeated ``--setups`` times and once more for the deployment
the timed windows run on, each on a fresh, empty state directory; every
repetition is timed from the first call into ``repro`` until the service
answers one probe job per worker (and, for ``serve_hot``, holds the
whole hot set in its store).  Every repetition starts from the same
process state: the previous deployment is torn down and dropped, and
the garbage collector has run, before the clock starts.

The benchmark then drives this process over stdin/stdout, one JSON
object per line: ``begin`` and ``end`` bracket a timed window
(optionally traced), ``quit`` shuts the service down.  Replies are
prefixed with ``@@`` so stray output can never be mistaken for one.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import sys
import time

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.http import serve, sockname
from repro.service.tenants import TenantConfig

import httpc
import layers
import workload
from spans import Tracer

IMPORTED_AT = time.monotonic()
HOST = "127.0.0.1"
N_WORKERS = 2


def reply(message: dict) -> None:
    sys.stdout.write("@@" + json.dumps(message) + "\n")
    sys.stdout.flush()


async def start_service(state_dir: str):
    app = ServiceApp(ServiceConfig(
        state_dir=state_dir,
        n_workers=N_WORKERS,
        tenants={name: TenantConfig(name=name, weight=weight)
                 for name, weight in workload.TENANTS},
    ))
    await app.start()
    server = await serve(app, host=HOST, port=0)
    return app, server


async def stop_service(app, server) -> None:
    server.close()
    await server.wait_closed()
    await app.stop()


async def set_up(args, index: int):
    """One timed set-up; returns the deployment, its duration and fills."""
    state_dir = os.path.join(args.run_dir, f"state-{index}")
    gc.collect()
    start = time.perf_counter()
    app, server = await start_service(state_dir)
    _, port = sockname(server)
    await asyncio.gather(*(
        httpc.run_job(HOST, port, workload.probe_payload(args.seed, i),
                      workload.tenant_of(i))
        for i in range(N_WORKERS)
    ))
    fills = []
    if args.workload == "serve_hot":
        payloads = workload.hot_payloads(args.seed)
        for first in range(0, len(payloads), N_WORKERS):
            fills += await asyncio.gather(*(
                httpc.run_job(HOST, port, payloads[rank],
                              workload.tenant_of(rank))
                for rank in range(first, min(first + N_WORKERS,
                                             len(payloads)))
            ))
    elapsed = time.perf_counter() - start
    return app, server, port, state_dir, elapsed, fills


def emulate_tmpfs_fsync() -> None:
    """Give ``os.fsync`` the cost it has on a memory-backed filesystem.

    The journal's state directory belongs on tmpfs, where fsync returns
    at once.  The benchmark may write only inside the tree it measures,
    which sits on a shared disk whose fsync latency drifts by 2x within
    seconds and stalls for milliseconds under other tenants' I/O.
    ``os.fstat`` is one cheap syscall that, like fsync, fails on a bad
    descriptor: the journal still syncs at the same points and counts
    every sync (``journal.fsyncs_per_op``), but no run waits on the disk.
    """
    os.fsync = os.fstat


async def heartbeat(lags: list) -> None:
    while True:
        due = time.perf_counter() + 0.001
        await asyncio.sleep(0.001)
        lags.append(time.perf_counter() - due)


async def command_loop(app, tracer: Tracer, args) -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    window: dict = {}
    while True:
        line = await reader.readline()
        if not line:
            return
        command = json.loads(line)
        if command["cmd"] == "begin":
            window = {"stats": app.stats(), "cpu": workload.tree_cpu_s(),
                      "lags": [], "trace": command["trace"]}
            if command["trace"]:
                tracer.spans.clear()
                tracer.install(layers.SERVE_TARGETS)
                tracer.recording = True
                window["beat"] = asyncio.create_task(heartbeat(window["lags"]))
            reply({"ok": True})
        elif command["cmd"] == "end":
            cpu = workload.tree_cpu_s() - window["cpu"]
            stats = app.stats()
            message = {"ok": True, "cpu_s": cpu,
                       "stats_before": window["stats"], "stats_after": stats,
                       "peak_rss_mb": workload.peak_rss_mb()}
            if window["trace"]:
                tracer.recording = False
                tracer.uninstall()
                window["beat"].cancel()
                await asyncio.gather(window["beat"], return_exceptions=True)
                spans_path = os.path.join(args.run_dir,
                                          f"spans-{command['label']}.jsonl")
                tracer.dump(spans_path)
                message.update(spans=spans_path, lags_s=window["lags"])
            reply(message)
        elif command["cmd"] == "quit":
            return


async def main(args) -> None:
    samples = []
    for index in range(args.setups):
        app, server, _, state_dir, elapsed, _ = await set_up(args, index)
        samples.append(elapsed)
        await stop_service(app, server)
        shutil.rmtree(state_dir, ignore_errors=True)
        del app, server
    app, server, port, _, elapsed, fills = await set_up(args, args.setups)
    samples.append(elapsed)
    reply({"ready": True, "port": port, "setup_s": samples,
           "imported_at": IMPORTED_AT, "fills": fills,
           "pid": os.getpid()})
    try:
        await command_loop(app, Tracer(), args)
    finally:
        await stop_service(app, server)
    reply({"stopped": True})


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=["serve_cold", "serve_hot"],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setups", type=int, required=True)
    emulate_tmpfs_fsync()
    asyncio.run(main(parser.parse_args()))
