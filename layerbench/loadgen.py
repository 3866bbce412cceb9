"""Client side of ``serve_cold`` and ``serve_hot``: load, timing, checks.

This module runs in the benchmark's own process, separate from the
server process (``server_proc.py``), with one connection per client
and no extra threads.  Both workloads are closed loops of
``N_CLIENTS`` clients:

* ``serve_cold``: POST a new job, read the 202, follow
  ``GET /v1/jobs/<id>/events`` on the same connection to the terminal
  event, reconnect.
* ``serve_hot``: keep-alive POSTs of hot-set jobs, every one a store
  hit, in a fixed Zipf rank order; reconnect when the server closes.

Before its first window, each workload fills the job table to its
retention cap with store hits, and ``serve_cold`` then serves
``COLD_WARMUP_JOBS`` cold jobs, so the window starts in steady state.

Every answer is checked after the window against direct library calls.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import httpc
import layers
import spans as spanlib
import workload

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
#: Closed-loop clients per workload.  With two, ``serve_cold`` leaves the
#: server's event loop idle between jobs, so its figures followed how
#: fast the hypervisor woke idle vCPUs (ten-run IQR 16% of the median
#: throughput, 23% of p99); four keep the loop busy.
N_CLIENTS = {"serve_cold": 4, "serve_hot": 2}
#: Timed set-ups before the one the windows run on (the median of all
#: of them is reported).
SETUPS = {"serve_cold": 80, "serve_hot": 6}
#: Store-hit requests before the first window, enough to fill the job
#: table to its 10k retention cap: hot-set requests for ``serve_hot``,
#: the probe job answered in set-up for ``serve_cold``.
TABLE_FILL_REQUESTS = 10_000
#: Cold jobs after the fill: 64 catalogue cycles.  A fresh deployment
#: serves cold jobs 10-20% slower for its first few thousand of them; by
#: the end of these the rate has levelled off, and the store's memory
#: tier (4096 entries) is full.
COLD_WARMUP_JOBS = 4096
#: A traced window runs this many times as long as the untraced one; in
#: ``serve_hot`` the longer window holds the journal's first compaction.
TRACED_WINDOW_FACTOR = {"serve_cold": 1, "serve_hot": 2}

_clock = time.perf_counter


class Server:
    """The server process and its stdin/stdout control channel."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc

    async def receive(self) -> Dict[str, Any]:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server process exited early")
            if line.startswith(b"@@"):
                return json.loads(line[2:])

    async def call(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        await self.proc.stdin.drain()
        return await self.receive()


class Load:
    """Shared state of the clients: the next operation index, and the
    store-hit requests (by rank) with the rank order they are sent in."""

    def __init__(self, workload_name: str, seed: int, port: int) -> None:
        self.workload = workload_name
        self.seed = seed
        self.port = port
        self.next_index = 0
        if workload_name == "serve_hot":
            self.hot = workload.hot_payloads(seed)
            self.schedule = workload.zipf_schedule(seed, len(self.hot))
        else:
            self.hot = [workload.probe_payload(seed, 0)]
            self.schedule = [0]
        self.requests = [
            [httpc.post_bytes(payload, name) for name, _ in workload.TENANTS]
            for payload in self.hot
        ]

    def take(self) -> int:
        index = self.next_index
        self.next_index += 1
        return index

    async def cold_client(self, stop, ops: list) -> None:
        while not stop():
            index = self.take()
            payload = workload.cold_payload(self.seed, index)
            op: Dict[str, Any] = {"index": index, "t0": _clock()}
            ops.append(op)
            writer = None
            try:
                reader, writer = await asyncio.open_connection(HOST, self.port)
                op["t_connect"] = _clock()
                writer.write(httpc.post_bytes(payload,
                                              workload.tenant_of(index)))
                status, _, body = await httpc.read_response(reader)
                op["t_post"] = _clock()
                op["status"] = status
                if status != 202:
                    op["error"] = f"POST answered {status}"
                    continue
                record = json.loads(body)
                op["record"] = record
                writer.write(httpc.get_bytes(
                    f"/v1/jobs/{record['job_id']}/events"))
                status, events = await httpc.read_events(reader)
                op["t_done"] = _clock()
                op["terminal"] = events[-1].get("event") if events else None
            except (OSError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ValueError, KeyError) as exc:
                op["error"] = repr(exc)
            finally:
                await httpc.close(writer)

    async def hit_client(self, stop, ops: Optional[list]) -> None:
        reader = writer = None
        try:
            while not stop():
                index = self.take()
                rank = self.schedule[index % len(self.schedule)]
                start = _clock()
                connect = 0.0
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            HOST, self.port)
                        connect = _clock() - start
                    writer.write(self.requests[rank][index % len(
                        workload.TENANTS)])
                    status, headers, body = await httpc.read_response(reader)
                except (OSError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ValueError) as exc:
                    if ops is not None:
                        ops.append((index, rank, start, connect, None,
                                    None, repr(exc).encode()))
                    await httpc.close(writer)
                    reader = writer = None
                    continue
                if ops is not None:
                    ops.append((index, rank, start, connect, _clock(),
                                status, body))
                if headers.get("connection", "").lower() == "close":
                    await httpc.close(writer)
                    reader = writer = None
        finally:
            await httpc.close(writer)

    async def run(self, client, stop, ops: Optional[list]) -> None:
        await asyncio.gather(*(client(stop, ops)
                               for _ in range(N_CLIENTS[self.workload])))

    async def warm_up(self) -> None:
        limit = self.next_index + TABLE_FILL_REQUESTS
        await self.run(self.hit_client, lambda: self.next_index >= limit,
                       None)
        if self.workload == "serve_cold":
            self.next_index = 0  # cold jobs come in whole catalogue cycles
            await self.run(self.cold_client,
                           lambda: self.next_index >= COLD_WARMUP_JOBS, [])

    async def window(self, server: Server, seconds: float, trace: bool,
                     label: str) -> Dict[str, Any]:
        client = self.hit_client if self.workload == "serve_hot" \
            else self.cold_client
        await server.call({"cmd": "begin", "trace": trace})
        ops: List[Any] = []
        start = _clock()
        deadline = start + seconds
        await self.run(client, lambda: _clock() >= deadline, ops)
        end = await server.call({"cmd": "end", "label": label})
        return {"ops": ops, "start": start, "deadline": deadline,
                "seconds": seconds, "server": end}


# ----------------------------------------------------------------------
# checks (outside the timed windows)
# ----------------------------------------------------------------------

class Oracle:
    """Direct library calls that every served answer must match."""

    def __init__(self) -> None:
        from repro.campaign.registry import execute_task
        from repro.campaign.task import CampaignTask
        from repro.service.admission import negotiate
        from repro.service.schemas import validate_job_request

        self._execute = execute_task
        self._task = CampaignTask
        self._negotiate = negotiate
        self._validate = validate_job_request
        self.kernel_s: Dict[str, float] = {}

    def admit(self, payload: Dict[str, Any]) -> Tuple[str, Any]:
        """Admission mode and admitted task of ``payload``."""
        decision = self._negotiate(self._validate(payload))
        spec = decision.spec
        return decision.mode, self._task(kind=spec.kind, params=spec.params,
                                         seed=spec.seed)

    def result(self, task) -> str:
        start = _clock()
        value = self._execute(task)
        self.kernel_s[task.key] = _clock() - start
        return workload.canonical(value)


def _matches(oracle: Oracle, payload: Dict[str, Any],
             admitted: Dict[str, Any], result: Any) -> bool:
    mode, task = oracle.admit(payload)
    return (admitted.get("admission", {}).get("mode") == mode
            and admitted.get("key") == task.key
            and workload.canonical(result) == oracle.result(task))


async def check_cold(load: Load, oracle: Oracle, ops: List[Dict]) -> int:
    """Failed cold jobs: non-2xx, no ``completed``, or a wrong answer."""
    failed = 0
    reader, writer = await asyncio.open_connection(HOST, load.port)
    try:
        for op in ops:
            if "error" in op or op.get("terminal") != "completed":
                op["ok"] = False
                failed += 1
                continue
            payload = workload.cold_payload(load.seed, op["index"])
            record = op["record"]
            writer.write(httpc.get_bytes(f"/v1/jobs/{record['job_id']}"))
            status, headers, body = await httpc.read_response(reader)
            if status == 404:
                # Retention evicted the job record; the store still
                # serves its result for an identical request.
                writer.write(httpc.post_bytes(
                    payload, workload.tenant_of(op["index"])))
                status, headers, body = await httpc.read_response(reader)
            answer = json.loads(body) if status == 200 else {}
            op["ok"] = status == 200 and answer.get("state") == "done" and \
                _matches(oracle, payload, record, answer.get("result"))
            failed += not op["ok"]
            if headers.get("connection", "").lower() == "close":
                await httpc.close(writer)
                reader, writer = await asyncio.open_connection(HOST, load.port)
    finally:
        await httpc.close(writer)
    return failed


def check_fills(load: Load, oracle: Oracle,
                fills: List) -> Tuple[bool, List[Optional[Dict[str, Any]]]]:
    """Whether every hot-set fill matches its direct call; the expected
    answer per rank (``None`` for a rank whose fill was wrong)."""
    expected: List[Optional[Dict[str, Any]]] = []
    for payload, (admitted, record) in zip(load.hot, fills):
        ok = record.get("state") == "done" and \
            _matches(oracle, payload, admitted, record.get("result"))
        expected.append({
            "result": workload.canonical(record.get("result")),
            "mode": admitted["admission"]["mode"],
            "key": admitted["key"],
        } if ok else None)
    return all(e is not None for e in expected) and \
        len(expected) == len(load.hot), expected


def check_hot(expected: List[Optional[Dict[str, Any]]], ops: List) -> int:
    """Failed hot requests: non-200 or not identical to the fill result."""
    failed = 0
    for i, (index, rank, start, connect, done, status, body) in \
            enumerate(ops):
        ok = False
        want = expected[rank]
        if status == 200 and want is not None:
            record = json.loads(body)
            ok = (record.get("served_from") == "cache"
                  and record.get("key") == want["key"]
                  and (record.get("admission") or {}).get("mode")
                  == want["mode"]
                  and workload.canonical(record.get("result"))
                  == want["result"])
        ops[i] = (index, rank, start, connect, done, ok)
        failed += not ok
    return failed


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------

def summarize(load: Load, window: Dict[str, Any], failed: int) -> Dict:
    """End-to-end figures of one window (after its checks ran)."""
    ops, deadline = window["ops"], window["deadline"]
    latencies, phases, done_in_window = [], {"connect": 0.0, "post": 0.0,
                                             "follow": 0.0}, 0
    if load.workload == "serve_cold":
        for op in ops:
            if not op.get("ok"):
                continue
            latencies.append(op["t_done"] - op["t0"])
            done_in_window += op["t_done"] <= deadline
            phases["connect"] += op["t_connect"] - op["t0"]
            phases["post"] += op["t_post"] - op["t_connect"]
            phases["follow"] += op["t_done"] - op["t_post"]
    else:
        for index, rank, start, connect, done, ok in ops:
            if not ok:
                continue
            latencies.append(done - start)
            done_in_window += done <= deadline
            phases["connect"] += connect
            phases["post"] += done - start - connect
    return {
        "attempted": len(ops),
        "succeeded": len(ops) - failed,
        "failed": failed,
        "throughput_ops_s": done_in_window / window["seconds"],
        "latency": workload.latency_summary(latencies),
        "peak_rss_mb": window["server"]["peak_rss_mb"],
        "phases_s": phases,
        "journal_compactions": layers.stat_delta(
            window["server"]["stats_before"], window["server"]["stats_after"],
            "journal", "n_compactions"),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

async def run(args, root: Path, run_dir: Path, env: Dict[str, str],
              log) -> Dict[str, Any]:
    """One serve workload run; returns the figures ``run.py`` reports."""
    spawned = time.monotonic()
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(HERE / "server_proc.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--run-dir", str(run_dir), "--setups", str(SETUPS[args.workload]),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        stderr=log, env=env, cwd=str(root), start_new_session=True,
        limit=1 << 26,
    )
    server = Server(proc)
    try:
        ready = await server.receive()
        load = Load(args.workload, args.seed, ready["port"])
        oracle = Oracle()
        await load.warm_up()
        windows = {"plain": await load.window(server, args.seconds, False,
                                              "plain")}
        if args.trace:
            windows["traced"] = await load.window(
                server, TRACED_WINDOW_FACTOR[args.workload] * args.seconds,
                True, "traced")
        report: Dict[str, Any] = {
            "setup_s": ready["setup_s"],
            "import_s": ready["imported_at"] - spawned,
            "server_pid": ready["pid"],
        }
        fills_ok = True
        if args.workload == "serve_hot":
            fills_ok, expected = check_fills(load, oracle, ready["fills"])
            report["fills_ok"] = fills_ok
        for label, window in windows.items():
            if args.workload == "serve_cold":
                failed = await check_cold(load, oracle, window["ops"])
            else:
                failed = check_hot(expected, window["ops"])
            report[label] = summarize(load, window, failed)
        if args.trace:
            traced = windows["traced"]
            header, spans = spanlib.load(traced["server"]["spans"])
            report["traced"]["metrics"] = layers.serve_metrics(
                ops=report["traced"]["succeeded"],
                spans=spans,
                stats_before=traced["server"]["stats_before"],
                stats_after=traced["server"]["stats_after"],
                cpu_s=traced["server"]["cpu_s"],
                lags_s=traced["server"]["lags_s"],
                client=report["traced"]["phases_s"],
                kernel_s=_window_kernels(oracle, traced["ops"]),
            )
            report["spans"] = spans
            report["absent"] = header["absent"]
            report["traced"]["loop_lag"] = workload.latency_summary(
                traced["server"]["lags_s"])
        report["correct"] = fills_ok
        await server.call({"cmd": "quit"})
        return report
    finally:
        await _stop(proc)


def _window_kernels(oracle: Oracle, ops: List) -> Dict[str, float]:
    """Direct-call time of each cold job of a window (none for hot)."""
    keys = {op["record"]["key"] for op in ops
            if isinstance(op, dict) and op.get("ok")}
    return {key: oracle.kernel_s[key] for key in keys}


async def _stop(proc: asyncio.subprocess.Process) -> None:
    """Wait for the server to exit; kill its whole session if it lingers.

    The server runs in its own session, so its warm workers share its
    process group; the group is polled until no member is left.
    """
    if proc.stdin is not None and not proc.stdin.is_closing():
        proc.stdin.close()
    try:
        await asyncio.wait_for(proc.wait(), timeout=15)
    except asyncio.TimeoutError:
        pass
    for _ in range(100):
        try:
            os.killpg(proc.pid, 9)
        except ProcessLookupError:
            break
        await asyncio.sleep(0.05)
    await proc.wait()
