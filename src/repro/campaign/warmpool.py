"""Warm persistent worker pool: the campaign layer's isolated engine.

Every campaign call that needs process isolation (``n_workers > 1`` or a
``timeout_s``, see :func:`~repro.campaign.runner.run_campaign`) and
every service job runs here.  Forking a fresh ``multiprocessing.Process``
per attempt would cost milliseconds (fork + pipe setup + scheduler
churn) before a task -- often hundreds of microseconds of real work --
even starts; :class:`WarmPool` keeps the containment without that cost:

* **Pre-forked, long-lived workers** -- each worker process is spawned
  once, imports the heavy dependency stack once
  (:data:`PRELOAD_MODULES`), and then executes a *stream* of tasks over
  a duplex pipe.  A task dispatch is one pickle round-trip (~10 us)
  instead of one process spawn (~2-4 ms).
* **Micro-batched dispatch** -- the campaign scheduler sends up to
  ``batch_size`` tasks per pipe message and the worker streams results
  back one message per task, so pipe wakeups amortize across a batch
  while per-task timeout verdicts stay exact.
* **Deadline enforcement by recycling** -- a worker that wedges past a
  task's ``timeout_s`` (or dies under it) is SIGTERM/SIGKILLed and a
  fresh worker forked in its place; tasks queued behind the dead head
  migrate to the replacement without being charged an attempt.  Retry,
  deterministic backoff, quarantine, and the
  :class:`~repro.campaign.runner.TaskFailure` schema match the serial
  in-process path of :func:`~repro.campaign.runner.run_campaign`.
* **Two front-ends** -- the single-threaded campaign scheduler
  (:meth:`WarmPool.run_tasks`, used by
  :func:`~repro.campaign.runner.run_campaign`) and an asyncio lease
  (:meth:`WarmPool.execute`, a coroutine) for concurrent submitters on
  one event loop such as the service's worker bridge
  (:mod:`repro.service.workers`).  The lease waits for replies on the
  loop; only recycles run on a thread.  ``asyncio`` is imported inside
  the coroutines, so campaign processes never load it.

Worker state *persists across tasks* -- that is the whole point.  A
pool built with ``max_tasks_per_worker=1`` recycles each worker after
every task on both front-ends, so every attempt gets a fresh
interpreter (at the cost of one fork per task) for task kinds that must
not share one.
"""

from __future__ import annotations

import importlib
import multiprocessing
import multiprocessing.connection
import queue as thread_queue
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from .registry import execute_task
from .runner import (
    TaskAttemptFailure,
    TaskFailure,
    _backoff_delay,
    _error_attempt,
    _Pending,
)
from .task import CampaignTask

__all__ = ["WarmPool", "PRELOAD_MODULES"]

#: Modules a fresh worker imports before serving tasks, so the first
#: task of a worker's life does not pay the import bill.  Best-effort:
#: a module that fails to import is skipped (task bodies import what
#: they actually need anyway).
PRELOAD_MODULES = (
    "numpy",
    "repro.errors.analytic",
    "repro.adders.gear",
    "repro.adders.hetero",
)

#: Grace period between SIGTERM and SIGKILL when recycling a worker.
_KILL_GRACE_S = 0.25


def _preload() -> None:
    for name in PRELOAD_MODULES:
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 - preloading is best-effort
            pass


def _worker_main(conn) -> None:
    """Child-process body: serve micro-batches of tasks until EOF.

    Protocol: the parent sends either ``None`` (shut down) or a list of
    :class:`CampaignTask`; the worker answers **one message per task**,
    in order -- ``("ok", result, elapsed_s)`` or
    ``("error", type_name, message, traceback)`` -- so the parent can
    time out and harvest tasks individually even under batching.
    """
    _preload()
    while True:
        try:
            batch = conn.recv()
        except (EOFError, OSError):
            break
        if batch is None:
            break
        for task in batch:
            try:
                start = time.perf_counter()
                result = execute_task(task)
                message: Tuple[Any, ...] = (
                    "ok", result, time.perf_counter() - start
                )
            except BaseException as exc:  # noqa: BLE001 - process edge
                message = (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(limit=20),
                )
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                return
    try:
        conn.close()
    except OSError:
        pass


class _WorkerHandle:
    """Parent-side view of one long-lived worker process."""

    def __init__(self, context) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.n_dispatched = 0  # tasks ever sent to this worker

    def dispatch(self, tasks: List[CampaignTask]) -> None:
        self.conn.send(tasks)
        self.n_dispatched += len(tasks)

    def kill(self) -> Optional[int]:
        """Terminate (then SIGKILL) the worker; returns its exit code."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(_KILL_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        else:
            process.join()
        try:
            self.conn.close()
        except OSError:
            pass
        return process.exitcode


def _timeout_failure(attempt: int, timeout_s: float, elapsed_s: float):
    return TaskAttemptFailure(
        attempt=attempt,
        outcome="timeout",
        error_type=None,
        message=f"attempt exceeded timeout_s={timeout_s}",
        elapsed_s=elapsed_s,
    )


def _crash_failure(attempt: int, exitcode: Optional[int], elapsed_s: float):
    return TaskAttemptFailure(
        attempt=attempt,
        outcome="crash",
        error_type=None,
        message=f"worker died with exit code {exitcode}",
        elapsed_s=elapsed_s,
    )


def _wake(future) -> None:
    """Reader callback: resolve ``future`` once its pipe is readable."""
    if not future.done():
        future.set_result(None)


def _classify_message(
    message: tuple,
    attempt: int,
    timeout_s: Optional[float],
    elapsed_s: float,
) -> Tuple[str, Any]:
    """Map one worker message to ``("ok", (result, task_elapsed))`` or
    ``("fail", TaskAttemptFailure)``.

    An attempt that *completed* over budget by the worker's own clock is
    rejected as a timeout, so timeout verdicts never depend on parent
    polling latency.
    """
    if message[0] == "ok":
        task_elapsed = message[2]
        if timeout_s is not None and task_elapsed > timeout_s:
            return "fail", _timeout_failure(attempt, timeout_s, task_elapsed)
        return "ok", (message[1], task_elapsed)
    _, error_type, text, trace = message
    return "fail", _error_attempt(attempt, error_type, text, trace, elapsed_s)


class WarmPool:
    """Persistent pre-forked workers executing streams of campaign tasks.

    Args:
        n_workers: Long-lived worker processes to keep warm.
        batch_size: Upper bound on tasks sent per pipe message by the
            campaign scheduler (:meth:`run_tasks`); amortizes pipe
            wakeups without widening any timeout window.
        max_tasks_per_worker: Optional hygiene bound -- a worker that
            has been sent this many tasks is recycled before it gets
            another, bounding cross-task state accumulation; ``1``
            gives every task attempt a fresh process.
        context: ``multiprocessing`` context (defaults to the platform
            default).

    The pool is a context manager; :meth:`close` (or ``with``-exit)
    kills every worker.  Counters (:attr:`n_spawned`,
    :attr:`n_recycled`, :attr:`n_tasks_done`) feed benchmarks, the
    service stats endpoint, and the chaos suite.
    """

    def __init__(
        self,
        n_workers: int = 1,
        batch_size: int = 4,
        max_tasks_per_worker: Optional[int] = None,
        context=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_tasks_per_worker is not None and max_tasks_per_worker < 1:
            raise ValueError(
                "max_tasks_per_worker must be >= 1, "
                f"got {max_tasks_per_worker}"
            )
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.max_tasks_per_worker = max_tasks_per_worker
        self.context = context or multiprocessing.get_context()
        self._idle: "thread_queue.Queue[_WorkerHandle]" = thread_queue.Queue()
        #: Futures of leases waiting on the loop for a worker (FIFO).
        self._waiters: deque = deque()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self.n_spawned = 0
        self.n_recycled = 0
        self.n_tasks_done = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WarmPool":
        """Fork the workers (idempotent); returns ``self`` for chaining."""
        with self._lock:
            if self._closed:
                raise RuntimeError("warm pool already closed")
            if self._started:
                return self
            self._started = True
            for _ in range(self.n_workers):
                self._idle.put(self._spawn())
        return self

    def close(self) -> None:
        """Kill every idle worker and refuse further work (idempotent).

        Leased workers are killed by their leaseholder on release;
        leases waiting for a worker fail with ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(RuntimeError("warm pool closed"))
        while True:
            try:
                worker = self._idle.get_nowait()
            except thread_queue.Empty:
                break
            worker.kill()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WarmPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> _WorkerHandle:
        handle = _WorkerHandle(self.context)
        self.n_spawned += 1
        return handle

    def _recycle(
        self, worker: _WorkerHandle
    ) -> Tuple[Optional[int], Optional[_WorkerHandle]]:
        """Kill ``worker``; fork a replacement unless the pool is closed."""
        exitcode = worker.kill()
        self.n_recycled += 1
        if self._closed:
            return exitcode, None
        return exitcode, self._spawn()

    def _lease(self) -> _WorkerHandle:
        """Check one worker out (thread-safe); blocks until one is free."""
        if not self._started:
            self.start()
        while True:
            if self._closed:
                raise RuntimeError("warm pool closed")
            try:
                return self._idle.get(timeout=0.1)
            except thread_queue.Empty:
                continue

    def _release(self, worker: Optional[_WorkerHandle]) -> None:
        """Return a clean worker to the idle set (recycling a tired one)."""
        if worker is None:
            return
        if self._closed:
            worker.kill()
            return
        if (
            self.max_tasks_per_worker is not None
            and worker.n_dispatched >= self.max_tasks_per_worker
        ):
            _, worker = self._recycle(worker)
            if worker is None:
                return
        self._idle.put(worker)

    def to_record(self) -> Dict[str, Any]:
        return {
            "n_workers": self.n_workers,
            "batch_size": self.batch_size,
            "n_spawned": self.n_spawned,
            "n_recycled": self.n_recycled,
            "n_tasks_done": self.n_tasks_done,
            "closed": self._closed,
        }

    # -- asyncio single-task front-end (service bridge) ----------------

    async def execute(
        self,
        task: CampaignTask,
        timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
        deadline_s: Optional[float] = None,
    ):
        """Run one task with full hardened semantics on a leased worker.

        A coroutine driven by the caller's event loop: the task goes down
        an idle worker's pipe and the loop wakes (``loop.add_reader``)
        when the reply is readable, so a healthy attempt makes no thread
        hop.  Only a recycle -- a kill that may join for up to
        ``_KILL_GRACE_S`` plus a fork -- runs on a thread
        (``asyncio.to_thread``), after a timeout, a dead pipe, a
        cancellation, or a ``max_tasks_per_worker`` bound.

        Retries, deterministic backoff, timeout verdicts, and the
        quarantine record are bit-compatible with a single-task
        :func:`~repro.campaign.runner.run_campaign`: the same result or
        the same :class:`~repro.campaign.runner.TaskFailure` comes
        back.  Concurrent callers on one loop lease distinct workers; a
        caller that finds none idle waits on the loop until another
        lease hands one back or the pool closes.  (Workers returned by
        :meth:`run_tasks` go to the idle set without waking a waiting
        lease, so drive a pool with one front-end at a time.)

        ``deadline_s`` is an *absolute budget across all attempts*
        (the service's end-to-end deadline, already net of queue wait):
        each attempt's timeout is clamped to the remaining budget,
        backoff sleeps never overrun it, and once it is spent the
        remaining retries are abandoned with a ``timeout`` attempt
        record instead of being burned on an answer nobody will read.

        Cancelled with its task in flight, the lease kills that worker
        and releases a replacement (unless the pool is closed), so the
        pool keeps its size and no later lease reads the stale reply.

        Returns:
            ``(result, None)`` on success, ``(None, TaskFailure)``
            after the last failed attempt.
        """
        import asyncio  # here, not at module level: campaigns never need it

        max_attempts = max(1, max_attempts)
        deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        failures: List[TaskAttemptFailure] = []
        for attempt in range(1, max_attempts + 1):
            attempt_timeout = timeout_s
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0.0:
                    failures.append(TaskAttemptFailure(
                        attempt=attempt,
                        outcome="timeout",
                        error_type=None,
                        message=(
                            f"deadline budget ({deadline_s:.3f}s) exhausted "
                            f"before attempt {attempt}"
                        ),
                        elapsed_s=0.0,
                    ))
                    break
                attempt_timeout = (
                    remaining if attempt_timeout is None
                    else min(attempt_timeout, remaining)
                )
            try:
                worker = await self._lease_async()
            except RuntimeError:
                failures.append(TaskAttemptFailure(
                    attempt=attempt,
                    outcome="crash",
                    error_type=None,
                    message="warm pool closed during execution",
                    elapsed_s=0.0,
                ))
                break
            outcome = await self._attempt(
                worker, task, attempt_timeout, attempt
            )
            if outcome[0] == "ok":
                self.n_tasks_done += 1
                return outcome[1][0], None
            failures.append(outcome[1])
            if attempt < max_attempts and not self._closed:
                delay = _backoff_delay(
                    task, attempt, backoff_base_s, backoff_max_s
                )
                if deadline_at is not None:
                    delay = min(delay, max(0.0, deadline_at - time.monotonic()))
                await asyncio.sleep(delay)
        return None, TaskFailure(
            index=0,
            key=task.key,
            kind=task.kind,
            params=dict(task.params),
            seed=task.seed,
            attempts=failures,
        )

    async def _attempt(
        self,
        worker: _WorkerHandle,
        task: CampaignTask,
        timeout_s: Optional[float],
        attempt: int,
    ) -> Tuple[str, Any]:
        """One attempt on a leased worker, which it always hands back.

        Returns the outcome as produced by :func:`_classify_message`.
        The reader fires on the reply's first bytes and ``conn.recv()``
        then reads the rest synchronously; the worker is writing it at
        that moment, so even a large reply blocks the loop only for the
        copy.
        """
        import asyncio

        started = time.monotonic()
        try:
            worker.dispatch([task])
        except (BrokenPipeError, OSError):
            exitcode = await self._replace(worker)
            return "fail", _crash_failure(
                attempt, exitcode, time.monotonic() - started
            )
        loop = asyncio.get_running_loop()
        readable = loop.create_future()
        fd = worker.conn.fileno()
        loop.add_reader(fd, _wake, readable)
        try:
            try:
                await asyncio.wait_for(readable, timeout_s)
            finally:
                # Before any recycle closes the fd under the selector.
                loop.remove_reader(fd)
            message = worker.conn.recv()
        except asyncio.TimeoutError:
            elapsed = time.monotonic() - started
            await self._replace(worker)
            return "fail", _timeout_failure(attempt, timeout_s, elapsed)
        except (EOFError, OSError):
            # The worker died under the task (e.g. killed itself).
            exitcode = await self._replace(worker)
            return "fail", _crash_failure(
                attempt, exitcode, time.monotonic() - started
            )
        except BaseException:
            # Cancelled with the task in flight: its reply must never
            # reach a later lease, and the pool must not shrink.
            await self._replace(worker)
            raise
        outcome = _classify_message(
            message, attempt, timeout_s, time.monotonic() - started
        )
        if self._closed:
            await asyncio.to_thread(worker.kill)
        elif (
            self.max_tasks_per_worker is not None
            and worker.n_dispatched >= self.max_tasks_per_worker
        ):
            await self._replace(worker)
        else:
            self._give(worker)
        return outcome

    async def _lease_async(self) -> _WorkerHandle:
        """Check one worker out on the loop, waiting there if none is idle."""
        import asyncio

        if not self._started:
            self.start()
        if self._closed:
            raise RuntimeError("warm pool closed")
        try:
            return self._idle.get_nowait()
        except thread_queue.Empty:
            pass
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                # Handed a worker just as this lease was cancelled.
                self._give(waiter.result())
            raise

    def _give(self, worker: Optional[_WorkerHandle]) -> None:
        """Hand a clean worker to the oldest waiting lease, else idle it."""
        if worker is None:
            return
        if self._closed:  # closed while its recycle ran
            worker.kill()
            return
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.put(worker)

    async def _replace(self, worker: _WorkerHandle) -> Optional[int]:
        """Recycle ``worker`` on a thread; returns its exit code.

        The replacement is handed out by a done-callback, so a second
        cancellation of the awaiting lease cannot lose it.
        """
        import asyncio

        recycled = asyncio.ensure_future(
            asyncio.to_thread(self._recycle, worker)
        )
        recycled.add_done_callback(self._give_recycled)
        exitcode, _ = await asyncio.shield(recycled)
        return exitcode

    def _give_recycled(self, recycled) -> None:
        if not recycled.cancelled() and recycled.exception() is None:
            self._give(recycled.result()[1])

    # -- campaign scheduler front-end ----------------------------------

    def run_tasks(
        self,
        to_run: List[Tuple[int, CampaignTask]],
        on_success: Callable[[int, Any, float], None],
        on_quarantine: Callable[[Any], None],
        stats,
        timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
    ) -> None:
        """Stream a campaign's unique tasks over the warm workers.

        Single-threaded scheduler with the retry / timeout / quarantine
        semantics of :func:`~repro.campaign.runner.run_campaign`,
        dispatching micro-batches onto persistent workers.  Checks
        every worker out of the lease queue for the duration, so a pool
        shared with a service bridge is driven safely by one front-end
        at a time per worker.
        """
        workers = [self._lease() for _ in range(self.n_workers)]
        scheduler = _WarmScheduler(
            pool=self,
            workers=workers,
            timeout_s=timeout_s,
            max_attempts=max(1, max_attempts),
            backoff_base_s=backoff_base_s,
            backoff_max_s=backoff_max_s,
            stats=stats,
        )
        try:
            scheduler.run(to_run, on_success, on_quarantine)
        finally:
            for i, worker in enumerate(scheduler.workers):
                if worker is None:
                    continue
                if scheduler.states[i].slots:
                    # Aborted mid-flight (e.g. raise_on_error): the pipe
                    # still carries unread results -- never return a
                    # dirty worker to the idle set.
                    _, replacement = self._recycle(worker)
                    self._release(replacement)
                else:
                    self._release(worker)


class _InFlight:
    """Tasks queued on one worker: a FIFO whose head is executing."""

    def __init__(self) -> None:
        self.slots: deque = deque()     # of runner._Pending
        self.head_started: float = 0.0  # when the head began executing


class _WarmScheduler:
    """Single-threaded micro-batching dispatcher over warm workers.

    Workers are addressed by list index; recycling swaps the handle at
    an index in place (``None`` if the closed pool refuses a
    replacement), so per-worker in-flight state survives a respawn.
    """

    def __init__(
        self,
        pool: WarmPool,
        workers: List[_WorkerHandle],
        timeout_s: Optional[float],
        max_attempts: int,
        backoff_base_s: float,
        backoff_max_s: float,
        stats,
    ) -> None:
        self.pool = pool
        self.workers: List[Optional[_WorkerHandle]] = list(workers)
        self.states = [_InFlight() for _ in workers]
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.stats = stats

    def run(self, to_run, on_success, on_quarantine) -> None:
        pending = deque(_Pending(index, task) for index, task in to_run)
        while pending or any(state.slots for state in self.states):
            if all(worker is None for worker in self.workers):
                raise RuntimeError("warm pool closed during campaign")
            self._dispatch(pending)
            self._wait(pending)
            self._harvest(pending, on_success, on_quarantine)
            self._enforce_deadlines(pending, on_quarantine)

    # -- scheduling ----------------------------------------------------

    def _dispatch(self, pending: deque) -> None:
        now = time.monotonic()
        bound = self.pool.max_tasks_per_worker
        for i, worker in enumerate(self.workers):
            if worker is None or self.states[i].slots or not pending:
                continue
            room = self.pool.batch_size
            if bound is not None:
                if worker.n_dispatched >= bound:
                    self._replace(i)
                    worker = self.workers[i]
                    if worker is None:
                        continue
                room = min(room, bound - worker.n_dispatched)
            batch: list = []
            for _ in range(len(pending)):
                if len(batch) >= room:
                    break
                slot = pending.popleft()
                if slot.not_before > now:
                    pending.append(slot)
                    continue
                batch.append(slot)
            if not batch:
                continue
            try:
                worker.dispatch([slot.task for slot in batch])
            except (BrokenPipeError, OSError):
                for slot in reversed(batch):
                    pending.appendleft(slot)
                self._replace(i)
                continue
            state = self.states[i]
            state.slots.extend(batch)
            state.head_started = now

    def _wait(self, pending: deque) -> None:
        now = time.monotonic()
        horizon = 0.2
        if self.timeout_s is not None:
            for i, worker in enumerate(self.workers):
                if worker is not None and self.states[i].slots:
                    deadline = self.states[i].head_started + self.timeout_s
                    horizon = min(horizon, deadline - now)
        for slot in pending:
            if slot.not_before > now:
                horizon = min(horizon, slot.not_before - now)
        horizon = max(0.005, horizon)
        conns = [
            worker.conn
            for i, worker in enumerate(self.workers)
            if worker is not None and self.states[i].slots
        ]
        if conns:
            multiprocessing.connection.wait(conns, timeout=horizon)
        elif pending:
            time.sleep(horizon)

    # -- harvesting ----------------------------------------------------

    def _harvest(self, pending, on_success, on_quarantine) -> None:
        for i in range(len(self.workers)):
            while self.workers[i] is not None and self.states[i].slots:
                worker = self.workers[i]
                state = self.states[i]
                try:
                    if not worker.conn.poll():
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # Worker died under the head task: crash the head,
                    # migrate the rest, respawn.
                    elapsed = time.monotonic() - state.head_started
                    exitcode = self._replace(i)
                    self.stats.n_crashes += 1
                    self._fail_head(
                        i,
                        _crash_failure(
                            state.slots[0].attempt, exitcode, elapsed
                        ),
                        pending, on_quarantine, requeue_rest=True,
                    )
                    break
                kind, payload = _classify_message(
                    message,
                    state.slots[0].attempt,
                    self.timeout_s,
                    time.monotonic() - state.head_started,
                )
                if kind == "ok":
                    slot = state.slots.popleft()
                    state.head_started = time.monotonic()
                    self.pool.n_tasks_done += 1
                    result, task_elapsed = payload
                    on_success(slot.index, result, task_elapsed)
                else:
                    if payload.outcome == "timeout":
                        self.stats.n_timeouts += 1
                    self._fail_head(i, payload, pending, on_quarantine)

    def _enforce_deadlines(self, pending, on_quarantine) -> None:
        if self.timeout_s is None:
            return
        now = time.monotonic()
        for i, worker in enumerate(self.workers):
            state = self.states[i]
            if worker is None or not state.slots:
                continue
            elapsed = now - state.head_started
            if elapsed < self.timeout_s:
                continue
            self._replace(i)
            self.stats.n_timeouts += 1
            self._fail_head(
                i,
                _timeout_failure(
                    state.slots[0].attempt, self.timeout_s, elapsed
                ),
                pending, on_quarantine, requeue_rest=True,
            )

    def _fail_head(
        self, i, failure, pending, on_quarantine, requeue_rest=False
    ) -> None:
        """Charge the head task one failed attempt: requeue or quarantine."""
        state = self.states[i]
        slot = state.slots.popleft()
        if requeue_rest:
            # Tasks queued behind the dead head never ran: migrate them
            # back to pending without charging an attempt.
            while state.slots:
                pending.appendleft(state.slots.pop())
        state.head_started = time.monotonic()
        slot.failures.append(failure)
        if slot.attempt < self.max_attempts:
            self.stats.n_retries += 1
            delay = _backoff_delay(
                slot.task, slot.attempt, self.backoff_base_s,
                self.backoff_max_s,
            )
            slot.attempt += 1
            slot.not_before = time.monotonic() + delay
            pending.append(slot)
        else:
            on_quarantine(slot)

    def _replace(self, i: int) -> Optional[int]:
        """Recycle worker ``i`` in place; returns the old exit code."""
        worker = self.workers[i]
        exitcode, replacement = self.pool._recycle(worker)
        self.workers[i] = replacement
        return exitcode
