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
* **One batched dispatcher** -- :meth:`WarmPool.lane`, an asyncio
  coroutine, is the only way work reaches a worker.  It leases an idle
  worker, sends it up to :data:`BATCH_SIZE` ready tasks in one pipe
  message, and settles each reply as it arrives, so the caller's
  bookkeeping (a campaign's cache write) overlaps the worker's next
  task.  Each task's timeout starts at the previous reply.  A campaign
  runs ``n_workers`` lanes under ``asyncio.run``; the service's
  :meth:`WarmPool.execute` is a lane over one task on its own loop.
* **Deadline enforcement by recycling** -- a worker that wedges past a
  task's ``timeout_s`` (or dies under it) is SIGTERM/SIGKILLed and a
  fresh worker forked in its place, on a thread so the loop keeps
  running.  The task is charged an attempt; the tasks batched behind it
  never ran and go back uncharged.  A task that raises is charged and
  its worker goes on.  Retry, deterministic backoff, deadline budget
  and quarantine are :meth:`~repro.campaign.runner.AttemptPolicy.charge`,
  the rule the serial in-process path of
  :func:`~repro.campaign.runner.run_campaign` applies too, so results
  and :class:`~repro.campaign.runner.TaskFailure` records match it.

Worker state *persists across tasks* -- that is the whole point.  A
pool built with ``max_tasks_per_worker=1`` recycles each worker after
every task, so every attempt gets a fresh interpreter (at the cost of
one fork per task) for task kinds that must not share one.
"""

from __future__ import annotations

import asyncio
import importlib
import multiprocessing
import select
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from .registry import execute_task
from .runner import (
    AttemptPolicy,
    CampaignStats,
    TaskAttemptFailure,
    TaskFailure,
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

#: Most tasks a lane sends down one pipe message: pipe wake-ups amortize
#: over a batch while every task keeps its own timeout verdict.
BATCH_SIZE = 4


def _preload() -> None:
    for name in PRELOAD_MODULES:
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 - preloading is best-effort
            pass


def _worker_main(conn) -> None:
    """Child-process body: serve batches of tasks until EOF.

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
        max_tasks_per_worker: Optional hygiene bound -- a worker that
            has been sent this many tasks is recycled before it gets
            another (and a batch never takes it past the bound),
            bounding cross-task state accumulation; ``1`` gives every
            task attempt a fresh process.
        context: ``multiprocessing`` context (defaults to the platform
            default).

    The pool is a context manager; :meth:`close` (or ``with``-exit)
    kills every idle worker.  Its leases run on one event loop at a
    time.  Counters (:attr:`n_spawned`, :attr:`n_recycled`,
    :attr:`n_tasks_done`) feed benchmarks, the service stats endpoint,
    and the chaos suite.
    """

    def __init__(
        self,
        n_workers: int = 1,
        max_tasks_per_worker: Optional[int] = None,
        context=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_tasks_per_worker is not None and max_tasks_per_worker < 1:
            raise ValueError(
                "max_tasks_per_worker must be >= 1, "
                f"got {max_tasks_per_worker}"
            )
        self.n_workers = n_workers
        self.max_tasks_per_worker = max_tasks_per_worker
        self.context = context or multiprocessing.get_context()
        self._idle: deque = deque()
        #: Futures of leases waiting on the loop for a worker (FIFO).
        self._waiters: deque = deque()
        self._started = False
        self._closed = False
        self.n_spawned = 0
        self.n_recycled = 0
        self.n_tasks_done = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WarmPool":
        """Fork the workers (idempotent); returns ``self`` for chaining."""
        if self._closed:
            raise RuntimeError("warm pool already closed")
        if not self._started:
            self._started = True
            self._idle.extend(
                _WorkerHandle(self.context) for _ in range(self.n_workers)
            )
            self.n_spawned += self.n_workers
        return self

    def close(self) -> None:
        """Kill every idle worker and refuse further work (idempotent).

        Leased workers are killed by their leaseholder on release: a
        lease cancelled in the same loop step as the close recycles its
        worker without forking a replacement.  Leases waiting for a
        worker fail with ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(RuntimeError("warm pool closed"))
        while self._idle:
            self._idle.popleft().kill()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WarmPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _recycle(
        self, worker: _WorkerHandle
    ) -> Tuple[Optional[int], Optional[_WorkerHandle]]:
        """Kill ``worker``; fork a replacement unless the pool is closed.

        Runs on a thread, so it leaves the counters to its caller.
        """
        exitcode = worker.kill()
        if self._closed:
            return exitcode, None
        return exitcode, _WorkerHandle(self.context)

    def to_record(self) -> Dict[str, Any]:
        return {
            "n_workers": self.n_workers,
            "n_spawned": self.n_spawned,
            "n_recycled": self.n_recycled,
            "n_tasks_done": self.n_tasks_done,
            "closed": self._closed,
        }

    # -- the dispatcher ------------------------------------------------

    async def execute(
        self,
        task: CampaignTask,
        timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
        deadline_s: Optional[float] = None,
    ):
        """Run one task with full hardened semantics: a :meth:`lane`
        over that one task on the caller's event loop.

        The same result or the same
        :class:`~repro.campaign.runner.TaskFailure` comes back as from a
        single-task :func:`~repro.campaign.runner.run_campaign`.
        Concurrent callers on one loop lease distinct workers; a caller
        that finds none idle waits on the loop until another lease hands
        one back or the pool closes.

        ``deadline_s`` is an *absolute budget across all attempts*
        (the service's end-to-end deadline, already net of queue wait):
        each attempt's timeout is clamped to the remaining budget,
        backoff sleeps never overrun it, and once it is spent the
        remaining retries are abandoned with a ``timeout`` attempt
        record instead of being burned on an answer nobody will read.

        Returns:
            ``(result, None)`` on success, ``(None, TaskFailure)``
            after the last failed attempt.
        """
        slot = _Pending(0, task)
        results: List[Any] = []
        try:
            await self.lane(
                deque([slot]),
                AttemptPolicy(
                    max_attempts, timeout_s, backoff_base_s, backoff_max_s,
                    deadline_s,
                ),
                CampaignStats(),
                lambda index, result, elapsed: results.append(result),
                lambda _: None,
            )
        except RuntimeError:  # the pool closed
            slot.failures.append(TaskAttemptFailure(
                attempt=slot.attempt,
                outcome="crash",
                error_type=None,
                message="warm pool closed during execution",
                elapsed_s=0.0,
            ))
        if results:
            return results[0], None
        return None, TaskFailure(
            index=0,
            key=task.key,
            kind=task.kind,
            params=dict(task.params),
            seed=task.seed,
            attempts=slot.failures,
        )

    async def lane(
        self,
        pending: deque,
        policy: AttemptPolicy,
        stats: CampaignStats,
        settle: Callable[[int, Any, float], None],
        quarantine: Callable[[_Pending], None],
    ) -> None:
        """Drain ``pending`` (runner ``_Pending`` slots) over leased workers.

        Each pass takes up to :data:`BATCH_SIZE` slots whose backoff has
        passed, leases a worker (waiting on the loop if none is idle),
        and streams the batch through it.  Lanes may share one
        ``pending`` deque: a lane returns when it finds the deque empty,
        and a lane that puts a slot back always passes again.
        ``settle(index, result, elapsed_s)`` gets each result as its
        reply arrives, ``quarantine(slot)`` each slot out of attempts.
        Raises ``RuntimeError`` once the pool is closed.
        """
        while pending:
            if self._closed:
                raise RuntimeError("warm pool closed")
            now = time.monotonic()
            batch: List[_Pending] = []
            for _ in range(len(pending)):
                if len(batch) == BATCH_SIZE:
                    break
                slot = pending.popleft()
                if slot.not_before > now:
                    pending.append(slot)
                elif policy.charge(slot, None, stats) is None:
                    quarantine(slot)
                else:
                    batch.append(slot)
            if not batch:
                if pending:  # every slot is backing off
                    await asyncio.sleep(
                        min(slot.not_before for slot in pending) - now
                    )
                continue
            worker = await self._lease()
            if self.max_tasks_per_worker is not None:
                room = self.max_tasks_per_worker - worker.n_dispatched
                pending.extendleft(reversed(batch[room:]))
                del batch[room:]
            await self._stream(
                worker, batch, pending, policy, stats, settle, quarantine
            )

    async def _stream(
        self, worker, batch, pending, policy, stats, settle, quarantine
    ) -> None:
        """Run ``batch`` on a leased ``worker``, which it always hands back.

        One pipe message carries the batch; each reply is settled as it
        arrives, and each task's time limit starts at the previous
        reply.  A timeout or a dead pipe recycles the worker and charges
        the head task; the tail never ran, so it goes back to
        ``pending`` uncharged.  A task that raised is charged and the
        worker goes on.
        """
        in_flight = deque(batch)
        started = time.monotonic()
        try:
            try:
                worker.dispatch([slot.task for slot in batch])
            except OSError:
                pass  # a dead pipe: reading the first reply reports it
            while in_flight:
                slot = in_flight[0]
                limit = policy.limit()
                try:
                    message = await self._reply(
                        worker,
                        None if limit is None
                        else limit - (time.monotonic() - started),
                    )
                except (asyncio.TimeoutError, EOFError, OSError) as exc:
                    elapsed = time.monotonic() - started
                    dead, worker = worker, None
                    exitcode = await self._replace(dead)
                    if isinstance(exc, asyncio.TimeoutError):
                        outcome = _timeout_failure(
                            slot.attempt, limit, elapsed
                        )
                    else:
                        outcome = _crash_failure(
                            slot.attempt, exitcode, elapsed
                        )
                    in_flight.popleft()
                    pending.extendleft(reversed(in_flight))
                    in_flight.clear()
                else:
                    now = time.monotonic()
                    in_flight.popleft()
                    verdict, outcome = _classify_message(
                        message, slot.attempt, limit, now - started
                    )
                    started = now
                    if verdict == "ok":
                        self.n_tasks_done += 1
                        settle(slot.index, *outcome)
                        continue
                delay = policy.charge(slot, outcome, stats)
                if delay is None:
                    quarantine(slot)
                else:
                    slot.not_before = time.monotonic() + delay
                    pending.append(slot)
        except BaseException:
            # Cancelled, or a callback raised: replies still in the pipe
            # must never reach a later lease.
            if worker is not None:
                if in_flight:
                    await self._replace(worker)
                else:
                    await self._release(worker)
            raise
        if worker is not None:
            await self._release(worker)

    async def _reply(self, worker: _WorkerHandle, timeout: Optional[float]):
        """The worker's next reply message.

        A reply already in the pipe is read at once and judged by the
        worker's clock; otherwise the loop wakes when it becomes
        readable (``asyncio.TimeoutError`` after ``timeout``).  The
        reader fires on the reply's first bytes and ``conn.recv()``
        reads the rest while the worker is writing it, so even a large
        reply blocks the loop only for the copy.
        """
        fd = worker.conn.fileno()
        if not select.select([fd], (), (), 0)[0]:
            loop = asyncio.get_running_loop()
            readable = loop.create_future()
            loop.add_reader(fd, _wake, readable)
            try:
                await asyncio.wait_for(readable, timeout)
            finally:
                # Before any recycle closes the fd under the selector.
                loop.remove_reader(fd)
        return worker.conn.recv()

    async def _lease(self) -> _WorkerHandle:
        """Check one worker out, waiting on the loop if none is idle."""
        if not self._started:
            self.start()
        if self._closed:
            raise RuntimeError("warm pool closed")
        if self._idle:
            return self._idle.popleft()
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if (
                waiter.done() and not waiter.cancelled()
                and waiter.exception() is None
            ):
                # Handed a worker just as this lease was cancelled.
                self._give(waiter.result())
            raise

    async def _release(self, worker: _WorkerHandle) -> None:
        """Hand back a worker whose replies have all been read."""
        if self._closed:
            await asyncio.to_thread(worker.kill)
        elif (
            self.max_tasks_per_worker is not None
            and worker.n_dispatched >= self.max_tasks_per_worker
        ):
            await self._replace(worker)
        else:
            self._give(worker)

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
        self._idle.append(worker)

    async def _replace(self, worker: _WorkerHandle) -> Optional[int]:
        """Recycle ``worker`` on a thread and hand out its replacement;
        returns the old worker's exit code.

        A kill may join for up to ``_KILL_GRACE_S`` and a fork follows,
        so the loop keeps running meanwhile.  The recycle runs to the
        end even if the awaiting lease is cancelled (the cancellation is
        raised after it), so no replacement is lost and a campaign's
        loop never closes over a half-done fork.
        """
        recycled = asyncio.ensure_future(
            asyncio.to_thread(self._recycle, worker)
        )
        cancelled = False
        while not recycled.done():
            try:
                await asyncio.shield(recycled)
            except asyncio.CancelledError:
                cancelled = True
        exitcode, replacement = recycled.result()
        self.n_recycled += 1
        if replacement is not None:
            self.n_spawned += 1
        self._give(replacement)
        if cancelled:
            raise asyncio.CancelledError
        return exitcode
