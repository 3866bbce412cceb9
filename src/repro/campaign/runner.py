"""Parallel, cached, resumable -- and crash-hardened -- campaign runner.

:func:`run_campaign` takes a list of :class:`CampaignTask` and returns
one result per task (input order preserved).  Uncached tasks run on one
of two paths:

* **serial, in-process** -- with ``n_workers <= 1`` and no
  ``timeout_s``, tasks run one after another in the calling process.
  This is the reference path the pool is tested against; it cannot
  contain a task that crashes or hangs its process.
* **warm pool** -- every other call runs one
  :meth:`~repro.campaign.warmpool.WarmPool.lane` per worker under
  ``asyncio.run``: each lane leases a long-lived worker process of a
  :class:`~repro.campaign.warmpool.WarmPool` (one created for the run,
  or the caller's ``warm_pool``) and streams batches of tasks through
  it.

Both paths share these properties:

* **Caching** -- with a ``cache_dir``, every completed task is persisted
  to a :class:`~repro.campaign.cache.ResultCache` keyed by the stable
  task hash *as soon as it finishes*; already-cached tasks are never
  re-executed.  Failures are never cached, so a resume retries them.
* **Resume** -- the incremental cache writes double as a checkpoint: a
  killed campaign restarts and recomputes only the tasks whose results
  never landed on disk.
* **Determinism** -- task seeds travel *inside* the task (derived from
  the task identity, see :func:`~repro.campaign.task.derive_seed`), so
  results are bit-identical for any worker count, submission order, or
  kill/resume history.
* **Fault containment** -- on the pool, a task that raises, wedges, or
  outright kills its worker cannot abort the sweep.  Raising tasks
  become structured :class:`TaskFailure` records (built by the same
  function on both paths); a hanging task's worker is killed at
  ``timeout_s`` and replaced (and an attempt that *completes* over the
  limit by the worker's own clock is rejected as a timeout too, so
  verdicts do not depend on parent polling latency); failing tasks
  retry up to ``max_attempts`` times with exponential backoff plus
  deterministic jitter; a task still failing after its last attempt is
  **quarantined** (its result slot stays ``None``) and the campaign
  runs to completion.  Both paths, and the service's
  :meth:`~repro.campaign.warmpool.WarmPool.execute`, charge a failed
  attempt with the one rule :meth:`AttemptPolicy.charge`.  Opt back
  into the old fail-fast behaviour with ``raise_on_error=True``.
* **Metrics** -- a :class:`CampaignStats` records tasks done, cache
  hits, retries, timeouts, crashes, quarantines, wall-clock, aggregate
  in-task compute time, and the implied worker utilization; a
  ``progress`` callback streams completion.

Duplicate tasks (same stable hash) are executed once and their result
(or failure) fanned out to every occurrence.
"""

from __future__ import annotations

import asyncio
import random
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .cache import ResultCache
from .registry import execute_task, get_task_function
from .task import CampaignTask, derive_seed

__all__ = [
    "CampaignStats",
    "CampaignResult",
    "CampaignTaskError",
    "TaskAttemptFailure",
    "TaskFailure",
    "run_campaign",
]

ProgressCallback = Callable[[int, int], None]

#: Version tag of the machine-readable failure report layout.
FAILURE_REPORT_SCHEMA_VERSION = 1


class CampaignTaskError(RuntimeError):
    """Raised (only with ``raise_on_error=True``) when a task is quarantined."""

    def __init__(self, failure: "TaskFailure") -> None:
        last = failure.attempts[-1]
        super().__init__(
            f"task {failure.kind!r} (key {failure.key[:12]}...) failed "
            f"permanently after {len(failure.attempts)} attempt(s): "
            f"[{last.outcome}] {last.error_type or ''} {last.message}".strip()
        )
        self.failure = failure


@dataclass(frozen=True)
class TaskAttemptFailure:
    """One failed attempt of one task."""

    attempt: int          # 1-based attempt number
    outcome: str          # "error" | "timeout" | "crash"
    error_type: Optional[str]
    message: str
    elapsed_s: float

    def to_record(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error_type": self.error_type,
            "message": self.message,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class TaskFailure:
    """Structured record of a permanently failed (quarantined) task."""

    index: int            # first occurrence in the submitted task list
    key: str
    kind: str
    params: Dict[str, Any]
    seed: int
    status: str = "quarantined"
    attempts: List[TaskAttemptFailure] = field(default_factory=list)

    def to_record(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "status": self.status,
            "attempts": [a.to_record() for a in self.attempts],
        }


@dataclass
class CampaignStats:
    """Execution metrics of one :func:`run_campaign` call.

    Attributes:
        n_tasks: Tasks submitted (including duplicates).
        n_unique: Distinct task hashes among them.
        n_executed: Tasks actually computed this run.
        n_cache_hits: Tasks answered from the on-disk cache.
        n_workers: Worker processes used (1 = in-process serial).
        n_retries: Extra attempts spent on eventually-resolved tasks.
        n_timeouts: Attempts killed for exceeding ``timeout_s``.
        n_crashes: Attempts whose worker died without reporting.
        n_quarantined: Tasks that exhausted every attempt.
        wall_s: End-to-end wall-clock of the campaign.
        task_s: Summed in-task compute time of executed tasks.
    """

    n_tasks: int = 0
    n_unique: int = 0
    n_executed: int = 0
    n_cache_hits: int = 0
    n_workers: int = 1
    n_retries: int = 0
    n_timeouts: int = 0
    n_crashes: int = 0
    n_quarantined: int = 0
    wall_s: float = 0.0
    task_s: float = 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker-seconds budget spent inside tasks."""
        if self.n_executed == 0 or self.wall_s <= 0.0:
            return 0.0
        return min(1.0, self.task_s / (self.wall_s * self.n_workers))

    def summary(self) -> str:
        """One-line human-readable report for CLIs and benchmarks."""
        text = (
            f"{self.n_tasks} tasks ({self.n_unique} unique): "
            f"{self.n_executed} executed, {self.n_cache_hits} cache hits "
            f"in {self.wall_s:.2f}s wall "
            f"({self.n_workers} workers, "
            f"{100.0 * self.worker_utilization:.0f}% utilization)"
        )
        if self.n_quarantined or self.n_retries:
            text += (
                f"; {self.n_quarantined} quarantined, "
                f"{self.n_retries} retries "
                f"({self.n_timeouts} timeouts, {self.n_crashes} crashes)"
            )
        return text


@dataclass
class CampaignResult:
    """Results aligned with the submitted task list, plus run metrics.

    A quarantined task's slots hold ``None``; its structured failure is
    in :attr:`failures`.
    """

    tasks: List[CampaignTask]
    results: List[Any]
    stats: CampaignStats = field(default_factory=CampaignStats)
    failures: List[TaskFailure] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """Whether every task produced a result."""
        return not self.failures

    def failure_report(self) -> Dict[str, Any]:
        """Machine-readable failure report (see ``docs/RESILIENCE.md``)."""
        return {
            "schema_version": FAILURE_REPORT_SCHEMA_VERSION,
            "n_tasks": self.stats.n_tasks,
            "n_quarantined": self.stats.n_quarantined,
            "n_retries": self.stats.n_retries,
            "n_timeouts": self.stats.n_timeouts,
            "n_crashes": self.stats.n_crashes,
            "failures": [f.to_record() for f in self.failures],
        }


# ----------------------------------------------------------------------
# attempts
# ----------------------------------------------------------------------

def _error_attempt(
    attempt: int,
    error_type: str,
    text: str,
    trace: str,
    elapsed_s: float,
) -> TaskAttemptFailure:
    """The ``error`` record of an attempt that raised, on either path.

    An exception with an empty message is reported by the last line of
    its traceback (at least the exception's type name).
    """
    return TaskAttemptFailure(
        attempt=attempt,
        outcome="error",
        error_type=error_type,
        message=(text or trace.strip().splitlines()[-1])[:500],
        elapsed_s=elapsed_s,
    )


def _backoff_delay(
    task: CampaignTask, attempt: int,
    base_s: float, max_s: float,
) -> float:
    """Exponential backoff with deterministic per-(task, attempt) jitter."""
    delay = min(max_s, base_s * (2.0 ** (attempt - 1)))
    jitter = random.Random(derive_seed(task.seed, "backoff", task.key, attempt))
    return delay * (0.5 + jitter.random())


@dataclass
class _Pending:
    index: int
    task: CampaignTask
    attempt: int = 1
    not_before: float = 0.0
    failures: List[TaskAttemptFailure] = field(default_factory=list)


@dataclass
class AttemptPolicy:
    """How often, for how long, and until when a task may be attempted.

    The serial path, the warm pool's campaign lanes and
    :meth:`~repro.campaign.warmpool.WarmPool.execute` all decide a
    failed attempt's fate with :meth:`charge`.  ``deadline_s`` is a
    budget across all attempts, counted from the policy's creation (the
    service's end-to-end deadline, already net of queue wait).
    """

    max_attempts: int = 1
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    deadline_s: Optional[float] = None
    deadline_at: Optional[float] = field(init=False)  # time.monotonic()

    def __post_init__(self) -> None:
        self.deadline_at = (
            None if self.deadline_s is None
            else time.monotonic() + self.deadline_s
        )

    def limit(self) -> Optional[float]:
        """Time limit of an attempt starting now: ``timeout_s``, clamped
        to the deadline budget left."""
        if self.deadline_at is None:
            return self.timeout_s
        remaining = self.deadline_at - time.monotonic()
        return remaining if self.timeout_s is None else min(
            self.timeout_s, remaining
        )

    def charge(
        self,
        slot: _Pending,
        failure: Optional[TaskAttemptFailure],
        stats: "CampaignStats",
    ) -> Optional[float]:
        """Charge ``slot`` a failed attempt: the seconds to wait before
        its next attempt, or ``None`` to quarantine it.

        Retries back off exponentially with deterministic jitter.  A
        retry the deadline budget would run out before is abandoned,
        with a ``timeout`` record for the attempt it would have been.
        ``failure=None`` asks the same of an attempt about to start,
        charging nothing else.
        """
        delay = 0.0
        if failure is not None:
            slot.failures.append(failure)
            if failure.outcome == "timeout":
                stats.n_timeouts += 1
            elif failure.outcome == "crash":
                stats.n_crashes += 1
            if slot.attempt >= self.max_attempts:
                return None
            delay = _backoff_delay(
                slot.task, slot.attempt, self.backoff_base_s,
                self.backoff_max_s,
            )
            slot.attempt += 1
        if (
            self.deadline_at is not None
            and self.deadline_at - time.monotonic() <= delay
        ):
            slot.failures.append(TaskAttemptFailure(
                attempt=slot.attempt,
                outcome="timeout",
                error_type=None,
                message=(
                    f"deadline budget ({self.deadline_s:.3f}s) exhausted "
                    f"before attempt {slot.attempt}"
                ),
                elapsed_s=0.0,
            ))
            return None
        if failure is not None:
            stats.n_retries += 1
        return delay


def _run_in_process(
    slot: _Pending, policy: AttemptPolicy, stats: CampaignStats
) -> Optional[Tuple[Any, float]]:
    """Serial in-process attempts (no crash/hang containment, no timeout)."""
    while True:
        start = time.perf_counter()
        try:
            result = execute_task(slot.task)
            return result, time.perf_counter() - start
        except Exception as exc:  # KeyboardInterrupt etc. still propagate
            delay = policy.charge(slot, _error_attempt(
                slot.attempt,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(limit=20),
                time.perf_counter() - start,
            ), stats)
            if delay is None:
                return None
            time.sleep(delay)


async def _run_lanes(
    pool, slots: List[_Pending], policy: AttemptPolicy,
    stats: CampaignStats, settle, quarantine, own_pool: bool,
) -> None:
    """Drain ``slots`` with one :meth:`WarmPool.lane` per pool worker.

    A callback that raises (``raise_on_error``) aborts the campaign: it
    closes the campaign's own pool and cancels the other lanes in one
    step, so no abandoned lease forks a replacement worker.
    """
    pending = deque(slots)
    lanes: List[Any] = []

    def aborting(callback):
        def call(*args):
            try:
                callback(*args)
            except BaseException:
                for lane in lanes:
                    if lane is not asyncio.current_task():
                        lane.cancel()
                if own_pool:
                    pool.close()
                raise
        return call

    lanes.extend(
        asyncio.create_task(pool.lane(
            pending, policy, stats, aborting(settle), aborting(quarantine)
        ))
        for _ in range(pool.n_workers)
    )
    # Every lane hands back or recycles its worker before this returns;
    # a lane the abort cancelled (perhaps before it started) reports
    # nothing, the failure that caused the abort is raised.
    for outcome in await asyncio.gather(*lanes, return_exceptions=True):
        if isinstance(outcome, BaseException) and not isinstance(
            outcome, asyncio.CancelledError
        ):
            raise outcome


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------

def run_campaign(
    tasks: Iterable[CampaignTask],
    n_workers: int = 1,
    cache_dir: str | None = None,
    progress: Optional[ProgressCallback] = None,
    timeout_s: Optional[float] = None,
    max_attempts: int = 1,
    backoff_base_s: float = 0.1,
    backoff_max_s: float = 5.0,
    raise_on_error: bool = False,
    warm_pool: Optional[Any] = None,
) -> CampaignResult:
    """Run a characterization campaign, in parallel and through the cache.

    Args:
        tasks: Tasks to evaluate; results come back in the same order.
        n_workers: Worker processes of the warm pool; ``<= 1`` without
            a ``timeout_s`` runs serially in-process (results are
            identical either way -- seeds are per-task, not
            per-worker).
        cache_dir: Optional result-cache directory.  Enables warm-start
            (cached tasks are skipped) and checkpointing (each finished
            task is persisted immediately, so an interrupted campaign
            resumes from where it died).  Failures are never cached.
        progress: Optional ``progress(done, total)`` callback, invoked
            after the cache scan and after every completed (or
            quarantined) task.
        timeout_s: Per-attempt wall-clock limit.  An attempt past the
            limit has its worker killed and is counted as a ``timeout``
            failure; an attempt that completes but reports a task
            runtime over the limit is rejected as a timeout as well.
            Setting this runs the tasks on the warm pool even at
            ``n_workers=1``.
        max_attempts: Total attempts per task before quarantine
            (1 = no retry).
        backoff_base_s: First retry delay; doubles per further attempt.
        backoff_max_s: Upper bound of the (pre-jitter) retry delay.
        raise_on_error: Re-raise as :class:`CampaignTaskError` when a
            task fails permanently, instead of quarantining it (the
            pre-hardening fail-fast behaviour).
        warm_pool: Optional already-started
            :class:`~repro.campaign.warmpool.WarmPool` to execute on,
            whatever ``n_workers`` and ``timeout_s`` say (e.g. a pool
            shared across campaigns, or one built with
            ``max_tasks_per_worker=1`` for a fresh process per task);
            the campaign leases its workers for the duration and never
            closes it.  Without one, a pool of ``n_workers`` is created
            for the run and torn down afterwards.

    Returns:
        :class:`CampaignResult` with per-task results, run stats, and
        the structured failures of quarantined tasks.
    """
    task_list = list(tasks)
    for task in task_list:
        get_task_function(task.kind)  # fail fast on unknown kinds
    start = time.perf_counter()
    cache = ResultCache(cache_dir) if cache_dir else None
    results: List[Any] = [None] * len(task_list)
    stats = CampaignStats(n_tasks=len(task_list), n_workers=max(1, n_workers))
    failures: List[TaskFailure] = []

    # Resolve cache hits and collapse duplicates to one execution each.
    pending: Dict[str, List[int]] = {}
    hit_keys: Dict[str, Any] = {}
    for index, task in enumerate(task_list):
        key = task.key
        if key in hit_keys:
            results[index] = hit_keys[key]
            stats.n_cache_hits += 1
            continue
        if key in pending:
            pending[key].append(index)
            continue
        if cache is not None:
            entry = cache.get(key)
            if entry is not None:
                hit_keys[key] = entry["result"]
                results[index] = entry["result"]
                stats.n_cache_hits += 1
                continue
        pending[key] = [index]
    stats.n_unique = len(pending) + len(hit_keys)
    done = stats.n_cache_hits
    if progress is not None:
        progress(done, len(task_list))

    def complete(index: int, result: Any, elapsed: float) -> None:
        nonlocal done
        task = task_list[index]
        key = task.key
        for occurrence in pending[key]:
            results[occurrence] = result
        done += len(pending[key])
        stats.n_executed += 1
        stats.task_s += elapsed
        if cache is not None:
            cache.put(
                key,
                {
                    "task": task.as_dict(),
                    "result": result,
                    "elapsed_s": elapsed,
                },
            )
        if progress is not None:
            progress(done, len(task_list))

    def quarantine(slot: _Pending) -> None:
        nonlocal done
        task = slot.task
        failure = TaskFailure(
            index=slot.index,
            key=task.key,
            kind=task.kind,
            params=dict(task.params),
            seed=task.seed,
            attempts=list(slot.failures),
        )
        failures.append(failure)
        stats.n_quarantined += 1
        done += len(pending[task.key])
        if progress is not None:
            progress(done, len(task_list))
        if raise_on_error:
            raise CampaignTaskError(failure)

    slots = [_Pending(indices[0], task_list[indices[0]])
             for indices in pending.values()]
    policy = AttemptPolicy(
        max_attempts, timeout_s, backoff_base_s, backoff_max_s
    )
    if warm_pool is None and n_workers <= 1 and timeout_s is None:
        for slot in slots:
            outcome = _run_in_process(slot, policy, stats)
            if outcome is None:
                quarantine(slot)
            else:
                complete(slot.index, *outcome)
    elif slots:
        from .warmpool import WarmPool

        pool = warm_pool
        if pool is None:
            pool = WarmPool(n_workers=max(1, n_workers)).start()
        try:
            stats.n_workers = pool.n_workers
            run = partial(asyncio.run, _run_lanes(
                pool, slots, policy, stats, complete, quarantine,
                own_pool=pool is not warm_pool,
            ))
            try:
                asyncio.get_running_loop()
            except RuntimeError:  # no loop in this thread: the usual case
                run()
            else:  # called from a coroutine, e.g. a notebook cell
                with ThreadPoolExecutor(1) as helper:
                    helper.submit(run).result()
        finally:
            if pool is not warm_pool:
                pool.close()

    stats.wall_s = time.perf_counter() - start
    return CampaignResult(
        tasks=task_list, results=results, stats=stats, failures=failures
    )
