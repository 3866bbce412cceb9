"""Worker-pool bridge from the async service onto the warm pool.

Each worker is an asyncio task draining the weighted-fair queue.  A
popped job awaits one :meth:`~repro.campaign.warmpool.WarmPool.execute`
lease on a persistent pre-forked
:class:`~repro.campaign.warmpool.WarmPool` shared by all workers --
every kind, ``chaos_*`` included, so no job ever runs inside the server
process.  The lease runs on the event loop: a healthy job is one pipe
round-trip to an already-imported worker process with no thread hop,
and only a recycle (kill + respawn) runs on a thread.  Jobs keep the
hardened semantics of the batch path: a job whose worker wedges past
its ``timeout_s`` or dies under it gets the worker killed and
respawned, failures retry with deterministic backoff up to
``max_attempts``, and exhausted jobs surface the campaign's structured
:class:`~repro.campaign.runner.TaskFailure` record.  There are as many
asyncio workers as worker processes, so a popped job normally finds a
process idle.

**Single-flight deduplication**: jobs are content-addressed by their
stable task hash, so when several tenants submit the identical request
concurrently, the first popped job becomes the *leader* (it runs the
campaign task once) and the rest attach as *followers* awaiting the
leader's future.  Exactly one campaign execution happens per unique
key; the store then serves everyone else forever.

**Draining shutdown**: :meth:`WorkerPool.stop` pauses dispatch, gives
in-flight jobs a bounded grace period to finish, then cancels the
workers and fails every job still queued or in flight with a terminal
``shutdown`` event -- an SSE subscriber always sees its stream
terminate, never a silent drop.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..campaign import CampaignTask
from ..campaign.warmpool import WarmPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import ServiceApp
    from .jobs import Job

__all__ = ["WorkerPool"]


class WorkerPool:
    """N asyncio workers bridging the fair queue to the warm pool."""

    def __init__(self, app: "ServiceApp", n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.app = app
        self.n_workers = n_workers
        self.warm: Optional[WarmPool] = None
        self._tasks: List[asyncio.Task] = []
        self._inflight: Dict[str, asyncio.Future] = {}
        self._busy: Dict[str, "Job"] = {}
        self.n_campaign_executions = 0
        self.n_dedupe_joins = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self, paused: bool = False) -> None:
        if self._tasks:
            raise RuntimeError("worker pool already started")
        if paused:
            self.app.queue.pause()
        self.warm = WarmPool(n_workers=self.n_workers).start()
        self._tasks = [
            asyncio.create_task(self._worker_loop(i), name=f"svc-worker-{i}")
            for i in range(self.n_workers)
        ]

    def pause(self) -> None:
        """Stop dispatching new jobs (in-flight ones finish)."""
        self.app.queue.pause()

    def resume(self) -> None:
        self.app.queue.resume()

    async def stop(self, grace_s: Optional[float] = None) -> None:
        """Drain, then tear down: no job's event stream is left dangling.

        1. Pause dispatch so nothing new starts.
        2. Give in-flight jobs up to ``grace_s`` (default: the app's
           ``shutdown_grace_s``) to reach a terminal state.
        3. Cancel the worker tasks and close the warm pool in the
           same loop step, so each cancelled lease kills its worker
           without forking a replacement.
        4. Fail every job still queued or in flight with a terminal
           ``shutdown`` failure, flushing the ``failed`` SSE event to
           any subscriber.
        """
        if grace_s is None:
            grace_s = getattr(self.app.config, "shutdown_grace_s", 5.0)
        self.app.queue.pause()
        draining = [
            job for job in self._busy.values() if not job.done.is_set()
        ]
        if draining and grace_s > 0.0:
            waits = asyncio.gather(
                *(job.done.wait() for job in draining),
                return_exceptions=True,
            )
            try:
                await asyncio.wait_for(waits, timeout=grace_s)
            except asyncio.TimeoutError:
                pass
        for task in self._tasks:
            task.cancel()
        if self.warm is not None:
            # Before the cancelled leases run: each kills its worker and
            # forks no replacement.
            self.warm.close()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        # Flush still-queued jobs: they never reached a worker loop, so
        # terminal accounting happens here.
        while True:
            popped = self.app.queue.core.pop()
            if popped is None:
                break
            _, job = popped
            job.fail({
                "error": "shutdown",
                "message": "service stopped before the job ran",
            })
            self.app.on_job_finished(job)
        # In-flight jobs that outlived the grace period: their worker
        # loop already accounted them on cancellation (its ``finally``
        # also popped them from ``_busy``, so iterate the drain list);
        # just terminate the stream.
        for job in draining:
            if not job.done.is_set():
                job.fail({
                    "error": "shutdown",
                    "message": "service stopped during execution",
                })
        self._busy.clear()
        self._inflight.clear()

    # -- execution -----------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        queue = self.app.queue
        while True:
            tenant, job = await queue.get()
            del tenant  # scheduling already accounted for the tenant
            self._busy[job.job_id] = job
            try:
                await self._execute(job)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                job.fail({
                    "error": "internal",
                    "error_type": type(exc).__name__,
                    "message": str(exc)[:500],
                })
            finally:
                self._busy.pop(job.job_id, None)
                self.app.on_job_finished(job)

    async def _execute(self, job: "Job") -> None:
        store = self.app.store
        key = job.key

        if self._past_deadline(job):
            # The job aged out while queued: fail fast instead of
            # burning a worker on an answer that is already too late.
            job.fail({
                "error": "deadline_exceeded",
                "stage": "queue_wait",
                "deadline_at": job.deadline_at,
            })
            return

        entry = store.get(key)
        if entry is not None:
            job.emit("cache_hit", tier="store")
            job.complete(entry["result"], served_from="cache")
            return

        leader_future = self._inflight.get(key)
        if leader_future is not None:
            # Follower: identical request already executing.
            self.n_dedupe_joins += 1
            job.emit("deduplicated", key=key)
            result, failure = await leader_future
            if failure is None:
                job.complete(result, served_from="dedupe")
            else:
                job.fail(failure)
            return

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        job.mark_running()
        self.n_campaign_executions += 1
        spec = job.decision.spec
        try:
            # The remaining end-to-end budget (net of queue wait) caps
            # every attempt, so a deadlined job never outlives its
            # promise.
            result, task_failure = await self.warm.execute(
                self._task_for(job),
                timeout_s=spec.timeout_s,
                max_attempts=spec.max_attempts,
                backoff_base_s=0.05,
                backoff_max_s=1.0,
                deadline_s=self._remaining(job),
            )
        except BaseException:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(RuntimeError("leader aborted"))
                future.exception()  # may have no follower to retrieve it
            raise
        failure: Optional[Dict[str, Any]] = None
        if task_failure is not None:
            failure = task_failure.to_record()
            failure["error"] = "task_failed"
            if self._past_deadline(job):
                failure = {
                    "error": "deadline_exceeded",
                    "stage": "execution",
                    "deadline_at": job.deadline_at,
                    "task_failure": failure,
                }
        if failure is None:
            store.put(key, {
                "task": self._task_for(job).as_dict(),
                "result": result,
                "elapsed_s": 0.0,
            }, tenant=job.tenant)
            job.complete(result)
        else:
            job.fail(failure)
        self._inflight.pop(key, None)
        future.set_result((result, failure))

    def _task_for(self, job: "Job") -> CampaignTask:
        spec = job.decision.spec
        return CampaignTask(kind=spec.kind, params=spec.params, seed=spec.seed)

    def _past_deadline(self, job: "Job") -> bool:
        return (
            job.deadline_at is not None
            and self.app.wall() >= job.deadline_at
        )

    def _remaining(self, job: "Job") -> Optional[float]:
        """Wall-clock budget left before the job's deadline (``None``=∞)."""
        if job.deadline_at is None:
            return None
        return max(0.0, job.deadline_at - self.app.wall())

    def to_record(self) -> Dict[str, Any]:
        record = {
            "n_workers": self.n_workers,
            "running": not self.app.queue.paused,
            "inflight": len(self._inflight),
            "n_campaign_executions": self.n_campaign_executions,
            "n_dedupe_joins": self.n_dedupe_joins,
        }
        if self.warm is not None:
            record["warm"] = self.warm.to_record()
        return record
