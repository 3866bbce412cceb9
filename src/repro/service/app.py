"""The service application: routing, admission, and job bookkeeping.

:class:`ServiceApp` is transport-agnostic -- it maps parsed
:class:`~repro.service.http.Request` objects to JSON responses or SSE
streams.  The HTTP layer (real sockets or in-process test stubs) sits
in front; the :class:`~repro.service.workers.WorkerPool`, the
:class:`~repro.service.queue.AsyncFairQueue`, and the
:class:`~repro.service.store.SharedResultStore` sit behind.

API surface (all JSON):

======  ==========================  =====================================
method  path                        answer
======  ==========================  =====================================
GET     ``/healthz``                liveness probe (also ``/v1/healthz``)
GET     ``/readyz``                 readiness: 200 only once journal
                                    replay finished and the service is
                                    not draining; 503 otherwise
GET     ``/v1/kinds``               job kinds this deployment serves
GET     ``/v1/stats``               queue/store/worker/tenant counters,
                                    brownout state, recovery report
POST    ``/v1/jobs``                submit a job (``X-Tenant`` header);
                                    200 on an instant cache hit, 202
                                    when queued, 400/413 on bad
                                    requests, 429 with ``Retry-After``
                                    on rate-limit or backlog overflow,
                                    503 while draining or shedding
GET     ``/v1/jobs/<id>``           job status + result/failure
GET     ``/v1/jobs/<id>/events``    SSE stream (replay + live follow;
                                    honors ``Last-Event-ID``)
======  ==========================  =====================================

A submitted job is admission-negotiated (QoS budgets against the exact
analytic predictor), optionally degraded by the overload brownout
controller, content-addressed by its stable campaign task hash,
answered from the shared store when warm, and otherwise queued
weighted-fair per tenant.  Queued jobs of every kind, ``chaos_*``
included, execute on the worker pool's persistent pre-forked
:class:`~repro.campaign.warmpool.WarmPool`, never inside the server
process.

With a ``state_dir``, every accepted admission and every job event is
written to the durable :class:`~repro.service.journal.JobJournal`
before the response leaves the process; on startup the journal is
replayed -- terminal jobs are restored read-only (results re-attached
from the content-addressed store), in-flight and queued jobs are
re-admitted without re-tolling the tenant's rate limit, and per-tenant
stored-byte quotas are re-derived from what actually survived on disk.
"""

from __future__ import annotations

import os
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..campaign import CampaignTask
from ..campaign.registry import task_kinds
from .admission import AdmissionDecision, negotiate
from .brownout import BrownoutController, ShedLoad, SloConfig
from .http import HttpError, Request, Response, SSEStream, json_response
from .jobs import Job, JobEvent
from .journal import JobJournal
from .queue import AsyncFairQueue, BacklogFull, RateLimited
from .schemas import JobSpec, SchemaError, validate_job_request
from .store import SharedResultStore
from .tenants import TenantConfig, TenantRegistry
from .workers import WorkerPool

__all__ = ["ServiceApp", "ServiceConfig"]

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)$")
_EVENTS_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/events$")
_JOB_ID = re.compile(r"^j(\d+)$")

#: Tenant header; absent means the anonymous public tenant.
TENANT_HEADER = "x-tenant"
DEFAULT_TENANT = "public"


@dataclass
class ServiceConfig:
    """Deployment knobs of one :class:`ServiceApp`.

    Every job runs on the worker pool's persistent pre-forked
    :class:`~repro.campaign.warmpool.WarmPool`.  ``shutdown_grace_s``
    bounds how long :meth:`ServiceApp.stop` waits for in-flight jobs
    before failing them with a terminal ``shutdown`` event.

    ``state_dir`` turns on crash safety: the job journal lives in
    ``<state_dir>/journal/`` and, unless ``cache_dir`` is set
    explicitly, the content-addressed result store persists to
    ``<state_dir>/cache/`` (results must survive restarts for recovery
    to re-serve completed jobs).  ``slo`` arms the overload brownout
    controller; ``None`` leaves it dormant.

    ``clock`` (monotonic) drives rate limiting, latency accounting and
    brownout hysteresis; ``wall_clock`` (epoch seconds) stamps absolute
    job deadlines so they stay meaningful across a restart.  Both are
    injectable for deterministic tests.
    """

    cache_dir: Optional[str] = None
    n_workers: int = 2
    tenants: Dict[str, TenantConfig] = field(default_factory=dict)
    default_tenant: TenantConfig = field(
        default_factory=lambda: TenantConfig(name="default")
    )
    allow_chaos: bool = False
    max_jobs_retained: int = 10_000
    clock: Optional[Callable[[], float]] = None
    shutdown_grace_s: float = 5.0
    state_dir: Optional[str] = None
    wall_clock: Optional[Callable[[], float]] = None
    slo: Optional[SloConfig] = None
    journal_fsync: bool = True
    journal_segment_bytes: int = 4 << 20
    compact_segments: int = 8


class ServiceApp:
    """Asyncio application serving approximate-compute jobs."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.wall: Callable[[], float] = self.config.wall_clock or time.time
        self.tenants = TenantRegistry(
            tenants=dict(self.config.tenants),
            default=self.config.default_tenant,
            clock=self.config.clock,
        )
        self.queue = AsyncFairQueue(self.tenants)
        cache_dir = self.config.cache_dir
        if cache_dir is None and self.config.state_dir:
            cache_dir = os.path.join(self.config.state_dir, "cache")
        self.store = SharedResultStore(cache_dir)
        self.journal: Optional[JobJournal] = None
        if self.config.state_dir:
            self.journal = JobJournal(
                os.path.join(self.config.state_dir, "journal"),
                segment_bytes=self.config.journal_segment_bytes,
                fsync=self.config.journal_fsync,
                compact_segments=self.config.compact_segments,
            )
        self.brownout = BrownoutController(
            slo=self.config.slo,
            clock=self.tenants.clock,
            enabled=self.config.slo is not None,
        )
        self.pool = WorkerPool(self, n_workers=self.config.n_workers)
        self.jobs: Dict[str, Job] = {}
        self._job_order: "deque[str]" = deque()
        self._next_job = 0
        self.n_jobs_accepted = 0
        self.n_jobs_rejected = 0
        self.completed_per_tenant: Dict[str, int] = {}
        #: Ids of the most recently finished jobs, oldest first
        #: (bounded like the job table).
        self.completion_order: "deque[str]" = deque(
            maxlen=self.config.max_jobs_retained
        )
        #: Ready only once journal replay (if any) has run; stateless
        #: deployments have nothing to replay and are born ready.
        self.ready = self.journal is None
        self.draining = False
        self.recovery: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, paused: bool = False) -> None:
        if self.journal is not None and not self.ready:
            self._recover()
        await self.pool.start(paused=paused)
        self.ready = True

    async def stop(self) -> None:
        self.ready = False
        await self.pool.stop()
        if self.journal is not None:
            self.journal.close()

    def begin_drain(self) -> None:
        """Refuse new submissions; queued/in-flight jobs keep going.

        The signal-handler hook: SIGTERM flips this before the worker
        pool drains, so a rolling restart answers later POSTs with a
        structured 503 ``draining`` instead of accepting promises it is
        about to break.
        """
        self.draining = True

    async def abandon(self) -> None:
        """Die *without* draining (test hook simulating ``kill -9``).

        Worker tasks are cancelled mid-flight, the warm pool is killed,
        and -- crucially -- no graceful ``shutdown`` failures are
        emitted or journaled, so a subsequent app on the same
        ``state_dir`` sees exactly what a crashed process would have
        left behind.
        """
        import asyncio

        for task in self.pool._tasks:
            task.cancel()
        if self.pool.warm is not None:
            self.pool.warm.close()  # in the same step: no replacement forks
        await asyncio.gather(*self.pool._tasks, return_exceptions=True)
        self.pool._tasks = []
        if self.journal is not None:
            self.journal.abandon()

    def on_job_finished(self, job: Job) -> None:
        """Worker-pool callback: account one finished job."""
        self.completed_per_tenant[job.tenant] = (
            self.completed_per_tenant.get(job.tenant, 0) + 1
        )
        self.completion_order.append(job.job_id)
        if job.submitted_at is not None:
            self.brownout.observe_latency(
                job.spec.kind, self.tenants.clock() - job.submitted_at
            )
        self.brownout.tick(len(self.queue))
        if self.journal is not None and self.journal.should_compact():
            self.journal.compact(self._journal_snapshot())

    # ------------------------------------------------------------------
    # journal integration
    # ------------------------------------------------------------------
    def _journal_admit(self, job: Job) -> None:
        if self.journal is None:
            return
        self.journal.log_admit(
            job.job_id,
            job.tenant,
            job.spec.to_record(),
            job.key,
            job.decision.to_record(),
            job.deadline_at,
        )

    def _journal_event(self, job: Job, entry: JobEvent) -> None:
        if self.journal is None:
            return
        self.journal.log_event(
            job.job_id, entry.seq, entry.event, dict(entry.data)
        )

    def _journal_snapshot(self):
        """Live job table as replay records (compaction input)."""
        from .journal import ReplayedJob

        for job_id in self._job_order:
            job = self.jobs.get(job_id)
            if job is None:
                continue
            yield ReplayedJob(
                job_id=job.job_id,
                tenant=job.tenant,
                spec=job.spec.to_record(),
                key=job.key,
                decision=job.decision.to_record(),
                deadline_at=job.deadline_at,
                events=[
                    (entry.seq, entry.event, dict(entry.data))
                    for entry in job.events
                ],
            )

    def _recover(self) -> None:
        """Replay the journal into the live job table (startup only).

        Terminal jobs come back read-only with results re-attached from
        the content-addressed store; anything the previous process
        accepted but never finished is re-queued -- without re-charging
        the tenant's rate limit, because that admission was already
        paid for -- and per-tenant stored-byte accounts are re-derived
        from the entries that actually survived on disk.
        """
        assert self.journal is not None
        report = self.journal.replay()
        attribution: Dict[str, str] = {}
        requeue: List[Job] = []
        n_restored = 0
        for job_id in sorted(report.jobs):
            replayed = report.jobs[job_id]
            match = _JOB_ID.match(job_id)
            if match:
                self._next_job = max(self._next_job, int(match.group(1)) + 1)
            try:
                spec = JobSpec.from_record(replayed.spec)
                decision = AdmissionDecision.from_record(
                    replayed.decision, spec
                )
            except (KeyError, TypeError, ValueError):
                continue  # admit record too mangled to act on
            job = Job(
                job_id, replayed.tenant, spec, replayed.key, decision,
                deadline_at=replayed.deadline_at,
            )
            job.restore_events([
                JobEvent(seq=seq, event=event, data=dict(data))
                for seq, event, data in replayed.events
            ])
            terminal = replayed.terminal
            if terminal is not None:
                event, data = terminal
                if event == "completed":
                    job.state = "done"
                    job.served_from = data.get("served_from")
                    entry = self.store.get(replayed.key)
                    if entry is not None:
                        job.result = entry.get("result")
                    if job.served_from is None and replayed.key:
                        attribution.setdefault(replayed.key, replayed.tenant)
                else:
                    job.state = "failed"
                    job.failure = data.get("failure")
                job.done.set()
            else:
                job.state = "queued"
                requeue.append(job)
            job.on_event = self._journal_event
            self.jobs[job.job_id] = job
            self._job_order.append(job.job_id)
            n_restored += 1
        n_recharged = self.store.rebuild_tenant_bytes(attribution)
        for job in requeue:
            job.emit("recovered", restart=True)
            self.queue.submit_nowait(job.tenant, job, charge=False)
            job.emit("queued", backlog=self.queue.core.backlog(job.tenant))
        if self.journal.should_compact():
            self.journal.compact(report.jobs.values())
        self.recovery = {
            **report.to_record(),
            "n_restored": n_restored,
            "n_requeued": len(requeue),
            "n_recharged": n_recharged,
        }

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def dispatch(
        self, request: Request
    ) -> Union[Response, SSEStream]:
        """Route one request; raises :class:`HttpError` for error paths."""
        path = request.path.rstrip("/") or "/"
        if path in ("/healthz", "/v1/healthz"):
            self._require_method(request, "GET")
            return json_response(200, {"ok": True})
        if path in ("/readyz", "/v1/readyz"):
            self._require_method(request, "GET")
            if self.ready and not self.draining:
                return json_response(200, {"ready": True})
            return json_response(
                503,
                {"ready": False, "draining": self.draining},
                {"Retry-After": "1"},
            )
        if path == "/v1/kinds":
            self._require_method(request, "GET")
            return json_response(200, {"kinds": self._served_kinds()})
        if path == "/v1/stats":
            self._require_method(request, "GET")
            return json_response(200, self.stats())
        if path == "/v1/jobs":
            self._require_method(request, "POST")
            return self._submit(request)
        match = _JOB_PATH.match(path)
        if match:
            self._require_method(request, "GET")
            return json_response(200, self._job(match.group(1)).to_record())
        match = _EVENTS_PATH.match(path)
        if match:
            self._require_method(request, "GET")
            job = self._job(match.group(1))
            after = -1
            last_id = request.header("last-event-id")
            if last_id:
                try:
                    after = int(last_id)
                except ValueError:
                    raise HttpError(400, {
                        "error": "bad_request",
                        "message": f"bad Last-Event-ID {last_id!r}",
                    })
            return SSEStream(job=job, after=after)
        raise HttpError(404, {"error": "not_found", "path": request.path})

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(405, {
                "error": "method_not_allowed",
                "method": request.method,
                "allowed": [method],
            })

    def _served_kinds(self) -> List[str]:
        kinds = task_kinds()
        if not self.config.allow_chaos:
            kinds = [k for k in kinds if not k.startswith("chaos_")]
        return kinds

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, {"error": "not_found", "job_id": job_id})
        return job

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _submit(self, request: Request) -> Response:
        if self.draining:
            self.n_jobs_rejected += 1
            raise HttpError(503, {
                "error": "draining",
                "message": "service is draining for shutdown; "
                           "resubmit to another instance",
            }, headers={"Retry-After": "1"})
        if not self.ready:
            self.n_jobs_rejected += 1
            raise HttpError(503, {
                "error": "not_ready",
                "message": "journal replay in progress",
            }, headers={"Retry-After": "1"})
        tenant = request.header(TENANT_HEADER, DEFAULT_TENANT) or \
            DEFAULT_TENANT
        payload = request.json()
        try:
            spec = validate_job_request(
                payload, allow_chaos=self.config.allow_chaos
            )
            decision = negotiate(spec)
        except SchemaError as exc:
            self.n_jobs_rejected += 1
            raise HttpError(400, exc.to_record())

        self.brownout.tick(len(self.queue))
        try:
            decision, brownout_stage = self.brownout.apply(decision)
        except ShedLoad as exc:
            self.n_jobs_rejected += 1
            raise HttpError(503, {
                "error": "brownout_shed",
                "stage": "shed",
                "retry_after_s": round(exc.retry_after_s, 3),
            }, headers={
                "Retry-After": str(max(1, round(exc.retry_after_s))),
            })

        admitted = decision.spec
        task = CampaignTask(
            kind=admitted.kind, params=admitted.params, seed=admitted.seed
        )
        deadline_at = None
        if admitted.deadline_ms is not None:
            deadline_at = self.wall() + admitted.deadline_ms / 1000.0
        job_id = f"j{self._next_job:08d}"
        self._next_job += 1
        job = Job(job_id, tenant, admitted, task.key, decision,
                  deadline_at=deadline_at)
        job.submitted_at = self.tenants.clock()

        entry = self.store.get(task.key)
        if entry is not None:
            # Content-addressed hit: answered without queue or worker.
            # The admission is journaled all the same -- the 200 reply
            # implies a durable record of what was promised and served.
            self._retain(job)
            self._journal_admit(job)
            job.on_event = self._journal_event
            self._emit_admission(job, brownout_stage)
            job.emit("cache_hit", tier="store")
            job.complete(entry["result"], served_from="cache")
            self.n_jobs_accepted += 1
            self.on_job_finished(job)
            return json_response(200, job.to_record())

        quota = self.tenants.config(tenant).max_result_bytes
        if quota is not None:
            used = self.store.tenant_bytes(tenant)
            if used >= quota:
                # Enforced at admission against bytes already stored, so
                # jobs in flight may overshoot by at most one backlog's
                # worth of results -- documented in docs/SERVICE.md.
                self.n_jobs_rejected += 1
                raise HttpError(429, {
                    "error": "quota_exceeded",
                    "tenant": tenant,
                    "used_bytes": used,
                    "max_result_bytes": quota,
                })

        try:
            self.queue.submit_nowait(tenant, job)
        except RateLimited as exc:
            self.n_jobs_rejected += 1
            raise HttpError(429, {
                "error": "rate_limited",
                "tenant": tenant,
                "retry_after_s": round(exc.retry_after_s, 3),
            })
        except BacklogFull as exc:
            self.n_jobs_rejected += 1
            raise HttpError(429, {
                "error": "backlog_full",
                "tenant": tenant,
                "max_backlog": exc.max_backlog,
            })
        # Journaled only *after* queue acceptance: a 429 must not leave
        # a durable admission behind to resurrect on replay.
        self._retain(job)
        self._journal_admit(job)
        job.on_event = self._journal_event
        self._emit_admission(job, brownout_stage)
        job.emit("queued", backlog=self.queue.core.backlog(tenant))
        self.n_jobs_accepted += 1
        return json_response(202, job.to_record(include_result=False))

    def _emit_admission(self, job: Job, brownout_stage: Optional[str]) -> None:
        job.emit("accepted", tenant=job.tenant, kind=job.spec.kind,
                 key=job.key)
        job.emit("admitted", **job.decision.to_record())
        if brownout_stage is not None:
            job.emit("brownout", stage=brownout_stage,
                     level=self.brownout.level)

    def _retain(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self._job_order.append(job.job_id)
        while len(self._job_order) > self.config.max_jobs_retained:
            stale = self._job_order.popleft()
            dropped = self.jobs.get(stale)
            if dropped is not None and dropped.state in ("done", "failed"):
                del self.jobs[stale]
            else:
                self._job_order.append(stale)  # still active: keep it
                break

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "ready": self.ready,
            "draining": self.draining,
            "jobs": {
                "accepted": self.n_jobs_accepted,
                "rejected": self.n_jobs_rejected,
                "retained": len(self.jobs),
                "completed_per_tenant": dict(
                    sorted(self.completed_per_tenant.items())
                ),
            },
            "queue": self.queue.core.to_record(),
            "store": self.store.to_record(),
            "workers": self.pool.to_record(),
            "tenants": self.tenants.to_record(),
            "brownout": self.brownout.to_record(),
            "journal": (
                self.journal.to_record() if self.journal is not None else None
            ),
            "recovery": self.recovery,
        }
