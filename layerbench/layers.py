"""Which program functions each layer is measured at, and the per-layer metrics.

Targets are public functions (or public methods) of the program, named
by the attribute the program calls them through.  The metric
derivations turn a traced window's spans and the program's own
statistics into the per-layer metrics declared in ``BENCHMARK.json``.
Every metric is reported for every workload; a layer a workload does not
reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence

from spans import Target, self_times
from workload import latency_summary

#: Per-layer metrics, in report order: ``(name, unit)``.
PER_LAYER = (
    ("runner.dispatch_ms_per_task", "ms"),
    ("runner.processes_per_task", "count"),
    ("runner.utilization", "ratio"),
    ("runner.retries", "count"),
    ("runner.quarantined", "count"),
    ("registry.kernel_ms.gear_dse_row", "ms"),
    ("registry.kernel_ms.multiplier", "ms"),
    ("registry.kernel_ms.ripple_adder", "ms"),
    ("registry.kernel_ms.sad_quality", "ms"),
    ("registry.kernel_ms.filter_ssim", "ms"),
    ("registry.kernel_ms.analytic", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("client.connect_ms", "ms"),
    ("client.post_ms", "ms"),
    ("client.follow_ms", "ms"),
    ("http.parse_ms", "ms"),
    ("http.requests_per_op", "count"),
    ("app.dispatch_ms", "ms"),
    ("schemas.validate_ms", "ms"),
    ("admission.negotiate_ms", "ms"),
    ("admission.predict_ms", "ms"),
    ("admission.predicts_per_op", "count"),
    ("admission.redundant_predict_share", "ratio"),
    ("queue.wait_ms", "ms"),
    ("workers.handoff_ms", "ms"),
    ("warmpool.execute_ms", "ms"),
    ("warmpool.ipc_ms", "ms"),
    ("warmpool.recycled", "count"),
    ("store.get_ms", "ms"),
    ("store.memory_hit_ratio", "ratio"),
    ("store.put_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.appends_per_op", "count"),
    ("journal.fsyncs_per_op", "count"),
    ("journal.bytes_per_op", "B"),
    ("journal.should_compact_ms", "ms"),
    ("journal.compactions", "count"),
    ("journal.compact_ms", "ms"),
    ("jobs.events_per_op", "count"),
    ("jobs.emit_ms", "ms"),
    ("jobs.sse_format_ms", "ms"),
    ("loop.lag_p99_ms", "ms"),
    ("process.cpu_ms_per_op", "ms"),
    ("process.import_s", "s"),
    ("process.tracing_overhead_share", "ratio"),
)

SWEEP_KINDS = ("gear_dse_row", "multiplier", "ripple_adder", "sad_quality",
               "filter_ssim")


def _job_id(item: Any) -> Optional[str]:
    return getattr(item, "job_id", None)


def _job_of_entry(entry: Any) -> Any:
    try:
        job = entry[1]
    except (TypeError, IndexError):
        return None
    return [getattr(job, "job_id", None), getattr(job, "key", None)]


SWEEP_TARGETS = (
    Target("runner", "runner.run_campaign",
           "repro.campaign.runner:run_campaign"),
    Target("cache", "cache.get", "repro.campaign.cache:ResultCache.get",
           key=lambda self, key, *a, **k: key),
    Target("cache", "cache.put", "repro.campaign.cache:ResultCache.put",
           key=lambda self, key, *a, **k: key),
    Target("process", "process.start",
           "multiprocessing.process:BaseProcess.start"),
)

SERVE_TARGETS = (
    Target("http", "http.read_request", "repro.service.http:read_request",
           after=lambda request: request is not None, active=True),
    Target("app", "app.dispatch", "repro.service.app:ServiceApp.dispatch",
           after=lambda outcome: getattr(outcome, "status", None)),
    Target("schemas", "schemas.validate_job_request",
           "repro.service.app:validate_job_request"),
    Target("admission", "admission.negotiate", "repro.service.app:negotiate"),
    Target("admission", "admission.predict",
           "repro.service.admission:predict_error_statistics"),
    Target("queue", "queue.submit_nowait",
           "repro.service.queue:AsyncFairQueue.submit_nowait",
           key=lambda self, tenant, item, *a, **k: _job_id(item)),
    Target("queue", "queue.get", "repro.service.queue:AsyncFairQueue.get",
           after=_job_of_entry),
    Target("warmpool", "warmpool.execute",
           "repro.campaign.warmpool:WarmPool.execute",
           key=lambda self, task, *a, **k: getattr(task, "key", None)),
    Target("store", "store.get", "repro.service.store:SharedResultStore.get",
           key=lambda self, key, *a, **k: key),
    Target("store", "store.put", "repro.service.store:SharedResultStore.put",
           key=lambda self, key, *a, **k: key),
    Target("cache", "cache.get", "repro.campaign.cache:ResultCache.get",
           key=lambda self, key, *a, **k: key),
    Target("cache", "cache.put", "repro.campaign.cache:ResultCache.put",
           key=lambda self, key, *a, **k: key),
    Target("journal", "journal.append",
           "repro.service.journal:JobJournal.append",
           key=lambda self, record, *a, **k: record.get("job")),
    Target("journal", "journal.encode_record",
           "repro.service.journal:encode_record", after=len),
    Target("journal", "journal.should_compact",
           "repro.service.journal:JobJournal.should_compact"),
    Target("journal", "journal.compact",
           "repro.service.journal:JobJournal.compact"),
    Target("jobs", "jobs.emit", "repro.service.jobs:Job.emit",
           key=lambda self, *a, **k: self.job_id),
    Target("jobs", "jobs.sse_format_event", "repro.service.sse:format_event"),
)


def stat_delta(before: Dict[str, Any], after: Dict[str, Any],
               *path: str) -> Optional[float]:
    """Change of one ``/v1/stats`` counter; ``None`` if it is not reported."""
    for part in path:
        before = (before or {}).get(part)
        after = (after or {}).get(part)
    if isinstance(before, (int, float)) and isinstance(after, (int, float)):
        return float(after - before)
    return None


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def _self_by_name(spans: Sequence[tuple]) -> Dict[str, float]:
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[2]] += selfs[span[0]]
    return totals


def _count_by_name(spans: Iterable[tuple]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[2]] += 1
    return counts


def sweep_metrics(campaigns: List[Dict[str, Any]], spans: Sequence[tuple],
                  cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced sweep window.

    ``campaigns`` holds one ``{"kind", "stats"}`` record per campaign
    call, ``stats`` being the program's ``CampaignStats`` fields.
    """
    metrics = zero_metrics()
    tasks = sum(c["stats"]["n_tasks"] for c in campaigns)
    if not tasks:
        return metrics
    budget = sum(c["stats"]["wall_s"] * c["stats"]["n_workers"]
                 for c in campaigns)
    in_task = sum(c["stats"]["task_s"] for c in campaigns)
    metrics["runner.dispatch_ms_per_task"] = (budget - in_task) / tasks * 1e3
    metrics["runner.utilization"] = in_task / budget if budget else 0.0
    metrics["runner.retries"] = sum(c["stats"]["n_retries"] for c in campaigns)
    metrics["runner.quarantined"] = sum(c["stats"]["n_quarantined"]
                                        for c in campaigns)
    for kind in SWEEP_KINDS:
        mine = [c["stats"] for c in campaigns if c["kind"] == kind]
        executed = sum(s["n_executed"] for s in mine)
        if executed:
            metrics[f"registry.kernel_ms.{kind}"] = (
                sum(s["task_s"] for s in mine) / executed * 1e3)
    counts = _count_by_name(spans)
    selfs = _self_by_name(spans)
    metrics["runner.processes_per_task"] = counts["process.start"] / tasks
    metrics["cache.get_ms"] = selfs["cache.get"] / tasks * 1e3
    metrics["cache.put_ms"] = selfs["cache.put"] / tasks * 1e3
    metrics["process.cpu_ms_per_op"] = cpu_s / tasks * 1e3
    return metrics


def serve_metrics(
    ops: int,
    spans: Sequence[tuple],
    stats_before: Dict[str, Any],
    stats_after: Dict[str, Any],
    cpu_s: float,
    lags_s: Sequence[float],
    client: Dict[str, float],
    kernel_s: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of a traced serve window of ``ops`` operations.

    ``stats_*`` are the service's ``/v1/stats`` documents at the window
    edges, ``client`` the load generator's summed phase times in
    seconds, ``kernel_s`` the direct-call time of each executed task key.
    """
    metrics = zero_metrics()
    if not ops:
        return metrics
    per_op = 1.0 / ops
    counts = _count_by_name(spans)
    selfs = _self_by_name(spans)
    by_id = {span[0]: span for span in spans}

    def ms(name: str) -> float:
        return selfs[name] * per_op * 1e3

    for phase in ("connect", "post", "follow"):
        metrics[f"client.{phase}_ms"] = client.get(phase, 0.0) * per_op * 1e3
    metrics["http.parse_ms"] = sum(
        span[6] for span in spans if span[2] == "http.read_request"
    ) * per_op * 1e3
    metrics["http.requests_per_op"] = sum(
        1 for span in spans if span[2] == "http.read_request" and span[7]
    ) * per_op
    metrics["app.dispatch_ms"] = ms("app.dispatch")
    metrics["schemas.validate_ms"] = ms("schemas.validate_job_request")
    metrics["admission.negotiate_ms"] = ms("admission.negotiate")
    metrics["admission.predict_ms"] = ms("admission.predict")
    metrics["admission.predicts_per_op"] = counts["admission.predict"] * per_op
    redundant = 0
    for span in spans:
        if span[2] != "admission.predict":
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[2] != "app.dispatch":
            parent = by_id.get(parent[1])
        if parent is not None and parent[7] == 200:
            redundant += 1
    if counts["admission.predict"]:
        metrics["admission.redundant_predict_share"] = (
            redundant / counts["admission.predict"])

    submitted = {span[5]: span[3] for span in spans
                 if span[2] == "queue.submit_nowait" and span[5]}
    popped = {}
    for span in spans:
        if span[2] == "queue.get" and span[7] and span[7][0] in submitted:
            job_id, key = span[7]
            popped[key] = span[4]
            metrics["queue.wait_ms"] += (span[4] - submitted[job_id]) * 1e3
    metrics["queue.wait_ms"] *= per_op
    execute_ms = ipc_ms = 0.0
    for span in spans:
        if span[2] != "warmpool.execute":
            continue
        duration = span[4] - span[3]
        execute_ms += duration * 1e3
        if span[5] in popped:
            metrics["workers.handoff_ms"] += (span[3] - popped[span[5]]) * 1e3
        if span[5] in kernel_s:
            ipc_ms += (duration - kernel_s[span[5]]) * 1e3
    metrics["workers.handoff_ms"] *= per_op
    metrics["warmpool.execute_ms"] = execute_ms * per_op
    metrics["warmpool.ipc_ms"] = ipc_ms * per_op
    if kernel_s:
        metrics["registry.kernel_ms.analytic"] = (
            sum(kernel_s.values()) / len(kernel_s) * 1e3)

    metrics["store.get_ms"] = ms("store.get")
    metrics["store.put_ms"] = ms("store.put")
    metrics["cache.get_ms"] = ms("cache.get")
    metrics["cache.put_ms"] = ms("cache.put")
    metrics["journal.append_ms"] = ms("journal.append")
    metrics["journal.should_compact_ms"] = ms("journal.should_compact")
    metrics["journal.compact_ms"] = ms("journal.compact")
    metrics["journal.bytes_per_op"] = sum(
        span[7] for span in spans
        if span[2] == "journal.encode_record"
        and by_id.get(span[1], (None, None, ""))[2] == "journal.append"
    ) * per_op
    metrics["jobs.events_per_op"] = counts["jobs.emit"] * per_op
    metrics["jobs.emit_ms"] = ms("jobs.emit")
    metrics["jobs.sse_format_ms"] = ms("jobs.sse_format_event")

    def delta(*path: str) -> float:
        return stat_delta(stats_before, stats_after, *path) or 0.0

    metrics["warmpool.recycled"] = delta("workers", "warm", "n_recycled")
    lookups = sum(delta("store", name) for name in
                  ("n_memory_hits", "n_disk_hits", "n_misses"))
    if lookups:
        metrics["store.memory_hit_ratio"] = (
            delta("store", "n_memory_hits") / lookups)
    metrics["journal.appends_per_op"] = delta("journal", "n_appends") * per_op
    metrics["journal.fsyncs_per_op"] = delta("journal", "n_fsyncs") * per_op
    metrics["journal.compactions"] = delta("journal", "n_compactions")
    lag = latency_summary(lags_s)
    metrics["loop.lag_p99_ms"] = lag["p99_ms"] or 0.0
    metrics["process.cpu_ms_per_op"] = cpu_s * per_op * 1e3
    return metrics
