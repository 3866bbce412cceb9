"""Inputs and measurement helpers shared by every layerbench process.

Everything here is deterministic given the run seed and independent of
the program under test: the job catalogue, the cold job stream, the hot
set with its Zipf schedule, the percentile rule, and the host facts
recorded next to each run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Tenants of the served deployment, as ``(name, weight)``; requests
#: rotate round-robin over them.
TENANTS: Tuple[Tuple[str, float], ...] = (
    ("t0", 1.0), ("t1", 2.0), ("t2", 4.0), ("t3", 8.0),
)

#: Served job catalogue: ``(params, budget_met, budget_missed)``.  Widths
#: 8-12, homogeneous GeAr plus heterogeneous segment layouts.  The two
#: QoS budgets sit 1.5x above and below the configuration's exact error
#: rate, so the admission decision is ``approximate`` for the first and
#: ``exact_fallback`` for the second, far from either threshold.
CATALOGUE: Tuple[Tuple[Dict[str, Any], float, float], ...] = (
    ({"n": 8, "r": 2, "p": 2}, 0.2813, 0.125),
    ({"n": 8, "r": 1, "p": 3}, 0.1875, 0.0833),
    ({"n": 9, "r": 3, "p": 3}, 0.0821, 0.0364),
    ({"n": 9, "r": 2, "p": 3}, 0.1407, 0.0625),
    ({"n": 10, "r": 2, "p": 4}, 0.0704, 0.0312),
    ({"n": 10, "r": 1, "p": 0}, 1.0, 0.6166),
    ({"n": 11, "r": 3, "p": 2}, 0.3179, 0.1412),
    ({"n": 11, "r": 1, "p": 2}, 0.6636, 0.2949),
    ({"n": 12, "r": 4, "p": 4}, 0.044, 0.0195),
    ({"n": 12, "r": 1, "p": 0}, 1.0, 0.6385),
    ({"segments": [[4, 0], [4, 2]]}, 0.1407, 0.0625),
    ({"segments": [[2, 0], [3, 2], [3, 2]]}, 0.1641, 0.0729),
    ({"segments": [[3, 0], [3, 2], [4, 3]]}, 0.1641, 0.0729),
    ({"segments": [[5, 0], [5, 4]]}, 0.0235, 0.0104),
    ({"segments": [[4, 0], [3, 3], [3, 3]]}, 0.129, 0.0572),
    ({"segments": [[3, 0], [3, 1], [3, 2], [3, 3]]}, 0.4615, 0.205),
)

#: Request variants per configuration: half declare no QoS, a quarter a
#: budget the configuration meets, a quarter one it misses.
VARIANTS = ("plain", "plain", "qos_met", "qos_missed")

#: Zipf exponent and schedule length of the hot workload.
ZIPF_S = 1.0
ZIPF_LENGTH = 4096

#: Seed-field offsets keeping probe, hot-set and cold job keys disjoint.
_COLD_BASE = 0
_HOT_BASE = 1 << 31
_PROBE_BASE = (1 << 31) + (1 << 30)


def catalogue_entries() -> List[Tuple[int, str]]:
    """One cycle of the catalogue: every configuration in every variant."""
    return [
        (index, variant)
        for index in range(len(CATALOGUE))
        for variant in VARIANTS
    ]


def job_payload(entry: Tuple[int, str], seed_field: int) -> Dict[str, Any]:
    """``POST /v1/jobs`` body for one catalogue entry."""
    index, variant = entry
    params, met, missed = CATALOGUE[index]
    payload: Dict[str, Any] = {
        "kind": "analytic",
        "params": json.loads(json.dumps(params)),
        "seed": seed_field,
    }
    if variant == "qos_met":
        payload["qos"] = {"error_budget": met, "metric": "error_rate"}
    elif variant == "qos_missed":
        payload["qos"] = {"error_budget": missed, "metric": "error_rate"}
    return payload


def _seed_prefix(seed: int) -> int:
    return (seed % (1 << 30)) << 32


@functools.lru_cache(maxsize=4)
def _cold_cycle(seed: int, cycle: int) -> Tuple[Tuple[int, str], ...]:
    entries = catalogue_entries()
    random.Random(f"cold:{seed}:{cycle}").shuffle(entries)
    return tuple(entries)


def cold_entry(seed: int, index: int) -> Tuple[int, str]:
    """Catalogue entry of the ``index``-th cold job of a run.

    Jobs come in whole cycles; each cycle is a seed-dependent shuffle of
    the full catalogue, so the multiset of job costs never depends on
    the seed.
    """
    cycle, offset = divmod(index, len(VARIANTS) * len(CATALOGUE))
    return _cold_cycle(seed, cycle)[offset]


def cold_payload(seed: int, index: int) -> Dict[str, Any]:
    """The ``index``-th cold job; its ``seed`` field makes its key unique."""
    return job_payload(cold_entry(seed, index), _seed_prefix(seed) + _COLD_BASE
                       + index)


def hot_entries() -> List[Tuple[int, str]]:
    """Catalogue entries of the hot set, rank 0 first.

    The assignment is fixed (it does not depend on the run seed).  Ranks
    are dealt, most popular first, to whichever variant lags furthest
    behind its share of the catalogue, so half of the Zipf-weighted
    requests declare no QoS and the two QoS variants a quarter each.
    """
    entries = catalogue_entries()
    random.Random("hot-ranks").shuffle(entries)
    pools: Dict[str, List[Tuple[int, str]]] = {}
    for entry in entries:
        pools.setdefault(entry[1], []).append(entry)
    share = {variant: VARIANTS.count(variant) / len(VARIANTS)
             for variant in pools}
    dealt = {variant: 0 for variant in pools}
    counts = zipf_counts(len(entries), ZIPF_LENGTH)
    ranked: List[Tuple[int, str]] = []
    for rank, count in enumerate(counts):
        total = sum(dealt.values()) + count
        variant = max((v for v in sorted(pools) if pools[v]),
                      key=lambda v: share[v] * total - dealt[v])
        ranked.append(pools[variant].pop(0))
        dealt[variant] += count
    return ranked


def hot_payloads(seed: int) -> List[Dict[str, Any]]:
    """The hot set, rank 0 first; only the ``seed`` fields vary by seed."""
    prefix = _seed_prefix(seed) + _HOT_BASE
    return [job_payload(entry, prefix + rank)
            for rank, entry in enumerate(hot_entries())]


def probe_payload(seed: int, index: int) -> Dict[str, Any]:
    """A cold job outside the catalogue streams, used to prove readiness."""
    return job_payload((0, "plain"), _seed_prefix(seed) + _PROBE_BASE + index)


def zipf_counts(n_ranks: int, length: int, s: float = ZIPF_S) -> List[int]:
    """Occurrences of each rank in a Zipf schedule of ``length`` draws.

    Largest-remainder rounding of ``length * p(rank)``: the counts sum to
    ``length`` exactly and are the same for every seed.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(n_ranks)]
    total = sum(weights)
    exact = [length * w / total for w in weights]
    counts = [int(math.floor(x)) for x in exact]
    short = length - sum(counts)
    by_remainder = sorted(range(n_ranks), key=lambda r: (counts[r] - exact[r], r))
    for rank in by_remainder[:short]:
        counts[rank] += 1
    return counts


def zipf_schedule(seed: int, n_ranks: int,
                  length: int = ZIPF_LENGTH) -> List[int]:
    """Seeded order of a fixed Zipf multiset of ranks."""
    schedule = [rank for rank, count in
                enumerate(zipf_counts(n_ranks, length)) for _ in range(count)]
    random.Random(f"zipf:{seed}").shuffle(schedule)
    return schedule


def tenant_of(index: int) -> str:
    return TENANTS[index % len(TENANTS)][0]


def canonical(obj: Any) -> str:
    """Canonical JSON used for every result comparison."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def n_beyond(n: int, q: float) -> int:
    """Samples strictly after the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def latency_summary(samples_s: Sequence[float]) -> Dict[str, Any]:
    """Median and p99 in milliseconds, with the sample count.

    p99 is ``None`` unless at least ten samples lie beyond it.
    """
    values = sorted(samples_s)
    summary: Dict[str, Any] = {"n": len(values), "p50_ms": None,
                               "p99_ms": None}
    if values:
        summary["p50_ms"] = nearest_rank(values, 50) * 1e3
        if n_beyond(len(values), 99) >= 10:
            summary["p99_ms"] = nearest_rank(values, 99) * 1e3
    return summary


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ----------------------------------------------------------------------
# host and process facts
# ----------------------------------------------------------------------

def host_probe_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop (recorded, never applied)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return median(samples)


def cpu_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's vCPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def cpu_count() -> Dict[str, int]:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count() or 0}


def mount_type(path: str | os.PathLike) -> str:
    """Filesystem type of the mount holding ``path``."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1].replace("\\040", " ")
                inside = target == point or target.startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) >= len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return fstype


def source_identity(root: Path) -> Dict[str, Optional[str]]:
    """Git commit when the tree is a checkout, and a digest of ``src/``."""
    commit = None
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            else:
                packed = root / ".git" / "packed-refs"
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of one live process (0 when gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (all of its threads)."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                children.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return children


def tree_cpu_s() -> float:
    """CPU seconds of this process, its reaped children and live children."""
    times = os.times()
    total = times.user + times.system + times.children_user + \
        times.children_system
    return total + sum(process_cpu_s(child) for child in child_pids(os.getpid()))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")
