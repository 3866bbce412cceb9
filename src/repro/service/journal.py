"""Durable append-only job journal: the service's crash-safety log.

Every admission the service answers with a 2xx is a promise; a process
crash must not silently revoke it.  :class:`JobJournal` keeps that
promise on disk:

* **Append-only segmented JSONL** -- records are one line each,
  ``<crc32-hex8> <canonical-json>``, appended to numbered segment files
  (``seg-00000001.jsonl``, ...) under ``<state-dir>/journal/``.  A
  segment rolls over at :attr:`JobJournal.segment_bytes`; nothing is
  ever rewritten in place.
* **Durability classes** -- admission records and terminal job events
  (``completed`` / ``failed``) are fsync'd before the caller proceeds
  (so a 202 response implies a durable admission and a 200 implies a
  durable outcome); intermediate events ride the same ordered stream
  but are only flushed to the OS, and every durable append flushes the
  whole prefix before it.
* **CRC-checked replay** -- :meth:`JobJournal.replay` re-derives the
  complete job table.  A corrupt line (failed CRC, bad JSON) is
  skipped and counted; a corrupt *final* line of the *final* segment is
  a torn tail from the crash itself and is tolerated silently.  Event
  replay keeps only each job's contiguous sequence prefix, so a hole
  punched by mid-file corruption can never fabricate history after the
  hole: the job simply rolls back to its last provably-complete state
  and the service re-admits it (the content-addressed store plus
  single-flight dedupe make the re-run execute-at-most-once).
* **Compaction** -- :meth:`JobJournal.compact` snapshots the live job
  table into a single fresh segment and then unlinks the older ones.
  The snapshot is written and fsync'd *before* anything is deleted and
  replay is idempotent (duplicate admits and duplicate event sequence
  numbers are dropped, first occurrence wins), so a crash at any point
  during compaction replays to the same table.

The journal knows nothing about HTTP, queues, or workers -- it stores
and replays records.  :class:`~repro.service.app.ServiceApp` decides
what to record and how to act on a replayed table.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["JobJournal", "ReplayedJob", "ReplayReport", "encode_record",
           "decode_record"]

#: Events that end a job's stream (mirrors ``jobs.TERMINAL_EVENTS``
#: without importing the asyncio-flavored module from this sync one).
_TERMINAL = ("completed", "failed")

_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".jsonl"


def encode_record(record: Dict[str, Any]) -> bytes:
    """One journal line: ``<crc32 of payload, 8 hex chars> <json>\\n``."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + payload + b"\n"


def decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse one journal line; ``None`` if torn, corrupt, or malformed."""
    line = line.rstrip(b"\n")
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class ReplayedJob:
    """One job as re-derived from the journal."""

    job_id: str
    tenant: str
    spec: Dict[str, Any]
    key: str
    decision: Dict[str, Any]
    deadline_at: Optional[float] = None
    #: Contiguous event prefix ``[(seq, event, data), ...]`` from seq 0.
    events: List[Tuple[int, str, Dict[str, Any]]] = field(
        default_factory=list
    )

    @property
    def terminal(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """``(event, data)`` of the terminal event, if one survived."""
        for seq, event, data in self.events:
            if event in _TERMINAL:
                return event, data
        return None


@dataclass
class ReplayReport:
    """The outcome of one journal replay."""

    jobs: Dict[str, ReplayedJob] = field(default_factory=dict)
    n_segments: int = 0
    n_records: int = 0
    n_corrupt: int = 0      # CRC/JSON-bad lines skipped mid-stream
    n_torn: int = 0         # bad final line of the final segment
    n_duplicate: int = 0    # idempotent re-application (compaction overlap)
    n_orphan_events: int = 0  # events whose admit record did not survive
    n_dropped_events: int = 0  # events past a per-job sequence hole
    elapsed_s: float = 0.0

    def to_record(self) -> Dict[str, Any]:
        return {
            "jobs": len(self.jobs),
            "n_segments": self.n_segments,
            "n_records": self.n_records,
            "n_corrupt": self.n_corrupt,
            "n_torn": self.n_torn,
            "n_duplicate": self.n_duplicate,
            "n_orphan_events": self.n_orphan_events,
            "n_dropped_events": self.n_dropped_events,
            "replay_ms": round(self.elapsed_s * 1e3, 2),
        }


class JobJournal:
    """Segmented, CRC-checked, fsync'd journal of job admissions/events.

    Args:
        directory: Journal directory (created if missing); segments are
            ``seg-<n>.jsonl`` files inside it.
        segment_bytes: Roll to a new segment once the current one
            exceeds this size.
        fsync: Whether durable appends call ``os.fsync``.  Leave on in
            production; tests and benchmarks may disable it (records
            still reach the OS immediately -- the file is unbuffered --
            so a *process* kill loses nothing either way, only a power
            cut could).
        compact_segments: :meth:`should_compact` answers ``True`` past
            this many segments.

    The journal counts its segments in memory (set by the opening
    scan, then kept by segment roll-over and compaction), so the
    per-job :meth:`should_compact` check touches no directory.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_bytes: int = 4 << 20,
        fsync: bool = True,
        compact_segments: int = 8,
    ) -> None:
        if segment_bytes < 1024:
            raise ValueError(
                f"segment_bytes must be >= 1024, got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.compact_segments = compact_segments
        self._fh = None
        self._segment_path: Optional[Path] = None
        self._segment_size = 0
        self._next_segment = self._scan_next_segment()
        self._n_segments = len(self.segments())
        self.n_appends = 0
        self.n_fsyncs = 0
        self.n_compactions = 0

    # -- segment bookkeeping -------------------------------------------

    def segments(self) -> List[Path]:
        """Existing segment files, oldest first."""
        return sorted(
            p for p in self.directory.glob(f"{_SEG_PREFIX}*{_SEG_SUFFIX}")
            if p.name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)].isdigit()
        )

    def _scan_next_segment(self) -> int:
        existing = self.segments()
        if not existing:
            return 1
        last = existing[-1].name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)]
        return int(last) + 1

    def _segment_name(self, index: int) -> Path:
        return self.directory / f"{_SEG_PREFIX}{index:08d}{_SEG_SUFFIX}"

    def _open_segment(self) -> None:
        path = self._segment_name(self._next_segment)
        self._next_segment += 1
        # Unbuffered append: every write is one syscall, so even
        # non-durable records survive a SIGKILL (they sit in the OS
        # page cache, not in a userspace buffer).
        self._fh = open(path, "ab", buffering=0)
        self._n_segments += 1
        self._segment_path = path
        self._segment_size = path.stat().st_size

    # -- appending -----------------------------------------------------

    def append(self, record: Dict[str, Any], durable: bool = False) -> None:
        """Append one record; with ``durable``, fsync before returning."""
        if self._fh is None or self._segment_size >= self.segment_bytes:
            if self._fh is not None:
                self._sync()
                self._fh.close()
            self._open_segment()
        line = encode_record(record)
        self._fh.write(line)
        self._segment_size += len(line)
        self.n_appends += 1
        if durable:
            self._sync()

    def _sync(self) -> None:
        if self.fsync and self._fh is not None:
            os.fsync(self._fh.fileno())
            self.n_fsyncs += 1

    def log_admit(
        self,
        job_id: str,
        tenant: str,
        spec: Dict[str, Any],
        key: str,
        decision: Dict[str, Any],
        deadline_at: Optional[float] = None,
    ) -> None:
        """Durably record one accepted admission (before it is answered)."""
        self.append({
            "t": "admit",
            "job": job_id,
            "tenant": tenant,
            "spec": spec,
            "key": key,
            "decision": decision,
            "deadline_at": deadline_at,
        }, durable=True)

    def log_event(
        self, job_id: str, seq: int, event: str, data: Dict[str, Any]
    ) -> None:
        """Record one job event; terminal events are durable."""
        self.append({
            "t": "event",
            "job": job_id,
            "seq": seq,
            "event": event,
            "data": data,
        }, durable=event in _TERMINAL)

    # -- replay --------------------------------------------------------

    def replay(self) -> ReplayReport:
        """Re-derive the job table from every segment on disk."""
        start = time.perf_counter()
        report = ReplayReport()
        seen_seqs: Dict[str, set] = {}
        segments = self.segments()
        report.n_segments = len(segments)
        for seg_index, path in enumerate(segments):
            last_segment = seg_index == len(segments) - 1
            lines = path.read_bytes().split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            for line_index, line in enumerate(lines):
                record = decode_record(line)
                if record is None:
                    if last_segment and line_index == len(lines) - 1:
                        report.n_torn += 1  # torn tail: the crash itself
                    else:
                        report.n_corrupt += 1
                    continue
                report.n_records += 1
                self._apply(record, report, seen_seqs)
        for job in report.jobs.values():
            report.n_dropped_events += self._trim_events(job)
        report.elapsed_s = time.perf_counter() - start
        return report

    @staticmethod
    def _apply(
        record: Dict[str, Any],
        report: ReplayReport,
        seen_seqs: Dict[str, set],
    ) -> None:
        kind = record.get("t")
        if kind == "admit":
            job_id = record.get("job")
            if not isinstance(job_id, str):
                report.n_corrupt += 1
                return
            if job_id in report.jobs:
                report.n_duplicate += 1  # compaction overlap: first wins
                return
            report.jobs[job_id] = ReplayedJob(
                job_id=job_id,
                tenant=record.get("tenant", "public"),
                spec=record.get("spec", {}),
                key=record.get("key", ""),
                decision=record.get("decision", {}),
                deadline_at=record.get("deadline_at"),
            )
            seen_seqs[job_id] = set()
        elif kind == "event":
            job_id = record.get("job")
            job = report.jobs.get(job_id) if isinstance(job_id, str) else None
            if job is None:
                report.n_orphan_events += 1
                return
            seq = record.get("seq")
            if not isinstance(seq, int) or seq < 0:
                report.n_corrupt += 1
                return
            if seq in seen_seqs[job_id]:
                report.n_duplicate += 1
                return
            seen_seqs[job_id].add(seq)
            job.events.append(
                (seq, record.get("event", ""), record.get("data", {}))
            )
        else:
            report.n_corrupt += 1

    @staticmethod
    def _trim_events(job: ReplayedJob) -> int:
        """Keep only the contiguous event prefix from seq 0; count drops."""
        job.events.sort(key=lambda entry: entry[0])
        keep: List[Tuple[int, str, Dict[str, Any]]] = []
        for expected, entry in enumerate(job.events):
            if entry[0] != expected:
                break
            keep.append(entry)
        dropped = len(job.events) - len(keep)
        job.events = keep
        return dropped

    # -- compaction ----------------------------------------------------

    def should_compact(self) -> bool:
        return self._n_segments > self.compact_segments

    def compact(self, jobs: Iterable[ReplayedJob]) -> int:
        """Snapshot ``jobs`` into one fresh segment; drop older segments.

        Crash-safe: the snapshot is fully written and fsync'd under a
        temporary name, renamed into place (so replay never sees a
        partial snapshot as authoritative -- a torn snapshot line is
        just a torn line), and only then are the pre-snapshot segments
        unlinked.  A crash in between leaves snapshot + old segments,
        which replay reconciles idempotently.

        Returns the number of segments removed.
        """
        old_segments = self.segments()
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None
            self._segment_path = None
        snapshot = self._segment_name(self._next_segment)
        self._next_segment += 1
        tmp = snapshot.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            for job in jobs:
                fh.write(encode_record({
                    "t": "admit",
                    "job": job.job_id,
                    "tenant": job.tenant,
                    "spec": job.spec,
                    "key": job.key,
                    "decision": job.decision,
                    "deadline_at": job.deadline_at,
                }))
                for seq, event, data in job.events:
                    fh.write(encode_record({
                        "t": "event",
                        "job": job.job_id,
                        "seq": seq,
                        "event": event,
                        "data": data,
                    }))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
                self.n_fsyncs += 1
        os.replace(tmp, snapshot)
        self._n_segments += 1
        removed = 0
        for path in old_segments:
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
            self._n_segments -= 1  # gone either way
        self.n_compactions += 1
        return removed

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None
            self._segment_path = None

    def abandon(self) -> None:
        """Drop the handle without syncing (test hook simulating kill -9)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._segment_path = None

    def to_record(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "segments": self._n_segments,
            "segment_bytes": self.segment_bytes,
            "fsync": self.fsync,
            "n_appends": self.n_appends,
            "n_fsyncs": self.n_fsyncs,
            "n_compactions": self.n_compactions,
        }
