"""In-memory span recording around the program's public functions.

The benchmark never edits the program.  A traced run replaces module or
class attributes the program calls through (``repro.service.app.negotiate``,
``repro.service.journal.JobJournal.append``, ...) with wrappers that
record one span per call: name, start, end, parent span and the job id
or task key it belongs to.  Parents flow through a context variable, so
they follow asyncio tasks and ``asyncio.to_thread`` hops.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.

A target whose attribute no longer exists is reported as absent instead
of failing the run, so the benchmark keeps working while the program's
internals move.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``path`` is ``"module:attr"`` or ``"module:Class.method"``.  ``key``
    extracts the job id or task key from the call's arguments; ``after``
    turns the return value into a note kept with the span.  ``active``
    (coroutines only) records the time the coroutine spent running,
    excluding the time it was suspended.
    """

    layer: str
    name: str
    path: str
    key: Optional[Callable[..., Optional[str]]] = None
    after: Optional[Callable[[Any], Optional[str]]] = None
    active: bool = False


class Tracer:
    """Span store plus the wrapper factory."""

    def __init__(self) -> None:
        # (id, parent, name, start, end, key, active_s, note)
        self.spans: List[Tuple[int, int, str, float, float, Optional[str],
                               float, Any]] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "layerbench_span", default=(0, ""))
        self._installed: List[Tuple[Any, str, Any]] = []
        self.absent: Dict[str, List[str]] = defaultdict(list)

    # -- recording ----------------------------------------------------

    def _wrap_sync(self, fn: Callable, target: Target) -> Callable:
        name, key_of, after = target.name, target.key, target.after
        spans, current, ids = self.spans, self._current, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = current.get()[0]
            token = current.set((span_id, name))
            key = key_of(*args, **kwargs) if key_of else None
            start = _clock()
            note = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    note = after(result)
                return result
            finally:
                end = _clock()
                current.reset(token)
                spans.append((span_id, parent, name, start, end, key,
                               end - start, note))

        return wrapper

    def _wrap_async(self, fn: Callable, target: Target) -> Callable:
        name, key_of, after = target.name, target.key, target.after
        spans, current, ids = self.spans, self._current, self._ids
        measure_active = target.active

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.recording:
                return await fn(*args, **kwargs)
            span_id = next(ids)
            parent = current.get()[0]
            token = current.set((span_id, name))
            key = key_of(*args, **kwargs) if key_of else None
            timer = _ActiveTime(fn(*args, **kwargs)) if measure_active \
                else None
            start = _clock()
            note = None
            try:
                if timer is not None:
                    result = await timer
                else:
                    result = await fn(*args, **kwargs)
                if after is not None:
                    note = after(result)
                return result
            finally:
                end = _clock()
                current.reset(token)
                active = timer.active if timer is not None else end - start
                spans.append((span_id, parent, name, start, end, key,
                              active, note))

        return wrapper

    # -- installation -------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target that resolves; record the rest as absent."""
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent[target.layer].append(target.path)
                continue
            if isinstance(original, (staticmethod, classmethod)):
                self.absent[target.layer].append(target.path)
                continue
            if inspect.iscoroutinefunction(original):
                wrapped = self._wrap_async(original, target)
            elif callable(original):
                wrapped = self._wrap_sync(original, target)
            else:
                self.absent[target.layer].append(target.path)
                continue
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> None:
        """Write absent layers, then spans (one JSON array per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": dict(self.absent)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _ActiveTime:
    """Awaitable that drives a coroutine and sums its running time."""

    def __init__(self, coro) -> None:
        self.coro = coro
        self.active = 0.0

    def __await__(self):
        coro = self.coro
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            start = _clock()
            try:
                if error is None:
                    step = coro.send(value)
                else:
                    step = coro.throw(error)
            except StopIteration as stop:
                self.active += _clock() - start
                return stop.value
            except BaseException:
                self.active += _clock() - start
                raise
            self.active += _clock() - start
            try:
                value, error = (yield step), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded inward
                value, error = None, exc


def load(path: str) -> Tuple[Dict[str, Any], List[tuple]]:
    """Read a :meth:`Tracer.dump` file back."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return header, spans


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _name, start, end, *_ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        span[0]: (span[4] - span[3]) - covered(span[3], span[4],
                                               children.get(span[0], ()))
        for span in spans
    }


def span_table(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total, self and median duration, active time."""
    selfs = self_times(spans)
    durations: Dict[str, List[float]] = defaultdict(list)
    rows: Dict[str, Dict[str, float]] = {}
    for span in spans:
        span_id, _parent, name, start, end, _key, active, _note = span
        row = rows.setdefault(name, {"count": 0, "total_ms": 0.0,
                                     "self_ms": 0.0, "active_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (end - start) * 1e3
        row["self_ms"] += selfs[span_id] * 1e3
        row["active_ms"] += active * 1e3
        durations[name].append(end - start)
    for name, row in rows.items():
        values = sorted(durations[name])
        mid = len(values) // 2
        row["median_ms"] = (values[mid] if len(values) % 2
                            else 0.5 * (values[mid - 1] + values[mid])) * 1e3
    return dict(sorted(rows.items()))
