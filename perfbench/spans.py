"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer from the outside — only
while a traced batch runs, and never in the untraced end-to-end run —
and records one span per call: name, start, end, parent span and batch
id.  Calls that repeat back to back under one parent (the graph-mirror
loop) are coalesced into one span with a call count.  Garbage-collector
pauses are recorded as ``gc.collect`` spans under whatever span they
interrupted, so they are charged to no layer's self time.

The program's own :class:`repro.obs.tracing.Tracer` is not reused.  It
builds one ``Span`` object per call (about 2.9 µs, against 0.8 µs here
for a coalesced call, on a 2-vCPU virtual machine), and its open-span
stack is private, so repeated calls cannot be folded into one span.  A
bulk batch makes 8192 graph-mirror calls: about 24 ms of bookkeeping
and 8192 objects for the collector per traced write, against about
6 ms and one span here.  Installing it as the active tracer would also
switch on the program's finer spans (per-level cascade spans,
``service.batch``), which would change the attribution this benchmark
reports.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.plds_flat import PLDSFlat
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.streams import UpdateJournal
from repro.parallel.pool import PoolBackend
from repro.registry import DynamicKCoreAdapter
from repro.service import CoreService
from repro.service.admission import AdmissionController

_MISSING = object()

#: (owner, attribute, span name, coalesce repeated calls)
_TARGETS: tuple[tuple[type, str, str, bool], ...] = (
    (CoreService, "submit", "service.submit", False),
    (AdmissionController, "admit", "admission.admit", False),
    (AdmissionController, "observe", "admission.observe", False),
    (UpdateJournal, "begin", "service.journal", False),
    (UpdateJournal, "commit", "service.journal", False),
    (PLDSFlat, "to_snapshot", "service.restore_point", False),
    (PLDSFlat, "publish_epoch", "service.publish", False),
    (DynamicGraph, "insert_edge", "service.mirror", True),
    (DynamicGraph, "delete_edge", "service.mirror", True),
    (DynamicKCoreAdapter, "update", "engine.update", False),
)


def _restore_point_attrs(args: tuple, result: Any) -> dict:
    return {"items": len(result["levels"]) + len(result["edges"])}


def _publish_attrs(args: tuple, result: Any) -> dict:
    touched = args[1] if len(args) > 1 else None
    return {"touched": None if touched is None else len(touched)}


_ATTRS: dict[str, Callable[[tuple, Any], dict]] = {
    "service.restore_point": _restore_point_attrs,
    "service.publish": _publish_attrs,
}


class SpanTracer:
    """Records spans for the batches run inside :meth:`batch`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._batch = -1
        self._saved: list[tuple[type, str, Any]] = []
        self._gc_start = 0
        self._origin = time.perf_counter_ns()

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str, coalesce: bool = False) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        now = time.perf_counter_ns()
        last = self.spans[-1] if self.spans else None
        if (
            coalesce
            and last is not None
            and last["name"] == name
            and last["parent"] == parent
            and last["batch"] == self._batch
        ):
            last["count"] += 1
            span = last
        else:
            span = {
                "id": len(self.spans),
                "name": name,
                "start": now,
                "end": now,
                "parent": parent,
                "batch": self._batch,
                "count": 1,
            }
            self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    def _append(self, name: str, start: int, **attrs: Any) -> None:
        """Record a span that ends now, under the innermost open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": time.perf_counter_ns(),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "batch": self._batch,
                "count": 1,
                **attrs,
            }
        )

    def _wrap(self, fn: Callable, name: str, coalesce: bool) -> Callable:
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, coalesce)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    def _wrap_parfor(self, fn: Callable) -> Callable:
        """``PoolBackend.flat_parfor``: only calls that reached the
        process pool become ``pool.dispatch`` spans."""

        @functools.wraps(fn)
        def traced(backend: PoolBackend, items: Any, body: Any) -> Any:
            if getattr(body, "pool_task", None) is None:  # never dispatched
                return fn(backend, items, body)
            # flat_parfor lists a dispatchable loop's items anyway; doing
            # it here lets the span record how many a dispatch carried.
            items = list(items)
            before = backend.dispatches
            start = time.perf_counter_ns()
            result = fn(backend, items, body)
            if backend.dispatches != before:
                self._append("pool.dispatch", start, items=len(items))
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self._append("gc.collect", self._gc_start, generation=info.get("generation"))

    # -- install / uninstall ---------------------------------------------

    def _install(self) -> None:
        for owner, attr, name, coalesce in _TARGETS:
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, coalesce))
        self._saved.append(
            (PoolBackend, "flat_parfor", PoolBackend.__dict__.get("flat_parfor", _MISSING))
        )
        PoolBackend.flat_parfor = self._wrap_parfor(PoolBackend.flat_parfor)
        gc.callbacks.append(self._on_gc)

    def _uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def batch(self, batch_id: int) -> Iterator[None]:
        """Trace one write: wrappers installed, a ``client.write`` root."""
        self._batch = batch_id
        self._install()
        self._open("client.write")
        try:
            yield
        finally:
            while self._stack:  # spans an exception left open
                self._close(self._stack[-1])
            self._uninstall()
            self._batch = -1

    # -- analysis ----------------------------------------------------------

    def per_batch(self) -> dict[int, dict[str, dict[str, float]]]:
        """``{batch: {span name: {"ms", "self_ms", "count", ...}}}``.

        Self time is a span's duration minus its children's durations
        (children never overlap: the client is single-threaded).
        """
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + (
                    s["end"] - s["start"]
                )
        out: dict[int, dict[str, dict[str, float]]] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            row = out.setdefault(s["batch"], {}).setdefault(
                s["name"], {"ms": 0.0, "self_ms": 0.0, "count": 0}
            )
            row["ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns.get(s["id"], 0)) / 1e6
            row["count"] += s["count"]
            for key in ("items", "touched"):
                if s.get(key) is not None:
                    row[key] = row.get(key, 0) + s[key]
        return out

    def write_jsonl(self, path: Path) -> None:
        """One span per line; times in microseconds since the tracer
        was created."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(s)
                row["start"] = (s["start"] - self._origin) / 1e3
                row["end"] = (s["end"] - self._origin) / 1e3
                fh.write(json.dumps(row) + "\n")
