"""Process-pool execution backend: a ``flat_parfor`` that actually fans out.

:class:`PoolBackend` is a :class:`~repro.parallel.engine.WorkDepthTracker`
whose ``flat_parfor`` dispatches *pool-capable* bodies to a
``ProcessPoolExecutor`` instead of simulating the parallel loop inline.
A body advertises pool capability by carrying a :class:`PoolTask`
attribute (see :func:`attach_consider_task`, :func:`attach_rise_task`);
bodies without one run through the inherited simulated path unchanged,
so the backend is a strict superset of the simulated one.

Shared state travels through ``multiprocessing.shared_memory`` as one
*resident* graph image per engine (:class:`ResidentImage`): an int32
level vector plus a CSR-style slot-indexed adjacency (offsets + neighbor
array).  The image outlives individual dispatches — workers keep the
segments mapped between dispatches (module-level cache) — and a
dirty-range delta protocol replaces the per-dispatch full memcpy: the
engine records which slots changed level since the last flush, and
:meth:`ResidentImage.flush` rewrites only the coalesced byte ranges that
cover them.  The adjacency array is rewritten only when edges changed,
and the whole image is rebuilt from scratch only when slot numbering
changed (vertex insertion/compaction, i.e. structural "compaction"
events).  Per-dispatch bytes-copied and range counts are accounted on
the backend (``pool_stats()``) and exported as
``engine.pool.bytes_copied`` / ``engine.pool.dirty_ranges`` series.

Workers return, per chunk, the results plus the metered ``(sum of
works, max of depths)`` of their items; the main process folds those
into the enclosing frame with exactly the composition the simulated
``flat_parfor`` uses, so metered totals are bit-identical between
backends (gated by ``tests/test_backend.py``).

Two read-only scans are pool-dispatched:

- the deletion-phase desire-level scan (Algorithm 4 over the affected
  set, :func:`attach_consider_task`), both in the PLDS and in the shard
  kernels' post-deletion scan, where the kernel's image covers its
  ghost slots too;
- the insertion-phase jump-rise desire scan
  (:func:`attach_rise_task`) — workers evaluate desire levels against
  the snapshot; a conflict-aware ``finish`` step in the main process
  re-evaluates the few movers whose neighborhood already moved this
  round, keeping the result bit-identical to the sequential cascade.

When ``shared_memory`` (or process pools) are unavailable the backend
falls back to the simulated path with a ``RuntimeWarning`` and an
``engine.pool_fallback.calls`` obs counter instead of crashing.
"""

from __future__ import annotations

import os
import warnings
import weakref
from typing import Any, Callable, Iterable, Sequence, TypeVar

from . import engine as _engine
from .engine import WorkDepthTracker

# The *engine* module stays import-clean of repro.obs (hooks are pushed
# in via set_obs_hook); the pool backend is a leaf above it and may
# consult the observability globals directly, like the shard layer does.
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing

try:  # pragma: no cover - import always succeeds on CPython >= 3.8/posix
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shm support
    ProcessPoolExecutor = None  # type: ignore[assignment,misc]
    get_context = None  # type: ignore[assignment]
    _shm = None  # type: ignore[assignment]

#: Patch point: tests (and exotic platforms) set this to ``None`` to
#: exercise the fallback guard without uninstalling ``_posixshmem``.
shared_memory = _shm

T = TypeVar("T")

__all__ = [
    "PoolBackend",
    "PoolTask",
    "ResidentImage",
    "WorkerTally",
    "merge_worker_tallies",
    "attach_consider_task",
    "attach_rise_task",
    "consider_chunk",
    "rise_chunk",
]

#: One worker's share of a dispatch: ``(worker, slot_lo, slot_hi, tasks,
#: work)`` — ``[slot_lo, slot_hi)`` is the contiguous item-index range
#: the worker's chunk covered.
WorkerTally = tuple[int, int, int, int, int]


def merge_worker_tallies(
    registry: "_metrics.MetricsRegistry", tallies: "Sequence[WorkerTally]"
) -> None:
    """Fold per-worker dispatch tallies into ``engine.pool.*`` series.

    Iterates in worker-id order, so the merge is independent of the
    order chunks completed (counter adds commute and each worker's
    slot-range gauges are written exactly once per dispatch).
    """
    for worker, lo, hi, tasks, work in sorted(tallies):
        registry.inc("engine.pool.tasks", tasks, worker=worker)
        registry.inc("engine.pool.work", work, worker=worker)
        registry.gauge("engine.pool.slot_lo", lo, worker=worker)
        registry.gauge("engine.pool.slot_hi", hi, worker=worker)


def _noop() -> None:
    """Cleanup for tasks backed by a resident image: nothing to tear
    down per dispatch — the image's segments persist until the backend
    (or the source engine) closes them."""


# ----------------------------------------------------------------------
# Worker-side segment cache
# ----------------------------------------------------------------------

#: Segments this worker process has attached, by name.  The resident
#: image reuses segment names across dispatches (capacity headroom), so
#: workers map each segment once and read fresh bytes out of the same
#: mapping on every dispatch — attach cost is paid only when a name is
#: first seen (or after a growth re-creation changes it).
_WORKER_SEGMENTS: dict[str, Any] = {}

#: Eviction bound: shard runs route many kernels (each with its own
#: image) through one shared executor; cap the per-worker mapping count.
_WORKER_SEGMENT_CAP = 64


def _worker_segment(name: str) -> Any:
    seg = _WORKER_SEGMENTS.get(name)
    if seg is None:
        if len(_WORKER_SEGMENTS) >= _WORKER_SEGMENT_CAP:
            for old in _WORKER_SEGMENTS.values():
                try:
                    old.close()
                except Exception:  # pragma: no cover - best effort
                    pass
            _WORKER_SEGMENTS.clear()
        # Attaching re-registers the segment with the resource tracker;
        # the tracker process is shared with the owner (fork) and its
        # cache is a set, so the duplicate collapses and the owner's
        # unlink() is the single deregistration.
        seg = shared_memory.SharedMemory(name=name)
        _WORKER_SEGMENTS[name] = seg
    return seg


def _image_views(
    lv_name: str, adj_name: str, n: int, adj_ints: int
) -> tuple[Any, Any, Any]:
    """Attach (or reuse) the image segments; return int32 views
    ``(levels, offsets, neighbors)``."""
    lv_seg = _worker_segment(lv_name)
    adj_seg = _worker_segment(adj_name)
    levels = memoryview(lv_seg.buf)[: 4 * n].cast("i")
    adj = memoryview(adj_seg.buf)[: 4 * adj_ints].cast("i")
    return levels, adj[: n + 1], adj[n + 1 :]


# ----------------------------------------------------------------------
# Resident image + dirty-range delta protocol
# ----------------------------------------------------------------------


def _coalesce(slots: Iterable[int], gap: int) -> list[tuple[int, int]]:
    """Merge dirty slot indices into sorted ``[lo, hi)`` ranges,
    bridging gaps of at most ``gap`` slots (a bounded over-approximation
    that trades a few extra bytes for fewer range writes)."""
    uniq = sorted(set(slots))
    if not uniq:
        return []
    ranges: list[tuple[int, int]] = []
    lo = prev = uniq[0]
    for s in uniq[1:]:
        if s - prev <= gap:
            prev = s
            continue
        ranges.append((lo, prev + 1))
        lo = prev = s
    ranges.append((lo, prev + 1))
    return ranges


def _release_segments(pid: int, segments: list[Any]) -> None:
    # weakref.finalize backstop shared with forked children: only the
    # creating process may unlink (a worker's atexit must not tear the
    # owner's live segments down).
    if os.getpid() != pid:
        return
    for seg in segments:
        try:
            seg.close()
        except Exception:  # pragma: no cover - best effort
            pass
        try:
            seg.unlink()
        except Exception:  # pragma: no cover - already gone
            pass
    segments.clear()


class ResidentImage:
    """A resident shared-memory graph image for one source engine.

    Two segments: the int32 level vector and the CSR adjacency
    (``[offsets (n+1) ints][neighbor slots]``).  Segments carry
    power-of-two capacity headroom so their names — what workers key
    their mappings on — survive in-place rewrites; only genuine growth
    re-creates a segment under a new name.

    :meth:`flush` implements the delta protocol.  The source engine
    (duck-typed: :class:`~repro.core.plds.PLDS` or
    :class:`~repro.shard.kernel.ShardKernel`) exposes:

    - ``_pool_renumber`` — slot numbering changed (vertex insertion,
      compaction, restore): the whole image is rebuilt;
    - ``_pool_adj_dirty`` — edges changed but numbering held: only the
      CSR is rewritten, levels still go through ranges;
    - ``_pool_dirty_slots`` — slots whose level changed since the last
      flush: coalesced into ranges and only those bytes rewritten;
    - ``pool_csr()`` / ``pool_levels_array()`` / ``pool_levels_range()``
      — the encoders.

    Lifecycle: owned by the root :class:`PoolBackend` (closed by its
    ``close()``/context-manager exit, covering exception and
    KeyboardInterrupt paths) and back-referenced by the source; a
    ``weakref.finalize`` backstop unlinks the segments if the backend is
    garbage-collected without a close.
    """

    #: Dirty slots closer than this merge into one flushed range.
    GAP = 32

    def __init__(self, owner: "PoolBackend", source: Any) -> None:
        self._owner = owner
        self._source = source
        #: live segments; shared (same list object) with the finalizer.
        self._segments: list[Any] = []
        self._levels_seg: Any = None
        self._adj_seg: Any = None
        self._n = 0
        self._adj_ints = 0
        self.closed = False
        self.full_flushes = 0
        self.delta_flushes = 0
        #: ranges written by the most recent flush (``[(lo, hi)]``, or
        #: ``[(0, n)]`` for a full flush) — consulted by the protocol
        #: tests.
        self.last_ranges: list[tuple[int, int]] = []
        self.last_bytes = 0
        self._finalizer = weakref.finalize(
            self, _release_segments, os.getpid(), self._segments
        )
        owner._images.append(self)

    def _segment_with_capacity(self, current: Any, nbytes: int) -> Any:
        if current is not None and current.size >= nbytes:
            return current
        cap = 64
        while cap < nbytes:
            cap <<= 1
        fresh = shared_memory.SharedMemory(create=True, size=cap)
        if current is not None:
            try:
                self._segments.remove(current)
            except ValueError:  # pragma: no cover - defensive
                pass
            try:
                current.close()
            except Exception:  # pragma: no cover - best effort
                pass
            try:
                current.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
        self._segments.append(fresh)
        return fresh

    def _write_adj(self, offsets: Any, nbrs: Any) -> int:
        adj_ints = len(offsets) + len(nbrs)
        self._adj_seg = self._segment_with_capacity(
            self._adj_seg, max(1, 4 * adj_ints)
        )
        buf = self._adj_seg.buf
        off_b = offsets.tobytes()
        buf[: len(off_b)] = off_b
        nbr_b = nbrs.tobytes()
        buf[len(off_b) : len(off_b) + len(nbr_b)] = nbr_b
        self._adj_ints = adj_ints
        return 4 * adj_ints

    def flush(self, source: Any) -> tuple[str, str, int, int]:
        """Bring the image up to date; return ``(levels segment name,
        adjacency segment name, slot count, adjacency int count)``.

        Full rebuild when numbering changed (or first flush), CSR-only
        rewrite when edges changed, coalesced level ranges otherwise.
        Bytes written are accounted on the owning backend and the
        ``engine.pool.bytes_copied`` / ``engine.pool.dirty_ranges``
        series.
        """
        nbytes = 0
        nranges = 0
        if source._pool_renumber or self._levels_seg is None:
            offsets, nbrs = source.pool_csr()
            n = len(offsets) - 1
            nbytes += self._write_adj(offsets, nbrs)
            lv_b = source.pool_levels_array().tobytes()
            self._levels_seg = self._segment_with_capacity(
                self._levels_seg, max(1, len(lv_b))
            )
            self._levels_seg.buf[: len(lv_b)] = lv_b
            nbytes += len(lv_b)
            self._n = n
            source._pool_renumber = False
            source._pool_adj_dirty = False
            del source._pool_dirty_slots[:]
            self.full_flushes += 1
            self.last_ranges = [(0, n)] if n else []
        else:
            if source._pool_adj_dirty:
                # Edges changed but slot numbering held: the CSR is
                # rewritten while levels still flow through ranges.
                offsets, nbrs = source.pool_csr()
                nbytes += self._write_adj(offsets, nbrs)
                source._pool_adj_dirty = False
            ranges = _coalesce(source._pool_dirty_slots, self.GAP)
            del source._pool_dirty_slots[:]
            lbuf = self._levels_seg.buf
            for lo, hi in ranges:
                data = source.pool_levels_range(lo, hi).tobytes()
                lbuf[4 * lo : 4 * hi] = data
                nbytes += len(data)
            nranges = len(ranges)
            self.last_ranges = ranges
            self.delta_flushes += 1
        self.last_bytes = nbytes
        owner = self._owner
        owner.bytes_copied += nbytes
        # What the pre-delta protocol would have copied: the full image,
        # every dispatch.
        owner.bytes_full_equiv += 4 * (self._n + self._adj_ints)
        owner.dirty_ranges += nranges
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("engine.pool.bytes_copied", nbytes)
            if nranges:
                mreg.inc("engine.pool.dirty_ranges", nranges)
        return self._levels_seg.name, self._adj_seg.name, self._n, self._adj_ints

    def close(self) -> None:
        """Unlink the segments and detach from owner/source
        (idempotent; safe on exception/KeyboardInterrupt paths)."""
        if self.closed:
            return
        self.closed = True
        self._finalizer.detach()
        for seg in self._segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - best effort
                pass
            try:
                seg.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._levels_seg = None
        self._adj_seg = None
        try:
            self._owner._images.remove(self)
        except ValueError:
            pass
        source = self._source
        if source is not None and getattr(source, "_pool_image", None) is self:
            source._pool_image = None
        self._source = None


class PoolTask:
    """How to run one ``flat_parfor`` body on worker processes.

    - ``prepare(items)`` runs in the main process and returns
      ``(ctx, cleanup)``: a picklable context shared by every chunk
      (typically the resident image's segment names, refreshed via
      :meth:`ResidentImage.flush`) and a zero-argument cleanup callback
      invoked after the dispatch.
    - ``encode(item)`` turns one item into a picklable payload.
    - ``chunk_fn(ctx, payloads)`` is an importable module-level function
      executed on workers; it returns ``(results, work, depth)`` where
      ``work``/``depth`` are the sum/max of the per-item charges the
      inline body would have metered.
    - ``apply(item, result)`` runs in the main process, in canonical
      item order, to integrate one result.  It must not charge the
      tracker — the fold already accounts for the full scan.
    - ``finish(items, results)`` (optional, replaces ``apply``) runs in
      the main process over *all* results in canonical order and returns
      the ``(total work, max depth)`` to fold — used by bodies whose
      per-item integration mutates shared state (the jump-rise cascade),
      where the authoritative charges are only known at apply time.
    """

    __slots__ = ("prepare", "encode", "chunk_fn", "apply", "finish")

    def __init__(
        self,
        prepare: Callable[[Sequence[Any]], tuple[Any, Callable[[], None]]],
        encode: Callable[[Any], Any],
        chunk_fn: Callable[..., tuple[list[Any], int, int]],
        apply: Callable[[Any, Any], None] | None,
        finish: Callable[[Sequence[Any], list[Any]], tuple[int, int]]
        | None = None,
    ) -> None:
        self.prepare = prepare
        self.encode = encode
        self.chunk_fn = chunk_fn
        self.apply = apply
        self.finish = finish


class PoolBackend(WorkDepthTracker):
    """A tracker whose ``flat_parfor`` fans pool-capable bodies out.

    Parameters
    ----------
    workers:
        Worker process count (and chunk count per dispatch).
    min_dispatch:
        Below this many items a dispatch is not worth two IPC round
        trips; the body runs through the inherited simulated path
        (observationally identical, so this is purely a policy knob).

    A sharded run hands each kernel a child backend
    (:meth:`subtracker`): children meter independently (the shard
    engine's fold contract) but share the root's executor and resident
    images, and their dispatch/fallback counts bubble up so the root
    reports fleet-wide totals.
    """

    #: Marker consulted by pool-aware algorithms (e.g. the PLDS
    #: deletion rebalance) to decide whether building a PoolTask is
    #: worth the closure allocations.
    pool_tasks = True

    def __init__(self, workers: int = 2, min_dispatch: int = 8) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.min_dispatch = min_dispatch
        #: dispatches that actually reached the process pool.
        self.dispatches = 0
        #: dispatches that fell back to the simulated path because the
        #: shared-memory substrate is unavailable.
        self.fallbacks = 0
        #: bytes actually written into shared segments by image flushes.
        self.bytes_copied = 0
        #: bytes a full-image flush per dispatch would have written.
        self.bytes_full_equiv = 0
        #: dirty ranges written by delta flushes.
        self.dirty_ranges = 0
        self._images: list[ResidentImage] = []
        self._parent: PoolBackend | None = None
        self._executor: Any = None
        self._warned = False

    # -- lifecycle -----------------------------------------------------

    def _pool_root(self) -> "PoolBackend":
        node = self
        while node._parent is not None:
            node = node._parent
        return node

    def subtracker(self) -> "PoolBackend":
        """A child backend for one shard kernel: independent metering,
        shared executor/image ownership, counters bubbling to the
        root."""
        child = PoolBackend(
            workers=self.workers, min_dispatch=self.min_dispatch
        )
        child._parent = self
        return child

    def resident_image(self, source: Any) -> ResidentImage:
        """The resident image for ``source``, created (and registered on
        the root backend) on first use."""
        image = getattr(source, "_pool_image", None)
        if image is None or image.closed:
            image = ResidentImage(self._pool_root(), source)
            source._pool_image = image
        return image

    def _ensure_executor(self) -> Any:
        root = self._pool_root()
        if root._executor is None:
            ctx = None
            if get_context is not None:
                try:
                    ctx = get_context("fork")
                except ValueError:  # pragma: no cover - non-posix
                    ctx = None
            root._executor = ProcessPoolExecutor(
                max_workers=root.workers, mp_context=ctx
            )
        return root._executor

    def close(self) -> None:
        """Release resident images and shut the worker pool down
        (idempotent; run on context-manager exit so exception and
        KeyboardInterrupt paths unlink every shared segment)."""
        for image in list(self._images):
            image.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def pool_stats(self) -> dict[str, int | float]:
        """Dispatch/copy accounting (fleet-wide when called on the root
        backend of a sharded run)."""
        d = self.dispatches
        return {
            "dispatches": d,
            "fallbacks": self.fallbacks,
            "bytes_copied": self.bytes_copied,
            "bytes_full_equiv": self.bytes_full_equiv,
            "dirty_ranges": self.dirty_ranges,
            "mean_bytes_per_dispatch": (self.bytes_copied / d) if d else 0.0,
            "mean_bytes_full_equiv": (
                (self.bytes_full_equiv / d) if d else 0.0
            ),
        }

    def __enter__(self) -> "PoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- execution -----------------------------------------------------

    def _note_fallback(self) -> None:
        node: PoolBackend | None = self
        while node is not None:
            node.fallbacks += 1
            node = node._parent
        hook = _engine._OBS_HOOK
        if hook is not None:
            hook("engine.pool_fallback")
        root = self._pool_root()
        if not root._warned:
            root._warned = True
            warnings.warn(
                "multiprocessing.shared_memory unavailable; PoolBackend is "
                "falling back to the simulated execution path",
                RuntimeWarning,
                stacklevel=4,
            )

    def flat_parfor(
        self, items: Iterable[T], body: Callable[[T], None]
    ) -> None:
        task: PoolTask | None = getattr(body, "pool_task", None)
        if task is not None:
            seq = list(items)
            if len(seq) >= self.min_dispatch:
                if shared_memory is None or ProcessPoolExecutor is None:
                    self._note_fallback()
                else:
                    self._dispatch(seq, task)
                    return
            items = seq
        super().flat_parfor(items, body)

    def _dispatch(self, items: Sequence[T], task: PoolTask) -> None:
        tracer = _tracing.ACTIVE
        if tracer is None:
            self._dispatch_run(items, task)
            return
        # Spanning over self: the fold's self.add lands inside, so the
        # pool.dispatch span's work/depth equal the dispatch's metered
        # (sum, max) exactly.
        span = tracer.begin(
            "pool.dispatch",
            self,
            items=len(items),
            workers=min(self.workers, max(1, len(items))),
        )
        try:
            self._dispatch_run(items, task)
        except BaseException as exc:
            tracer.end(span, error=type(exc).__name__)
            raise
        tracer.end(span)

    def _dispatch_run(self, items: Sequence[T], task: PoolTask) -> None:
        # Same observable protocol as the simulated flat_parfor: the
        # engine.parfor hooks fire exactly once per parallel loop, and
        # the fold into the enclosing frame is (sum of per-item works,
        # max of per-item depths).  The fault hook fires *before*
        # prepare(), so an injected fault leaves the image unflushed and
        # the dirty records retained — exactly the simulated partial
        # state (the body never ran).
        fault_hook = _engine._FAULT_HOOK
        if fault_hook is not None:
            fault_hook("engine.parfor")
        obs_hook = _engine._OBS_HOOK
        if obs_hook is not None:
            obs_hook("engine.parfor")
        ctx, cleanup = task.prepare(items)
        tallies: list[WorkerTally] = []
        try:
            payloads = [task.encode(item) for item in items]
            n_chunks = min(self.workers, len(payloads))
            size = -(-len(payloads) // n_chunks)  # ceil division
            executor = self._ensure_executor()
            futures = [
                executor.submit(task.chunk_fn, ctx, payloads[i : i + size])
                for i in range(0, len(payloads), size)
            ]
            total_work = 0
            max_depth = 0
            chunk_results: list[list[Any]] = []
            for worker, future in enumerate(futures):  # deterministic order
                results, work, depth = future.result()
                total_work += work
                if depth > max_depth:
                    max_depth = depth
                chunk_results.append(results)
                lo = worker * size
                hi = min(lo + size, len(payloads))
                tallies.append((worker, lo, hi, hi - lo, work))
        finally:
            cleanup()
        node: PoolBackend | None = self
        while node is not None:
            node.dispatches += 1
            node = node._parent
        if task.finish is not None:
            flat: list[Any] = []
            for results in chunk_results:
                flat.extend(results)
            total_work, max_depth = task.finish(items, flat)
        else:
            index = 0
            for results in chunk_results:
                for result in results:
                    task.apply(items[index], result)
                    index += 1
        self.add(total_work, max_depth)
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("engine.pool.dispatches")
            merge_worker_tallies(mreg, tallies)


# ----------------------------------------------------------------------
# The consider-scan task (Algorithm 4 over the affected set)
# ----------------------------------------------------------------------


def consider_chunk(
    ctx: tuple[str, str, int, int, list[int], int],
    payloads: list[int],
) -> tuple[list[tuple[int, int] | None], int, int]:
    """Worker-side kernel for the deletion-phase desire-level scan.

    ``ctx`` is ``(levels segment, adjacency segment, slot count,
    adjacency ints, Invariant-2 integer thresholds, depth charge per
    scan)``; each payload is a slot index — neighbors come from the
    resident CSR, so nothing per-vertex is pickled.  Per item the kernel
    replicates the inline body exactly: nothing for level-0 or
    non-violating vertices, otherwise the Algorithm-4 downward scan
    returning ``(desire level, scanned)`` and charging ``(scanned,
    levels_depth)``.
    """
    lv_name, adj_name, n, adj_ints, thresholds, levels_depth = ctx
    levels, offsets, nbrs = _image_views(lv_name, adj_name, n, adj_ints)
    results: list[tuple[int, int] | None] = []
    total_work = 0
    max_depth = 0
    for slot in payloads:
        lvl = levels[slot]
        if lvl == 0:
            results.append(None)
            continue
        # Histogram the neighbor levels; the up/down split of the
        # flat structures is exactly the level rule, so bucket sizes
        # are recoverable from levels alone.
        len_up = 0
        counts: dict[int, int] = {}
        for k in range(offsets[slot], offsets[slot + 1]):
            lw = levels[nbrs[k]]
            if lw >= lvl:
                len_up += 1
            else:
                counts[lw] = counts.get(lw, 0) + 1
        up_star = len_up + counts.get(lvl - 1, 0)
        if up_star >= thresholds[lvl]:
            results.append(None)
            continue
        cnt = len_up
        scanned = 1
        best = 0
        counts_get = counts.get
        for lprime in range(lvl, 0, -1):
            c = counts_get(lprime - 1, 0)
            if c:
                cnt += c
            scanned += 1
            if cnt >= thresholds[lprime]:
                best = lprime
                break
        results.append((best, scanned))
        total_work += scanned
        if levels_depth > max_depth:
            max_depth = levels_depth
    return results, total_work, max_depth


def attach_consider_task(
    engine: Any,
    body: Callable[[int], None],
    note: Callable[[int, int], None],
) -> None:
    """Attach a :class:`PoolTask` for the consider scan to ``body``.

    ``engine`` is a :class:`~repro.core.plds.PLDS` (or a shard kernel,
    whose resident image covers its ghost slots too, so a local row
    references ghost neighbors whose mirrored levels are in the shared
    vector).  The task delta-flushes the resident image, has workers run
    :func:`consider_chunk` against the shared CSR, and calls
    ``note(vertex, desire level)`` for every violating vertex in
    canonical order — byte-for-byte the effect of the inline body.
    """
    slot_of = engine._slot_of

    def prepare(items: Sequence[int]) -> tuple[Any, Callable[[], None]]:
        image = engine.tracker.resident_image(engine)
        lv_name, adj_name, n, adj_ints = image.flush(engine)
        ctx = (
            lv_name,
            adj_name,
            n,
            adj_ints,
            list(engine._inv2_thresh_int),
            engine._levels_depth,
        )
        return ctx, _noop

    def encode(w: int) -> int:
        return slot_of[w]

    def apply(w: int, result: tuple[int, int] | None) -> None:
        if result is not None:
            note(w, result[0])

    body.pool_task = PoolTask(  # type: ignore[attr-defined]
        prepare, encode, consider_chunk, apply
    )


# ----------------------------------------------------------------------
# The jump-rise task (Algorithm 2's desire scan over one level's movers)
# ----------------------------------------------------------------------


def rise_chunk(
    ctx: tuple[str, str, int, int, list[int]],
    payloads: list[int],
) -> tuple[list[tuple[int, int]], int, int]:
    """Worker-side kernel for the insertion-phase rise desire scan.

    ``ctx`` is ``(levels segment, adjacency segment, slot count,
    adjacency ints, Invariant-1 integer bounds)``; each payload a mover
    slot.  Per slot the kernel evaluates the upward desire walk of
    ``PLDS._up_desire_slot`` against the snapshot: the up-set is
    recovered from levels (neighbors at >= the mover's level), and the
    walk climbs until Invariant 1 holds.  Returns ``(target level,
    desire work)`` per slot.  The charge totals returned here feed only
    worker telemetry — the authoritative fold is computed by the task's
    ``finish`` step, which re-evaluates movers invalidated by
    earlier same-round moves.
    """
    lv_name, adj_name, n, adj_ints, bounds = ctx
    levels, offsets, nbrs = _image_views(lv_name, adj_name, n, adj_ints)
    results: list[tuple[int, int]] = []
    total_work = 0
    for slot in payloads:
        old = levels[slot]
        u = 0
        counts: dict[int, int] = {}
        for k in range(offsets[slot], offsets[slot + 1]):
            lw = levels[nbrs[k]]
            if lw >= old:
                u += 1
                counts[lw] = counts.get(lw, 0) + 1
        cnt = u
        counts_get = counts.get
        j = old
        while True:
            j += 1
            dropped = counts_get(j - 1)
            if dropped:
                cnt -= dropped
            if cnt <= bounds[j]:
                break
        work = max(1, u + (j - old))
        results.append((j, work))
        total_work += work
    return results, total_work, 0


def attach_rise_task(
    plds: Any,
    body: Callable[[int], None],
    moved: set[int],
    rise_marks: list[tuple[int, int]],
) -> None:
    """Attach a :class:`PoolTask` for the jump-rise scan to ``body``.

    Workers evaluate each mover's desire level against the flushed
    snapshot (:func:`rise_chunk`); the ``finish`` step then walks movers
    in canonical ascending-id order applying the moves in the main
    process.  Within one rise round all movers sit at the same level, so
    an earlier mover can invalidate a later mover's snapshot result only
    by *being its neighbor* (the mover's own up-set membership is
    otherwise untouched by same-level peers rising).  ``finish``
    therefore keeps the set of already-moved slots and recomputes the
    desire walk live for exactly the movers adjacent to it — every other
    worker result is provably identical to what the sequential cascade
    would compute — making coreness AND metered totals bit-identical to
    the simulated backend.
    """
    slot_of = plds._slot_of

    def prepare(items: Sequence[int]) -> tuple[Any, Callable[[], None]]:
        image = plds.tracker.resident_image(plds)
        lv_name, adj_name, n, adj_ints = image.flush(plds)
        ctx = (lv_name, adj_name, n, adj_ints, list(plds._inv1_bound_int))
        return ctx, _noop

    def encode(v: int) -> int:
        return slot_of[v]

    def finish(
        items: Sequence[int], results: list[tuple[int, int]]
    ) -> tuple[int, int]:
        lv = plds._lv
        ups = plds._up
        vid = plds._vid
        bounds = plds._inv1_bound_int
        moved_add = moved.add
        marks_append = rise_marks.append
        applied: set[int] = set()
        total_work = 0
        for v, res in zip(items, results):
            i = slot_of[v]
            up_i = ups[i]
            if applied and not applied.isdisjoint(up_i):
                # A neighbor already rose this round: the snapshot walk
                # may be stale — redo it against live levels (this is
                # exactly the walk the inline body would run here).
                target, desire_work = plds._up_desire_calc(i)
            else:
                target, desire_work = res
            # |U[v]| is captured before the move, like the inline
            # _move_up_to_slot charge.
            total_work += desire_work + max(1, len(up_i))
            newly_marked = plds._move_up_raw(i, target)
            moved_add(v)
            if len(up_i) > bounds[lv[i]]:
                newly_marked.append(i)
            for j in newly_marked:
                marks_append((lv[j], vid[j]))
            applied.add(i)
        depth = plds._levels_depth + plds._mut_depth if items else 0
        return total_work, depth

    body.pool_task = PoolTask(  # type: ignore[attr-defined]
        prepare, encode, rise_chunk, None, finish=finish
    )
