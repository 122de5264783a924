"""Parallel Level Data Structure (PLDS) — the paper's core contribution.

Implements Section 5 of Liu, Shi, Yu, Dhulipala, Shun (SPAA 2022):

- the level/group structure with Invariant 1 (degree upper bound) and
  Invariant 2 (degree lower bound);
- ``Update`` (Algorithm 1) splitting a batch into insertions and deletions;
- ``RebalanceInsertions`` (Algorithm 2): level-by-level upward movement of
  marked vertices, processing each level exactly once (Lemma 5.5);
- ``RebalanceDeletions`` (Algorithm 3): desire-level computation and
  single-shot downward moves (Lemma 5.6);
- ``CalculateDesireLevel`` (Algorithm 4): cost-equivalent scan for the
  closest level satisfying both invariants;
- coreness estimation (Definition 5.11, Lemmas 5.12/5.13) giving a
  ``(1+δ)(2+3/λ)``-factor — i.e. ``(2+ε)`` — approximation;
- low out-degree orientation maintenance (Algorithm 5, Section 5.7).

Parallelism is *simulated*: vertex moves within a level execute
sequentially in a canonical order (equivalent by the paper's Lemma 5.9)
while their work/depth is metered by a
:class:`~repro.parallel.engine.WorkDepthTracker` using the parallel
composition rules.

Two configurations matter experimentally (Section 6):

- **PLDS**: ``4⌈log_{1+δ} n⌉`` levels per group (the theoretical
  structure, default);
- **PLDSOpt**: levels per group divided by ``group_shrink=50``, trading a
  slightly worse approximation bound for large constant-factor speedups.

Layout
------
The state is flat and slot-indexed, in the GBBS style ("Theoretically
Efficient Parallel Graph Algorithms Can Be Fast and Scalable" — flat
arrays and work-efficient primitives, not pointer graphs):

- every vertex owns a dense *slot* in ``[0, n)``; all per-vertex state
  is parallel arrays indexed by slot, compacted on vertex deletion;
- ``level`` is one dense integer vector (``_lv``), the single hottest
  load of every cascade loop; a contiguous int32 image of it
  (:meth:`PLDS._level_bytes`) is the IPC format the pool backend ships
  through shared memory;
- ``_up[i]`` is the set of neighbor slots at levels >= the slot's level
  (the paper's ``U[v]``) and ``_down[i]`` maps each lower level ``j`` to
  the neighbor slots there (the paper's ``L_v[j]``; only non-empty
  levels are stored);
- desire levels are computed into a dense ``-1``-initialised scratch
  vector sized by the live slot count, not a per-batch dict.

A :class:`~repro.parallel.pool.PoolBackend` tracker ships the level
image and a CSR adjacency through ``multiprocessing.shared_memory`` and
fans the read-only desire-level scans out to worker processes (see
:func:`repro.parallel.pool.attach_consider_task`); the metered (work,
depth) is identical on every backend.

Example
-------
>>> from repro.core.plds import PLDS
>>> from repro.graphs.streams import Batch
>>> plds = PLDS(n_hint=100)
>>> plds.update(Batch(insertions=[(0, 1), (1, 2), (0, 2)]))  # a triangle
>>> plds.coreness_estimate(0) >= 1
True
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .. import faults as _faults
from ..graphs.dynamic_graph import canonical_edge
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..graphs.streams import Batch
from ..parallel.engine import WorkDepthTracker
from ..parallel.hashtable import LOG_STAR_DEPTH
from ..parallel.primitives import log2_ceil
from .query import QueryView

__all__ = ["PLDS", "UpdateResult", "DirectedEdge"]

#: A directed edge (tail, head): oriented tail -> head.
DirectedEdge = tuple[int, int]


def _mark(buckets: dict[int, list[int]], level: int, v: int) -> None:
    """Insert ``v`` into the sorted-unique cascade bucket for ``level``.

    The rebalancing cascades keep every dirty/pending bucket as a sorted
    list of vertex ids, so the mover lists handed to ``flat_parfor`` are
    already in canonical order — no per-round re-sort.
    """
    bucket = buckets.get(level)
    if bucket is None:
        buckets[level] = [v]
        return
    i = bisect_left(bucket, v)
    if i == len(bucket) or bucket[i] != v:
        bucket.insert(i, v)


def _merge_marks(
    buckets: dict[int, list[int]], buf: list[tuple[int, int]]
) -> None:
    """Bulk-apply buffered ``(level, id)`` marks into cascade buckets.

    Produces exactly the sorted-unique buckets that per-item
    :func:`_mark` calls would — one sort per touched level instead of a
    bisect-insort (an O(bucket) list shift) per mark.  Safe whenever
    nothing reads ``buckets`` between the marks being buffered and this
    merge, which is the case between the cascade loops' ``flat_parfor``
    rounds.  ``buf`` is drained.
    """
    per: dict[int, list[int]] = {}
    for level, w in buf:
        lst = per.get(level)
        if lst is None:
            per[level] = [w]
        else:
            lst.append(w)
    buf.clear()
    for level, items in per.items():
        cur = buckets.get(level)
        if cur is None:
            buckets[level] = sorted(set(items))
        else:
            buckets[level] = sorted(set(items).union(cur))


def _is_sorted_unique(items: list[int]) -> bool:
    return all(items[i] < items[i + 1] for i in range(len(items) - 1))


@dataclass
class UpdateResult:
    """What :meth:`PLDS.update` reports about one batch (Algorithm 5).

    Attributes
    ----------
    flipped:
        Edges whose orientation changed, as directed edges giving the
        orientation *before* the flip.
    oriented_insertions:
        The batch's inserted edges, directed per the *post-batch*
        orientation.
    oriented_deletions:
        The batch's deleted edges, directed per the *pre-batch*
        orientation.
    moved_vertices:
        Vertices whose level changed while processing the batch.
    """

    flipped: list[DirectedEdge] = field(default_factory=list)
    oriented_insertions: list[DirectedEdge] = field(default_factory=list)
    oriented_deletions: list[DirectedEdge] = field(default_factory=list)
    moved_vertices: set[int] = field(default_factory=set)


class _UndoLog:
    """What one armed attempt changed (see :meth:`PLDS.begin_undo`).

    ``levels`` maps a moved vertex's slot to its level before the
    attempt — only the first move of each vertex is recorded.  Slots are
    stable for the whole attempt, since they are only appended while it
    runs; the vertices it created are therefore those past
    ``num_vertices``.  ``batches`` are the batches that passed
    validation, ``orient`` the old ``_orient`` entries they touched
    (``None`` = absent).  ``snapshot`` is set instead when a Section-5.9
    rebuild re-initialized the structure mid-attempt: the full pre-batch
    state to restore from.
    """

    __slots__ = ("levels", "batches", "orient", "num_vertices", "scalars", "snapshot")

    def __init__(self, num_vertices: int, scalars: tuple) -> None:
        self.levels: dict[int, int] = {}
        self.batches: list[Batch] = []
        self.orient: dict[tuple[int, int], DirectedEdge | None] = {}
        self.num_vertices = num_vertices
        self.scalars = scalars
        self.snapshot: dict | None = None


class PLDS(QueryView):
    """Batch-dynamic ``(2+ε)``-approximate k-core decomposition.

    Parameters
    ----------
    n_hint:
        Expected upper bound on the number of vertices; sizes the level
        structure (``K = O(log² n)`` levels).  The structure rebuilds
        automatically if the live vertex count exceeds it.
    delta:
        The ``δ > 0`` constant: group ``i`` thresholds scale as
        ``(1+δ)^i``.  Default 0.4 (the paper's experimental default).
    lam:
        The ``λ > 0`` constant in the Invariant-1 coefficient
        ``(2 + 3/λ)``.  Default 3 (paper default; max error bound
        ``(1+δ)(2+3/λ) = 4.2``).
    group_shrink:
        Divide the theoretical levels-per-group by this factor
        (PLDSOpt uses 50; Section 6.1).  1 = exact theoretical structure.
    upper_coeff:
        Override the Invariant-1 coefficient (the paper's *heuristic
        parameters* replace ``2 + 3/λ`` with 1.1, forfeiting the proofs
        but improving empirical error; Section 6.2).
    tracker:
        Work-depth meter; a private one is created if omitted.  Pass a
        :class:`repro.parallel.pool.PoolBackend` to fan the scan phases
        out to a process pool.
    track_orientation:
        Maintain the edge-orientation hash table ``H`` and report flips
        (Algorithm 5).  Required by the Section-8 framework; off by
        default since plain coreness queries do not need it.
    insertion_strategy:
        ``"levelwise"`` (default) follows Algorithm 2 exactly: violating
        vertices rise one level per level-iteration.  ``"jump"`` applies
        the implementation optimization of Section 6.1: each violating
        vertex computes its upward desire-level directly (the first
        higher level satisfying Invariant 1) and moves there in one step
        — asymptotically the same, practically much faster.
    structure:
        Which of the paper's data-structure variants to model
        (Section 5.8).  All three compute identical results; they differ
        in the metered depth of per-level bookkeeping and in space
        (:meth:`space_bytes`):

        - ``"randomized"`` — parallel hash tables: O(log* n) depth,
          O(n log² n + m) space (default; the paper's implementation);
        - ``"deterministic"`` — dynamic arrays: O(log n) worst-case
          depth per level, O(n log² n + m) space;
        - ``"space_efficient"`` — per-level linked lists: O(log² n)
          depth per level, O(n + m) space.
    """

    _STRUCTURES = ("randomized", "deterministic", "space_efficient")

    #: The armed undo log, if any.  A class-attribute default like the
    #: epoch store's: the in-place rebuild re-runs ``__init__`` and must
    #: not disarm an attempt.
    _undo: _UndoLog | None = None

    def __init__(
        self,
        n_hint: int,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        upper_coeff: float | None = None,
        tracker: WorkDepthTracker | None = None,
        track_orientation: bool = False,
        insertion_strategy: str = "levelwise",
        structure: str = "randomized",
    ) -> None:
        # The Section-5.9 rebuild path re-runs __init__ on a live
        # instance; release the previous resident image (if any) so its
        # stale slot numbering can never be flushed again.
        stale_image = getattr(self, "_pool_image", None)
        if stale_image is not None:
            stale_image.close()
        if n_hint < 2:
            n_hint = 2
        if delta <= 0:
            raise ValueError("delta must be > 0")
        if lam <= 0:
            raise ValueError("lambda must be > 0")
        if group_shrink < 1:
            raise ValueError("group_shrink must be >= 1")
        if insertion_strategy not in ("levelwise", "jump"):
            raise ValueError("insertion_strategy must be 'levelwise' or 'jump'")
        if structure not in self._STRUCTURES:
            raise ValueError(f"structure must be one of {self._STRUCTURES}")
        self.n_hint = n_hint
        self.delta = delta
        self.lam = lam
        self.group_shrink = group_shrink
        self.upper_coeff = (2.0 + 3.0 / lam) if upper_coeff is None else upper_coeff
        self.tracker = tracker if tracker is not None else WorkDepthTracker()
        self.track_orientation = track_orientation
        self.insertion_strategy = insertion_strategy
        self.structure = structure

        log_base = math.log(n_hint) / math.log(1.0 + delta)
        #: levels per group: 4⌈log_{1+δ} n⌉, divided by group_shrink for Opt.
        self.levels_per_group = max(1, math.ceil(4 * math.ceil(log_base) / group_shrink))
        #: groups: enough that the top group's Invariant-1 bound exceeds 2n.
        self.num_groups = math.ceil(log_base) + 2
        #: K — total number of levels.
        self.num_levels = self.levels_per_group * self.num_groups

        self._m = 0
        #: vertex insert/delete counter for the Section-5.9 rebuild policy.
        self._vertex_updates = 0
        #: orientation table H: canonical edge -> directed edge (tail, head).
        self._orient: dict[tuple[int, int], DirectedEdge] = {}
        #: edges whose endpoints' relative order may have changed this batch.
        self._touched: set[tuple[int, int]] = set()

        #: id -> slot.  Slots are dense in [0, _n) and stable between
        #: vertex deletions (which compact by swapping the last slot in).
        self._slot_of: dict[int, int] = {}
        #: slot -> id.
        self._vid: list[int] = []
        self._n = 0
        #: slot -> level; the dense vector every hot loop reads.
        self._lv: list[int] = []
        #: slot -> degree, maintained on every edge insertion/deletion
        #: (level moves never change it), so ``degree()`` is O(1).
        self._deg: list[int] = []
        #: slot -> set of neighbor slots at levels >= the slot's level.
        self._up: list[set[int]] = []
        #: slot -> {lower level -> set of neighbor slots there}.
        self._down: list[dict[int, set[int]]] = []
        # -- resident-image dirty protocol (repro.parallel.pool) -------
        #: whether the tracker pool-dispatches (gates dirty noting).
        self._pool_track = bool(getattr(self.tracker, "pool_tasks", False))
        #: the ResidentImage shipping this engine's state, if any.
        self._pool_image: Any = None
        #: slot numbering changed (vertex insert/compact): full rebuild.
        self._pool_renumber = True
        #: edges changed but numbering held: CSR rewrite, level deltas.
        self._pool_adj_dirty = True
        #: slots whose level changed since the last flush.
        self._pool_dirty_slots: list[int] = []

        # Per-mutation depth charge of the selected structure variant
        # (Section 5.8): hash tables O(log* n); dynamic arrays pay an
        # O(log n) resize/offset computation; per-level linked lists pay a
        # linear search over the O(log² n) list nodes.
        if structure == "randomized":
            self._mut_depth = LOG_STAR_DEPTH
        elif structure == "deterministic":
            self._mut_depth = log2_ceil(n_hint) + 1
        else:  # space_efficient
            self._mut_depth = max(LOG_STAR_DEPTH, self.num_levels // 4 + 1)

        # Precompute per-rebuild threshold tables.  The floats keep the
        # documented semantics (and diagnostics); the integer tables are
        # what the hot loops consult — for an integer count c and a real
        # bound b, ``c > b`` iff ``c > floor(b)`` and ``c >= b`` iff
        # ``c >= ceil(b)``, so the int comparisons are exactly equivalent
        # while skipping float conversion on every check.
        self._group_of_level = [
            lvl // self.levels_per_group for lvl in range(self.num_levels)
        ]
        self._inv1_bound = [
            self.upper_coeff * (1.0 + delta) ** g for g in self._group_of_level
        ]
        self._inv2_thresh = [0.0] + [
            (1.0 + delta) ** self._group_of_level[lvl - 1]
            for lvl in range(1, self.num_levels)
        ]
        self._inv1_bound_int = [math.floor(b) for b in self._inv1_bound]
        self._inv2_thresh_int = [math.ceil(t) for t in self._inv2_thresh]
        #: (1+δ)^g per group — consulted by coreness_estimate instead of
        #: recomputing the power on every query.
        self._group_pow = [
            (1.0 + delta) ** g for g in range(self.num_groups + 2)
        ]
        #: O(log K) depth charge of a desire-level scan, precomputed.
        self._levels_depth = log2_ceil(self.num_levels) + 1

    # ------------------------------------------------------------------
    # Level/group arithmetic
    # ------------------------------------------------------------------

    def group_number(self, level: int) -> int:
        """``gn(ℓ)``: index of the group containing ``level``."""
        return level // self.levels_per_group

    def inv1_bound(self, level: int) -> float:
        """Invariant-1 upper bound ``(2+3/λ)(1+δ)^{gn(ℓ)}`` at ``level``."""
        return self._inv1_bound[level]

    def inv2_threshold(self, level: int) -> float:
        """Invariant-2 lower bound ``(1+δ)^{gn(ℓ-1)}`` for a vertex at ``level``."""
        return self._inv2_thresh[level]

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _slot(self, v: int) -> int:
        """``v``'s slot, creating the vertex at level 0 if absent."""
        i = self._slot_of.get(v)
        if i is None:
            i = self._n
            self._n = i + 1
            self._pool_renumber = True
            self._slot_of[v] = i
            self._vid.append(v)
            self._lv.append(0)
            self._deg.append(0)
            self._up.append(set())
            self._down.append({})
        return i

    def _has_vertex(self, v: int) -> bool:
        return v in self._slot_of

    def _restore_level(self, v: int, level: int) -> None:
        """Create ``v`` at ``level`` (snapshot restore; no rebalancing)."""
        self._lv[self._slot(v)] = level

    def _local_slots(self) -> Iterable[int]:
        """The slots whose vertices this structure answers for (all of
        them; a shard kernel leaves out its ghost replicas)."""
        return range(self._n)

    def _local_levels(self) -> list[int]:
        lv = self._lv
        return [lv[i] for i in self._local_slots()]

    def _drop_vertex(self, v: int) -> bool:
        """Remove an (isolated) vertex; True if it existed."""
        i = self._slot_of.pop(v, None)
        if i is None:
            return False
        self._pool_renumber = True
        last = self._n - 1
        lv = self._lv
        if i != last:
            # Compact: move the last slot's state into i and rewrite the
            # moved vertex's slot number in its neighbors' structures.
            w = self._vid[last]
            lw = lv[last]
            self._slot_of[w] = i
            self._vid[i] = w
            lv[i] = lw
            self._deg[i] = self._deg[last]
            up_w = self._up[last]
            down_w = self._down[last]
            self._up[i] = up_w
            self._down[i] = down_w
            for j in up_w:
                self._rename_in(j, lw, last, i)
            for bucket in down_w.values():
                for j in bucket:
                    self._rename_in(j, lw, last, i)
        self._vid.pop()
        self._lv.pop()
        self._deg.pop()
        self._up.pop()
        self._down.pop()
        self._n = last
        return True

    def _rename_in(self, j: int, level_of_moved: int, old: int, new: int) -> None:
        """Replace slot ``old`` by ``new`` inside neighbor ``j``'s sets."""
        if level_of_moved >= self._lv[j]:
            up_j = self._up[j]
            if old in up_j:
                up_j.discard(old)
                up_j.add(new)
                return
        bucket = self._down[j].get(level_of_moved)
        if bucket is not None and old in bucket:
            bucket.discard(old)
            bucket.add(new)

    def _level_bytes(self) -> bytes:
        """Contiguous int32 image of the level vector.

        This is the zero-copy IPC format: the pool backend memcpys it
        into a shared segment once per dispatch and workers read levels
        straight out of the mapped buffer.
        """
        return array("i", self._lv).tobytes()

    # ------------------------------------------------------------------
    # Resident-image encoders (repro.parallel.pool.ResidentImage)
    # ------------------------------------------------------------------

    def pool_csr(self) -> tuple[array, array]:
        """CSR-style slot adjacency: ``(offsets, neighbor slots)``.

        Row ``i`` lists slot ``i``'s full neighbor multiset (up-set then
        down buckets — workers recover the split from levels alone), so
        the image survives level moves untouched and is rebuilt only
        when edges or slot numbering change.
        """
        n = self._n
        offsets = array("i", bytes(4 * (n + 1)))
        nbrs: list[int] = []
        extend = nbrs.extend
        ups = self._up
        downs = self._down
        for i in range(n):
            extend(ups[i])
            for bucket in downs[i].values():
                extend(bucket)
            offsets[i + 1] = len(nbrs)
        return offsets, array("i", nbrs)

    def pool_levels_array(self) -> array:
        return array("i", self._lv)

    def pool_levels_range(self, lo: int, hi: int) -> array:
        return array("i", self._lv[lo:hi])

    def _pool_note_ids(self, ids: Iterable[int]) -> None:
        """Record that these vertices' levels (may have) changed since
        the last image flush.  Over-approximation is safe — flushed
        bytes are read fresh — and the list is capped: a degenerate
        backlog (e.g. the no-shared-memory fallback never flushing)
        collapses into a full-image rebuild instead of unbounded
        growth."""
        if self._pool_renumber:
            return
        dirty = self._pool_dirty_slots
        slot_of = self._slot_of
        dirty.extend(slot_of[v] for v in ids)
        if len(dirty) > 1024 and len(dirty) > 4 * self._n:
            self._pool_renumber = True
            del dirty[:]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def level(self, v: int) -> int:
        """Current level ``ℓ(v)`` (0 for unknown/isolated vertices)."""
        i = self._slot_of.get(v)
        return self._lv[i] if i is not None else 0

    def up_degree(self, v: int) -> int:
        """``up(v)``: number of neighbors at levels >= ``ℓ(v)``."""
        i = self._slot_of.get(v)
        return len(self._up[i]) if i is not None else 0

    def up_star_degree(self, v: int) -> int:
        """``up*(v)``: number of neighbors at levels >= ``ℓ(v) - 1``."""
        i = self._slot_of.get(v)
        if i is None:
            return 0
        below = self._down[i].get(self._lv[i] - 1)
        return len(self._up[i]) + (len(below) if below else 0)

    def degree(self, v: int) -> int:
        i = self._slot_of.get(v)
        return self._deg[i] if i is not None else 0

    def neighbors(self, v: int) -> list[int]:
        i = self._slot_of.get(v)
        if i is None:
            return []
        vid = self._vid
        out = [vid[j] for j in self._up[i]]
        for bucket in self._down[i].values():
            out.extend(vid[j] for j in bucket)
        out.sort()
        return out

    def has_edge(self, u: int, v: int) -> bool:
        slot_of = self._slot_of
        i = slot_of.get(u)
        j = slot_of.get(v)
        if i is None or j is None:
            return False
        lv = self._lv
        if lv[j] >= lv[i]:
            return j in self._up[i]
        return j in self._down[i].get(lv[j], ())

    @property
    def num_edges(self) -> int:
        return self._m

    @property
    def num_vertices(self) -> int:
        return self._n

    def vertices(self) -> Iterator[int]:
        return iter(self._vid)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in canonical form."""
        vid = self._vid
        for i in self._local_slots():
            v = vid[i]
            for j in self._up[i]:
                w = vid[j]
                if v < w:
                    yield (v, w)
            for bucket in self._down[i].values():
                for j in bucket:
                    w = vid[j]
                    if v < w:
                        yield (v, w)

    # ------------------------------------------------------------------
    # Coreness estimation (Definition 5.11)
    # ------------------------------------------------------------------
    # coreness_estimate / coreness_estimates / core_members /
    # core_subgraph / densest_estimate come from the shared
    # :class:`~repro.core.query.QueryView` over the two hooks below.

    def _level_items(self) -> Iterator[tuple[int, int, int]]:
        lv = self._lv
        deg = self._deg
        vid = self._vid
        for i in self._local_slots():
            yield vid[i], lv[i], deg[i]

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        i = self._slot_of.get(v)
        return (self._lv[i], self._deg[i]) if i is not None else None

    def approximation_factor(self) -> float:
        """The provable max error ratio ``(2+3/λ)(1+δ)`` (Lemma 5.13).

        Only a guarantee for ``group_shrink == 1`` (PLDSOpt trades the
        proof for speed; Section 6.1).
        """
        return self.upper_coeff * (1.0 + self.delta)

    # ------------------------------------------------------------------
    # Orientation (Section 5.7, Algorithm 5)
    # ------------------------------------------------------------------

    def orientation_of(self, u: int, v: int) -> DirectedEdge:
        """Current orientation of edge {u, v}: lower level -> higher level,
        ties broken toward the larger index (smaller index is the tail)."""
        lu, lv = self.level(u), self.level(v)
        if lu < lv or (lu == lv and u < v):
            return (u, v)
        return (v, u)

    def out_neighbors(self, v: int) -> list[int]:
        """Neighbors w with edge oriented v -> w; all live in ``U[v]``."""
        i = self._slot_of.get(v)
        if i is None:
            return []
        lv = self._lv
        vid = self._vid
        li = lv[i]
        out = []
        for j in self._up[i]:
            lw = lv[j]
            if lw > li or (lw == li and v < vid[j]):
                out.append(vid[j])
        out.sort()
        return out

    def out_degree(self, v: int) -> int:
        i = self._slot_of.get(v)
        if i is None:
            return 0
        lv = self._lv
        vid = self._vid
        li = lv[i]
        count = 0
        for j in self._up[i]:
            lw = lv[j]
            if lw > li or (lw == li and v < vid[j]):
                count += 1
        return count

    def in_neighbors(self, v: int) -> list[int]:
        """Neighbors w with edge oriented w -> v."""
        i = self._slot_of.get(v)
        if i is None:
            return []
        lv = self._lv
        vid = self._vid
        li = lv[i]
        # Every down-neighbor sits strictly below v (edge points up into
        # v); an up-neighbor points into v only from the same level with
        # the smaller id.
        inn = [vid[j] for j in self._up[i] if lv[j] == li and vid[j] < v]
        for bucket in self._down[i].values():
            inn.extend(vid[j] for j in bucket)
        inn.sort()
        return inn

    def oriented_edges(self) -> Iterator[DirectedEdge]:
        for u, v in self.edges():
            yield self.orientation_of(u, v)

    # ------------------------------------------------------------------
    # Vertex updates (Section 5.9)
    # ------------------------------------------------------------------

    def insert_vertices(self, vs: Iterable[int]) -> None:
        """Insert zero-degree vertices (placed at level 0)."""
        count = 0
        for v in vs:
            if not self._has_vertex(v):
                count += 1
            self._slot(v)
        self._vertex_updates += count
        self._maybe_rebuild()
        self._levels_reshaped = True

    def delete_vertices(self, vs: Iterable[int]) -> UpdateResult:
        """Delete vertices: all incident edges become one deletion batch."""
        vs = set(vs)
        dels: list[tuple[int, int]] = []
        for v in vs:
            if not self._has_vertex(v):
                continue
            for w in self.neighbors(v):
                e = canonical_edge(v, w)
                if e[0] in vs and e[1] in vs and e[0] != v:
                    continue  # count each intra-set edge once
                dels.append(e)
        result = self.update(Batch(deletions=dels))
        for v in vs:
            if self._drop_vertex(v):
                self._vertex_updates += 1
        self._maybe_rebuild()
        self._levels_reshaped = True
        return result

    # ------------------------------------------------------------------
    # Algorithm 1: Update
    # ------------------------------------------------------------------

    #: Span name of :meth:`update`; subclasses override (``lds.update``).
    _SPAN_NAME = "plds.update"

    def update(self, batch: Batch) -> UpdateResult:
        """Apply a batch of unique, valid edge updates (Algorithm 1).

        Insertions are rebalanced first (Algorithm 2), then deletions
        (Algorithm 3); orientation changes are derived afterwards
        (Algorithm 5).  Returns an :class:`UpdateResult`.

        The batch is validated up front (uniqueness, validity, and
        insert/delete disjointness — the Section-8 assumptions), so an
        invalid batch raises ``ValueError`` *before* any mutation; use
        :func:`repro.graphs.streams.preprocess_batch` to clean raw
        streams.
        """
        tracer = _tracing.ACTIVE
        if tracer is None:
            result = self._apply_batch(batch)
        else:
            with tracer.span(
                self._SPAN_NAME,
                self.tracker,
                insertions=len(batch.insertions),
                deletions=len(batch.deletions),
            ):
                result = self._apply_batch(batch)
        # Incremental-publication bookkeeping (repro.core.query): a
        # rebuild re-levels every vertex, so batch moves alone no longer
        # bound what changed — fall back to the full-publish sentinel.
        if self._levels_reshaped:
            self.last_moved = None
            self._levels_reshaped = False
        else:
            self.last_moved = result.moved_vertices
        return result

    def _apply_batch(self, batch: Batch) -> UpdateResult:
        self._validate_batch(batch)
        if self._undo is not None:
            self._undo.batches.append(batch)
        result = UpdateResult()
        self._touched = set()

        # Pre-batch orientations of deleted edges (Algorithm 5: deletions
        # report the orientation *before* the batch).
        if self.track_orientation:
            for e in batch.deletions:
                d = self._orient.get(e)
                if d is None:
                    d = self.orientation_of(*e)
                result.oriented_deletions.append(d)
                self._note_orient(e)
                self._orient.pop(e, None)

        moved: set[int] = set()
        if batch.insertions:
            self._rebalance_insertions(batch.insertions, moved)
        if batch.deletions:
            self._rebalance_deletions(batch.deletions, moved)
        result.moved_vertices = moved

        if self.track_orientation:
            self._finish_orientation(batch, result)
        self._maybe_rebuild()
        return result

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> UpdateResult:
        """Convenience wrapper: one insertion-only batch."""
        return self.update(Batch(insertions=[canonical_edge(*e) for e in edges]))

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> UpdateResult:
        """Convenience wrapper: one deletion-only batch."""
        return self.update(Batch(deletions=[canonical_edge(*e) for e in edges]))

    def _validate_batch(self, batch: Batch) -> None:
        """Check the Section-8 batch assumptions before mutating anything.

        Charges ``(max(1,|batch|), 5)``; the per-edge presence probes run
        on hoisted slot structures instead of bound ``has_edge`` calls.
        """
        self.tracker.add(work=max(1, len(batch)), depth=5)
        slot_get = self._slot_of.get
        lv = self._lv
        ups = self._up
        downs = self._down
        ins = set()
        for u, v in batch.insertions:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) in batch")
            e = canonical_edge(u, v)
            if e in ins:
                raise ValueError(f"duplicate insertion {e} in batch")
            i = slot_get(e[0])
            j = slot_get(e[1])
            if i is not None and j is not None:
                present = (
                    j in ups[i]
                    if lv[j] >= lv[i]
                    else j in downs[i].get(lv[j], ())
                )
                if present:
                    raise ValueError(f"insertion of existing edge {e}")
            ins.add(e)
        dels = set()
        for u, v in batch.deletions:
            e = canonical_edge(u, v)
            if e in dels:
                raise ValueError(f"duplicate deletion {e} in batch")
            if e in ins:
                raise ValueError(f"edge {e} both inserted and deleted in batch")
            i = slot_get(e[0])
            j = slot_get(e[1])
            present = False
            if i is not None and j is not None:
                present = (
                    j in ups[i]
                    if lv[j] >= lv[i]
                    else j in downs[i].get(lv[j], ())
                )
            if not present:
                raise ValueError(f"deletion of missing edge {e}")
            dels.add(e)

    # ------------------------------------------------------------------
    # Algorithm 2: RebalanceInsertions
    # ------------------------------------------------------------------

    def _rebalance_insertions(
        self, insertions: list[tuple[int, int]], moved: set[int]
    ) -> None:
        tracker = self.tracker
        slot_of = self._slot_of
        lv = self._lv
        dirty: dict[int, list[int]] = {}
        tracker.add(work=2 * len(insertions), depth=self._mut_depth)
        # Levels are static while edges link in, so the dirty buckets
        # can be seeded in bulk: collect endpoints per level, then one
        # sorted-unique build per level (vs two bisect-insorts per edge).
        seed: dict[int, list[int]] = {}
        for u, v in insertions:
            i, j = self._insert_edge_struct(u, v)
            lst = seed.get(lv[i])
            if lst is None:
                seed[lv[i]] = [u]
            else:
                lst.append(u)
            lst = seed.get(lv[j])
            if lst is None:
                seed[lv[j]] = [v]
            else:
                lst.append(v)
        for level, seeded in seed.items():
            dirty[level] = sorted(set(seeded))
        vid = self._vid
        ups = self._up
        downs = self._down

        bounds = self._inv1_bound_int
        jump = self.insertion_strategy == "jump"

        #: (level, id) marks buffered during a rise round; merged into
        #: ``dirty`` after the round's flat_parfor (levels of marked
        #: vertices are static within a round, so deferring is exact).
        rise_marks: list[tuple[int, int]] = []
        rise_marks_append = rise_marks.append

        def rise(v: int) -> None:
            # Jump strategy only; the levelwise path is inlined below.
            i = slot_of[v]
            newly_marked = self._move_up_to_slot(i, self._up_desire_slot(i))
            moved.add(v)
            if len(ups[i]) > bounds[lv[i]]:
                newly_marked.append(i)
            for j in newly_marked:
                rise_marks_append((lv[j], vid[j]))

        pool_track = self._pool_track
        if jump and pool_track:
            # A pool-capable backend ships this desire scan to worker
            # processes over the resident image; the inline body is the
            # fallback and the semantics/charge reference.
            from ..parallel.pool import attach_rise_task

            attach_rise_task(self, rise, moved, rise_marks)

        track = self.track_orientation
        touched = self._touched
        mut_depth = self._mut_depth
        undo = self._undo
        undo_levels = undo.levels if undo is not None else None
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE

        # Process levels bottom-up; Lemma 5.5 guarantees each level is
        # visited at most once (marks only propagate upward, so min(dirty)
        # is non-decreasing across iterations).
        while dirty:
            if fault_plan is not None:
                fault_plan.hit("plds.rise")
            level = min(dirty)
            candidates = dirty.pop(level)
            span = (
                tracer.begin(
                    "plds.rise", tracker, level=level, queue=len(candidates)
                )
                if tracer is not None
                else None
            )
            if mreg is not None:
                mreg.inc("plds.rise_levels")
                mreg.observe("plds.cascade_queue", len(candidates), phase="rise")
            tracker.add(work=1, depth=1)  # the level-loop iteration itself
            bound = bounds[level]
            if jump:
                movers = [
                    v
                    for v in candidates
                    if lv[(i := slot_of[v])] == level and len(ups[i]) > bound
                ]
                if not movers:
                    if span is not None:
                        tracer.end(span)
                    continue
                # The bucket is already sorted-unique, so the filtered
                # mover list is in canonical order without a re-sort.
                if __debug__:
                    assert _is_sorted_unique(movers)
                tracker.flat_parfor(movers, rise)
                if pool_track:
                    self._pool_note_ids(movers)
                if rise_marks:
                    _merge_marks(dirty, rise_marks)
                if span is not None:
                    span.attrs["movers"] = len(movers)
                    tracer.end(span)
                continue
            # Levelwise fast path: the one-level move inlined with
            # aggregate charging.  Each rise would charge (|U[v]|, mut_depth)
            # into its own flat_parfor branch; the fold into the enclosing
            # frame is (sum of the works, mut_depth), charged once below.
            # All movers rise exactly one level, and every vertex they
            # newly mark sits exactly at ``level + 1``, so the dirty
            # bucket is updated in bulk too.
            target = level + 1
            bound_t = bounds[target]
            # A neighbor that already violated Invariant 1 at ``target``
            # before this level iteration is already in some dirty bucket
            # (edge inserts mark both endpoints; every rise re-marks the
            # riser while it still violates), so a riser only needs to
            # mark w on the exact bound crossing — later redundant marks
            # would be deduplicated by the dirty set anyway.
            crossing = bound_t + 1
            total_work = 0
            marked_next: list[int] = []
            marked_append = marked_next.append
            moved_add = moved.add
            # Movers are visited in ascending-id bucket order.  Any order
            # is parity-safe: a mover's U-set cardinality is unchanged
            # while its own level is being processed (same-level risers
            # re-add themselves to exactly the sets they left), so each
            # captured |U[v]| — and hence the aggregate work charge — is
            # order-invariant, and each target neighbor is marked exactly
            # once (bound-crossing add, or its own move) in every order.
            if track:
                for v in candidates:
                    i = slot_of[v]
                    if lv[i] != level:
                        continue
                    up_i = ups[i]
                    if len(up_i) <= bound:
                        continue
                    moved_add(v)
                    total_work += len(up_i)
                    stay = None
                    for j in up_i:
                        lw = lv[j]
                        if lw == level:
                            # w stays below v; v remains in U[w].
                            if stay is None:
                                stay = [j]
                            else:
                                stay.append(j)
                            w = vid[j]
                            touched.add((v, w) if v <= w else (w, v))
                        else:
                            jdown = downs[j]
                            bucket = jdown[level]
                            bucket.discard(i)
                            if not bucket:
                                del jdown[level]
                            if lw == target:
                                jup = ups[j]
                                jup.add(i)
                                if len(jup) == crossing:
                                    marked_append(vid[j])
                                w = vid[j]
                                touched.add((v, w) if v <= w else (w, v))
                            else:  # lw > target: j's L-structure shifts.
                                slot = jdown.get(target)
                                if slot is None:
                                    jdown[target] = {i}
                                else:
                                    slot.add(i)
                    if stay is not None:
                        up_i.difference_update(stay)
                        down = downs[i]
                        slot = down.get(level)
                        if slot is None:
                            down[level] = set(stay)
                        else:
                            slot.update(stay)
                    if undo_levels is not None:
                        undo_levels.setdefault(i, level)
                    lv[i] = target
                    if len(up_i) > bound_t:
                        marked_append(v)
            else:
                # Same loop, minus orientation bookkeeping (the default).
                for v in candidates:
                    i = slot_of[v]
                    if lv[i] != level:
                        continue
                    up_i = ups[i]
                    if len(up_i) <= bound:
                        continue
                    moved_add(v)
                    total_work += len(up_i)
                    stay = None
                    for j in up_i:
                        lw = lv[j]
                        if lw == level:
                            # w stays below v; v remains in U[w].
                            if stay is None:
                                stay = [j]
                            else:
                                stay.append(j)
                        else:
                            jdown = downs[j]
                            bucket = jdown[level]
                            bucket.discard(i)
                            if not bucket:
                                del jdown[level]
                            if lw == target:
                                jup = ups[j]
                                jup.add(i)
                                if len(jup) == crossing:
                                    marked_append(vid[j])
                            else:  # lw > target: j's L-structure shifts.
                                slot = jdown.get(target)
                                if slot is None:
                                    jdown[target] = {i}
                                else:
                                    slot.add(i)
                    if stay is not None:
                        up_i.difference_update(stay)
                        down = downs[i]
                        slot = down.get(level)
                        if slot is None:
                            down[level] = set(stay)
                        else:
                            slot.update(stay)
                    if undo_levels is not None:
                        undo_levels.setdefault(i, level)
                    lv[i] = target
                    if len(up_i) > bound_t:
                        marked_append(v)
            if not total_work:
                if span is not None:
                    tracer.end(span)
                continue  # no mover survived the filter at this level
            tracker.add(total_work, mut_depth)
            if pool_track:
                # Candidates over-approximate the movers; flushed bytes
                # are read fresh, so the slack is only a few range
                # bytes.
                self._pool_note_ids(candidates)
            if marked_next:
                bucket = dirty.get(target)
                if bucket is None:
                    # Within a level iteration every vertex is marked at
                    # most once (see the order-invariance note above), so
                    # one sort yields the bucket's sorted-unique form.
                    marked_next.sort()
                    dirty[target] = marked_next
                else:
                    # Same contents a per-item _mark loop yields: the
                    # insort path dedupes against the bucket and itself.
                    dirty[target] = sorted(set(marked_next).union(bucket))
            if span is not None:
                tracer.end(span)

    def _move_up_to_slot(self, i: int, target: int) -> list[int]:
        """Move slot ``i`` up to ``target``, updating all affected structures.

        ``target == old + 1`` is the theoretical Algorithm 2 step; larger
        jumps implement the Section-6.1 optimization.  Returns the slots
        of neighbors whose up-degree grew and now violate Invariant 1 (to
        be marked).  Cost: O(|U[v]|) work, O(log* n) depth.
        """
        self.tracker.add(work=max(1, len(self._up[i])), depth=self._mut_depth)
        return self._move_up_raw(i, target)

    def _move_up_raw(self, i: int, target: int) -> list[int]:
        """The move itself, uncharged — the pool backend's rise task
        folds the charge from its dispatch totals instead."""
        lv = self._lv
        old = lv[i]
        if target <= old:
            raise AssertionError("move_up_to requires a strictly higher level")
        ups = self._up
        downs = self._down
        up_i = ups[i]
        track = self.track_orientation
        touched = self._touched
        vid = self._vid
        v = vid[i]
        bounds = self._inv1_bound_int

        to_down: list[tuple[int, int]] = []
        newly_marked: list[int] = []
        for j in up_i:
            lw = lv[j]
            if lw == old:
                # w stays below v; v remains in U[w].
                to_down.append((j, lw))
                if track:
                    w = vid[j]
                    touched.add((v, w) if v <= w else (w, v))
            elif lw <= target:
                # old < lw <= target: v rises into U[j].
                jdown = downs[j]
                bucket = jdown[old]
                bucket.discard(i)
                if not bucket:
                    del jdown[old]
                jup = ups[j]
                jup.add(i)
                if len(jup) > bounds[lw]:
                    newly_marked.append(j)
                if lw < target:
                    # j is now strictly below v.
                    to_down.append((j, lw))
                if track:
                    w = vid[j]
                    touched.add((v, w) if v <= w else (w, v))
            else:  # lw > target: only j's L-structure shifts.
                jdown = downs[j]
                bucket = jdown[old]
                bucket.discard(i)
                if not bucket:
                    del jdown[old]
                slot = jdown.get(target)
                if slot is None:
                    jdown[target] = {i}
                else:
                    slot.add(i)
        down = downs[i]
        for j, lw in to_down:
            up_i.discard(j)
            slot = down.get(lw)
            if slot is None:
                down[lw] = {j}
            else:
                slot.add(j)
        undo = self._undo
        if undo is not None:
            undo.levels.setdefault(i, old)
        lv[i] = target
        return newly_marked

    def _up_desire_slot(self, i: int) -> int:
        """First level above ℓ(v) where Invariant 1 holds (Section 6.1).

        ``cnt(j)`` = #neighbors at levels >= j is non-increasing in j
        while the bound grows, so the first satisfying level is the
        closest.  Invariant 2 holds there automatically: the level below
        violated Invariant 1, so ``cnt(j-1) > (2+3/λ)(1+δ)^{gn(j-1)} >=
        (1+δ)^{gn(j-1)}``.
        """
        target, work = self._up_desire_calc(i)
        self.tracker.add(work=work, depth=self._levels_depth)
        return target

    def _up_desire_calc(self, i: int) -> tuple[int, int]:
        """The desire walk itself, uncharged: ``(target, work)``.

        Shared between the inline charge wrapper above and the pool
        rise task's conflict re-evaluation, which must reproduce the
        walk (and its work amount) without double-charging the
        tracker."""
        lv = self._lv
        old = lv[i]
        up_i = self._up[i]
        # Histogram the up-neighbor levels once, then walk upward dropping
        # the count of neighbors below each candidate level (all up
        # neighbors sit at levels >= old, so only exact-level counts are
        # ever subtracted).
        counts: dict[int, int] = {}
        for j in up_i:
            lw = lv[j]
            counts[lw] = counts.get(lw, 0) + 1
        cnt = len(up_i)
        bounds = self._inv1_bound_int
        counts_get = counts.get
        j = old
        while True:
            j += 1
            dropped = counts_get(j - 1)
            if dropped:
                cnt -= dropped
            if cnt <= bounds[j]:
                break
        return j, max(1, len(up_i) + (j - old))

    # ------------------------------------------------------------------
    # Algorithm 3: RebalanceDeletions
    # ------------------------------------------------------------------

    def _rebalance_deletions(
        self, deletions: list[tuple[int, int]], moved: set[int]
    ) -> None:
        tracker = self.tracker
        tracker.add(work=2 * len(deletions), depth=self._mut_depth)
        affected: set[int] = set()
        for u, v in deletions:
            self._delete_edge_struct(u, v)
            affected.add(u)
            affected.add(v)

        slot_of = self._slot_of
        lv = self._lv
        ups = self._up
        downs = self._down
        thresholds = self._inv2_thresh_int
        #: slot -> desire level, -1 = unset.
        desire = [-1] * self._n
        # Pending buckets are sorted-unique id lists (see :func:`_mark`).
        pending: dict[int, list[int]] = {}
        tracker_add = tracker.add
        levels_depth = self._levels_depth
        #: (level, id) marks buffered during a scan/descend round and
        #: bulk-merged into ``pending`` after the round's flat_parfor —
        #: nothing reads ``pending`` mid-round, so deferring is exact.
        mark_buf: list[tuple[int, int]] = []
        mark_buf_append = mark_buf.append

        def note(w: int, dl: int) -> None:
            desire[slot_of[w]] = dl
            mark_buf_append((dl, w))

        def consider(w: int) -> None:
            i = slot_of[w]
            lvl = lv[i]
            if lvl == 0:
                return
            down_get = downs[i].get
            below = down_get(lvl - 1)
            up_star = len(ups[i]) + (len(below) if below else 0)
            if up_star < thresholds[lvl]:
                # _desire_slot inlined, resuming after its first scan
                # iteration: that iteration accumulates exactly up_star
                # and can never break (up_star < thresholds[lvl] holds
                # here), so start at lvl-1 with scanned already 2.  The
                # (work, depth) charge is identical to _desire_slot's.
                cnt = up_star
                scanned = 2
                best = 0
                for lprime in range(lvl - 1, 0, -1):
                    bucket = down_get(lprime - 1)
                    if bucket:
                        cnt += len(bucket)
                    if cnt >= thresholds[lprime]:
                        best = lprime
                        scanned += 1
                        break
                    scanned += 1
                tracker_add(scanned, levels_depth)
                desire[i] = best
                mark_buf_append((best, w))

        scan_order = sorted(affected)
        if self._pool_track:
            # A pool-capable backend ships this read-only scan to worker
            # processes over the shared level array; the inline body is
            # the fallback and the semantics/charge reference.
            from ..parallel.pool import attach_consider_task

            attach_consider_task(self, consider, note)
        tracker.flat_parfor(scan_order, consider)
        if mark_buf:
            _merge_marks(pending, mark_buf)

        # Process levels bottom-up; each vertex moves exactly once
        # (Lemma 5.6: once level i is done, no vertex desires <= i).
        #
        # A stored desire-level can go stale in one way the "weakened"
        # propagation cannot see: a neighbor later drops below the pending
        # vertex's *target* level (while staying at/above its current
        # level minus one).  We therefore revalidate dl(v) at move time;
        # a changed value re-enqueues the vertex (desire-levels only
        # decrease during a deletion phase, so this terminates).
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE
        while pending:
            if fault_plan is not None:
                fault_plan.hit("plds.desaturate")
            level = min(pending)
            bucket = pending.pop(level)
            span = (
                tracer.begin(
                    "plds.desaturate", tracker, level=level, queue=len(bucket)
                )
                if tracer is not None
                else None
            )
            if mreg is not None:
                mreg.inc("plds.desaturate_levels")
                mreg.observe(
                    "plds.cascade_queue", len(bucket), phase="desaturate"
                )
            movers = [
                v
                for v in bucket
                if desire[(i := slot_of[v])] == level and lv[i] > level
            ]
            tracker.add(work=1, depth=1)
            if not movers:
                if span is not None:
                    tracer.end(span)
                continue

            def descend(v: int, level: int = level) -> None:
                i = slot_of[v]
                fresh = self._desire_slot(i)
                if fresh != level:
                    if fresh < lv[i]:
                        desire[i] = fresh
                        mark_buf_append((fresh, v))
                    else:
                        desire[i] = -1
                    return
                weakened = self._move_down_slot(i, level)
                moved.add(v)
                desire[i] = -1
                vid = self._vid
                for j in weakened:
                    w = vid[j]
                    if desire[j] != -1:
                        # stale pending entry is skipped lazily
                        desire[j] = -1
                    consider(w)

            # Buckets are sorted-unique, so the filtered mover list is
            # already in canonical order — no per-round re-sort.
            if __debug__:
                assert _is_sorted_unique(movers)
            tracker.flat_parfor(movers, descend)
            if self._pool_track:
                self._pool_note_ids(movers)
            if mark_buf:
                _merge_marks(pending, mark_buf)
            if span is not None:
                span.attrs["movers"] = len(movers)
                tracer.end(span)

    def _move_down_slot(self, i: int, new_level: int) -> list[int]:
        """Move slot ``i`` down to ``new_level``, updating affected structures.

        Returns the slots of neighbors whose ``up*`` decreased
        (candidates for new Invariant-2 violations).  Cost: O(#neighbors
        at levels >= new_level) work, O(log* n) depth.
        """
        lv = self._lv
        old = lv[i]
        if new_level >= old:
            raise AssertionError("move_down requires a strictly lower level")
        tracker = self.tracker
        track = self.track_orientation
        touched = self._touched
        ups = self._up
        downs = self._down
        vid = self._vid
        v = vid[i]
        up_i = ups[i]
        weakened: list[int] = []
        ops = len(up_i)

        # Neighbors formerly above or at v's old level.
        for j in up_i:
            lw = lv[j]
            jdown = downs[j]
            if lw == old:
                ups[j].discard(i)
            else:  # lw > old
                bucket = jdown[old]
                bucket.discard(i)
                if not bucket:
                    del jdown[old]
            slot = jdown.get(new_level)
            if slot is None:
                jdown[new_level] = {i}
            else:
                slot.add(i)
            # v left Z_{lw-1} iff new_level < lw - 1 <= old.
            if new_level < lw - 1 <= old:
                weakened.append(j)
            if track and lw <= old:
                w = vid[j]
                touched.add((v, w) if v <= w else (w, v))

        # Neighbors between new_level and old-1 move from L_v into U[v].
        down = downs[i]
        up_add = up_i.add
        for lvl in range(new_level, old):
            bucket = down.pop(lvl, None)
            if not bucket:
                continue
            ops += len(bucket)
            for j in bucket:
                up_add(j)
                lw = lv[j]
                if new_level < lw:
                    ups[j].discard(i)
                    jdown = downs[j]
                    slot = jdown.get(new_level)
                    if slot is None:
                        jdown[new_level] = {i}
                    else:
                        slot.add(i)
                    if new_level < lw - 1 <= old:
                        weakened.append(j)
                if track:
                    w = vid[j]
                    touched.add((v, w) if v <= w else (w, v))

        undo = self._undo
        if undo is not None:
            undo.levels.setdefault(i, old)
        lv[i] = new_level
        tracker.add(work=max(1, ops), depth=self._mut_depth)
        return weakened

    # ------------------------------------------------------------------
    # Algorithm 4: CalculateDesireLevel
    # ------------------------------------------------------------------

    def _desire_slot(self, i: int) -> int:
        """Closest level <= ℓ(v) satisfying both invariants.

        Scans downward accumulating ``cnt(j)`` = #neighbors at levels >= j
        and returns the *highest* level ``l'`` with
        ``cnt(l'-1) >= (1+δ)^{gn(l'-1)}`` (or 0 for degree-0 vertices).
        Invariant 1 holds automatically at that level: by maximality,
        ``cnt(l') < (1+δ)^{gn(l')} <= (2+3/λ)(1+δ)^{gn(l')}``.

        The scan does the same O(ℓ(v) - dl(v)) work as the paper's
        doubling-plus-binary-search; we charge the parallel version's
        O(log K) depth.
        """
        lvl = self._lv[i]
        cnt = len(self._up[i])
        scanned = 1
        best = 0
        down_get = self._down[i].get
        thresholds = self._inv2_thresh_int
        for lprime in range(lvl, 0, -1):
            bucket = down_get(lprime - 1)
            if bucket:
                cnt += len(bucket)
            scanned += 1
            if cnt >= thresholds[lprime]:
                best = lprime
                break
        self.tracker.add(work=scanned, depth=self._levels_depth)
        return best

    # ------------------------------------------------------------------
    # Structure-level edge insertion/deletion
    # ------------------------------------------------------------------

    def _link_slots(self, i: int, j: int) -> None:
        """Wire the edge (i, j) into both slots' U/L structures.

        Placement follows the level rule only — no duplicate/self-loop
        checks and no ``_m`` accounting, so shard kernels can link a
        (local, ghost) pair under their own edge-count discipline.
        """
        self._pool_adj_dirty = True
        lv = self._lv
        li = lv[i]
        lj = lv[j]
        if lj >= li:
            self._up[i].add(j)
        else:
            down = self._down[i]
            slot = down.get(lj)
            if slot is None:
                down[lj] = {j}
            else:
                slot.add(j)
        if li >= lj:
            self._up[j].add(i)
        else:
            down = self._down[j]
            slot = down.get(li)
            if slot is None:
                down[li] = {i}
            else:
                slot.add(i)
        self._deg[i] += 1
        self._deg[j] += 1

    def _unlink_slots(self, i: int, j: int) -> None:
        """Remove the edge (i, j) from both slots' U/L structures."""
        self._pool_adj_dirty = True
        lv = self._lv
        li = lv[i]
        lj = lv[j]
        if lj >= li:
            self._up[i].discard(j)
        else:
            down = self._down[i]
            bucket = down[lj]
            bucket.discard(j)
            if not bucket:
                del down[lj]
        if li >= lj:
            self._up[j].discard(i)
        else:
            down = self._down[j]
            bucket = down[li]
            bucket.discard(i)
            if not bucket:
                del down[li]
        self._deg[i] -= 1
        self._deg[j] -= 1

    def _insert_edge_struct(self, u: int, v: int) -> tuple[int, int]:
        if u == v:
            raise ValueError("self-loops are not allowed")
        # Duplicate check inlined on the slots so the lookups are shared
        # with the link step.
        slot_of = self._slot_of
        i = slot_of.get(u)
        j = slot_of.get(v)
        if i is not None and j is not None:
            lv = self._lv
            present = (
                j in self._up[i]
                if lv[j] >= lv[i]
                else j in self._down[i].get(lv[j], ())
            )
            if present:
                raise ValueError(f"duplicate edge ({u},{v})")
        if i is None:
            i = self._slot(u)
        if j is None:
            j = self._slot(v)
        self._link_slots(i, j)
        self._m += 1
        return i, j

    def _delete_edge_struct(self, u: int, v: int) -> None:
        # Presence check inlined on the slots (cf. _insert_edge_struct).
        slot_of = self._slot_of
        i = slot_of.get(u)
        j = slot_of.get(v)
        present = False
        if i is not None and j is not None:
            lv = self._lv
            present = (
                j in self._up[i]
                if lv[j] >= lv[i]
                else j in self._down[i].get(lv[j], ())
            )
        if not present:
            raise ValueError(f"edge ({u},{v}) not present")
        self._unlink_slots(i, j)
        self._m -= 1

    # ------------------------------------------------------------------
    # Orientation upkeep (Algorithm 5)
    # ------------------------------------------------------------------

    def _finish_orientation(self, batch: Batch, result: UpdateResult) -> None:
        tracker = self.tracker
        inserted = set(batch.insertions)
        tracker.add(
            work=max(1, len(self._touched) + len(inserted)), depth=self._mut_depth
        )
        for e in self._touched:
            if e in inserted or e not in self._orient:
                continue
            if not self.has_edge(*e):
                continue
            new_dir = self.orientation_of(*e)
            old_dir = self._orient[e]
            if new_dir != old_dir:
                result.flipped.append(old_dir)
                self._note_orient(e)
                self._orient[e] = new_dir
        for e in inserted:
            d = self.orientation_of(*e)
            self._note_orient(e)
            self._orient[e] = d
            result.oriented_insertions.append(d)
        self._touched = set()

    # ------------------------------------------------------------------
    # Rebuild (Section 5.9) and diagnostics
    # ------------------------------------------------------------------

    def _maybe_rebuild(self) -> None:
        # Section 5.9: rebuild once the live vertex count outgrows the
        # sizing hint, or after n/2 vertex updates have accumulated (the
        # rebuild cost amortizes to O(log² n) per vertex update).
        # The hint is sized at twice the vertex count of the last rebuild,
        # so n_hint // 4 approximates the paper's "n/2 vertex updates".
        if (
            self.num_vertices <= self.n_hint
            and self._vertex_updates <= max(self.n_hint // 4, 8)
        ):
            return
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("plds.rebuilds")
        tracer = _tracing.ACTIVE
        if tracer is None:
            self._rebuild()
            return
        with tracer.span(
            "plds.rebuild",
            self.tracker,
            vertices=self.num_vertices,
            edges=self._m,
        ):
            self._rebuild()

    def _rebuild(self) -> None:
        # An armed attempt cannot undo an in-place re-init move by move:
        # derive its full pre-batch state now, and keep the replay below
        # out of the log.
        undo = self._undo
        if undo is not None and undo.snapshot is None:
            undo.snapshot = self._pre_attempt_snapshot(undo)
        self._undo = None
        try:
            self._rebuild_in_place()
        finally:
            self._undo = undo

    def _rebuild_in_place(self) -> None:
        edges = list(self.edges())
        vertices = list(self.vertices())
        # Resize to the live vertex count (growing or shrinking), so the
        # level count K tracks the current n as Section 5.9 requires.
        new_hint = max(2, 2 * len(vertices))
        self.tracker.add(
            work=max(1, len(edges) + len(vertices)),
            depth=log2_ceil(max(2, len(edges))) + 1,
        )
        self.__init__(  # noqa: PLC2801 - deliberate in-place re-init
            n_hint=new_hint,
            delta=self.delta,
            lam=self.lam,
            group_shrink=self.group_shrink,
            upper_coeff=self.upper_coeff,
            tracker=self.tracker,
            track_orientation=self.track_orientation,
            insertion_strategy=self.insertion_strategy,
            structure=self.structure,
        )
        for v in vertices:  # keep isolated vertices alive at level 0
            self._slot(v)
        if edges:
            self.update(Batch(insertions=edges))
        # Set AFTER the replay update above, so the outer update() (when
        # the rebuild fired from _maybe_rebuild mid-batch) reports
        # last_moved=None rather than just the replay's movers.
        self._levels_reshaped = True

    # ------------------------------------------------------------------
    # Undo log (transactional attempts)
    # ------------------------------------------------------------------

    def begin_undo(self) -> None:
        """Arm an undo log: :meth:`rollback_undo` will put the structure
        back exactly as it is now.

        While armed, every level write records the vertex's old level on
        its first move, and each validated batch records itself — O(1)
        per batch and per moved vertex, no copy of the structure.
        Disarmed (the default), each write site pays one ``is not None``
        test.  The log covers :meth:`update` calls.
        """
        self._undo = _UndoLog(
            self.num_vertices,
            (self._m, self._vertex_updates, self.last_moved, self._levels_reshaped),
        )

    def commit_undo(self) -> None:
        """Keep the attempt's changes and disarm the log."""
        self._undo = None

    def rollback_undo(self) -> None:
        """Restore the exact state :meth:`begin_undo` saw, then disarm.

        In place, in this order: undo the applied batch edges; unlink
        the edges incident to moved vertices, reset their levels, relink;
        drop the vertices the attempt created; restore the scalar
        counters.  Cost O(|B| + Σ deg(moved)).  If a Section-5.9 rebuild
        fired during the attempt, the structure is re-initialized from
        the pre-batch snapshot taken just before it instead (O(n + m),
        paid only where the rebuild already paid it).  Charges nothing
        to the tracker, like :meth:`from_snapshot`.
        """
        undo = self._undo
        if undo is None:
            raise RuntimeError("rollback_undo without begin_undo")
        self._undo = None
        if undo.snapshot is not None:
            self.__init__(  # noqa: PLC2801 - deliberate in-place re-init
                tracker=self.tracker, **undo.snapshot["params"]
            )
            self._load_snapshot(undo.snapshot)
        else:
            for batch in reversed(undo.batches):
                for u, v in batch.insertions:
                    if self.has_edge(u, v):
                        self._delete_edge_struct(u, v)
                for u, v in batch.deletions:
                    if not self.has_edge(u, v):
                        self._insert_edge_struct(u, v)
            if undo.levels:
                self._undo_moves(undo.levels)
            for v in self._vertices_since(undo.num_vertices):
                self._drop_vertex(v)
            orient = self._orient
            for e, d in undo.orient.items():
                if d is None:
                    orient.pop(e, None)
                else:
                    orient[e] = d
        (
            self._m,
            self._vertex_updates,
            self.last_moved,
            self._levels_reshaped,
        ) = undo.scalars
        self._touched = set()
        # Edges, levels and possibly the slot count changed behind the
        # resident image's back: ship it whole on the next dispatch.
        self._pool_renumber = True
        del self._pool_dirty_slots[:]

    def _note_orient(self, e: tuple[int, int]) -> None:
        undo = self._undo
        if undo is not None and e not in undo.orient:
            undo.orient[e] = self._orient.get(e)

    def _undo_moves(self, levels: dict[int, int]) -> None:
        """Reset moved slots to their logged levels: unlink their edges
        at the current levels, move, relink."""
        ups = self._up
        downs = self._down
        edges: list[tuple[int, int]] = []
        for i in levels:
            for j in ups[i]:
                if j not in levels or i < j:
                    edges.append((i, j))
            for bucket in downs[i].values():
                for j in bucket:
                    if j not in levels or i < j:
                        edges.append((i, j))
        for i, j in edges:
            self._unlink_slots(i, j)
        lv = self._lv
        for i, level in levels.items():
            lv[i] = level
        for i, j in edges:
            self._link_slots(i, j)

    def _vertices_since(self, n: int) -> list[int]:
        """The vertices created after the first ``n``, newest first."""
        return self._vid[n:][::-1]

    def _pre_attempt_snapshot(self, undo: _UndoLog) -> dict:
        """:meth:`to_snapshot` of the state before the armed attempt,
        derived from the current state and the log."""
        snap = self.to_snapshot()
        vid = self._vid
        old = {vid[i]: level for i, level in undo.levels.items()}
        created = set(self._vertices_since(undo.num_vertices))
        snap["levels"] = [
            [v, old.get(v, level)]
            for v, level in snap["levels"]
            if v not in created
        ]
        edges = set(snap["edges"])
        for batch in reversed(undo.batches):
            for e in batch.insertions:
                edges.discard(canonical_edge(*e))
            for e in batch.deletions:
                edges.add(canonical_edge(*e))
        snap["edges"] = sorted(edges)
        return snap

    # ------------------------------------------------------------------
    # Snapshots (persistence for long-running monitors)
    # ------------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-serializable snapshot of the full structure state.

        Levels fully determine the structure (the U/L partitions and the
        orientation are functions of the levels), so the snapshot stores
        parameters, per-vertex levels, and the edge list.
        """
        return {
            "format": 1,
            "params": {
                "n_hint": self.n_hint,
                "delta": self.delta,
                "lam": self.lam,
                "group_shrink": self.group_shrink,
                "upper_coeff": self.upper_coeff,
                "track_orientation": self.track_orientation,
                "insertion_strategy": self.insertion_strategy,
                "structure": self.structure,
            },
            "levels": sorted([v, self.level(v)] for v in self.vertices()),
            "edges": sorted(self.edges()),
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: dict, tracker: WorkDepthTracker | None = None
    ) -> "PLDS":
        """Reconstruct a PLDS from :meth:`to_snapshot` output.

        The levels are restored verbatim (no replay), so estimates,
        orientation, and invariants match the snapshotted instance
        exactly.  Raises ``ValueError`` if the snapshot is internally
        inconsistent (a vertex listed twice, a level out of range, an
        edge referencing an unknown vertex, a self-loop or a duplicate
        edge).
        """
        if snapshot.get("format") != 1:
            raise ValueError("unsupported snapshot format")
        plds = cls(tracker=tracker, **snapshot["params"])
        plds._load_snapshot(snapshot)
        return plds

    def _load_snapshot(self, snapshot: dict) -> None:
        """Fill a freshly initialized structure from snapshot levels and
        edges (no rebalancing, no metering)."""
        for v, level in snapshot["levels"]:
            if not 0 <= level < self.num_levels:
                raise ValueError(f"level {level} of vertex {v} out of range")
            if self._has_vertex(v):
                raise ValueError(f"vertex {v} listed twice")
            self._restore_level(v, level)
        for u, v in snapshot["edges"]:
            if not self._has_vertex(u) or not self._has_vertex(v):
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            self._insert_edge_struct(u, v)
        if self.track_orientation:
            for e in self.edges():
                self._orient[e] = self.orientation_of(*e)

    def level_histogram(self) -> dict[int, int]:
        """Number of vertices per (non-empty) level."""
        hist: dict[int, int] = {}
        for lvl in self._local_levels():
            hist[lvl] = hist.get(lvl, 0) + 1
        return hist

    def group_histogram(self) -> dict[int, int]:
        """Number of vertices per (non-empty) group."""
        hist: dict[int, int] = {}
        for lvl in self._local_levels():
            g = self.group_number(lvl)
            hist[g] = hist.get(g, 0) + 1
        return hist

    def stats(self) -> dict[str, float]:
        """Structure health snapshot: sizes, occupancy, cost so far.

        Useful for monitoring dashboards and debugging; everything here
        is O(n) to compute and side-effect free.
        """
        levels = self._local_levels()
        return {
            "num_vertices": float(self.num_vertices),
            "num_edges": float(self._m),
            "num_levels": float(self.num_levels),
            "levels_per_group": float(self.levels_per_group),
            "max_level_in_use": float(max(levels, default=0)),
            "mean_level": (sum(levels) / len(levels)) if levels else 0.0,
            "work": float(self.tracker.work),
            "depth": float(self.tracker.depth),
            "space_bytes": float(self.space_bytes()),
        }

    def check_invariants(self) -> list[str]:
        """Return human-readable descriptions of any invariant violations.

        Empty list means the structure satisfies Invariants 1 and 2 and its
        U/L bookkeeping is internally consistent.  Intended for tests.
        """
        problems: list[str] = []
        lv = self._lv
        vid = self._vid
        for i in self._local_slots():
            v = vid[i]
            lvl = lv[i]
            up_i = self._up[i]
            down_i = self._down[i]
            actual_deg = len(up_i) + sum(len(s) for s in down_i.values())
            if self._deg[i] != actual_deg:
                problems.append(
                    f"cached degree of v={v} is {self._deg[i]}, "
                    f"structures hold {actual_deg}"
                )
            if len(up_i) > self.inv1_bound(lvl):
                problems.append(
                    f"Invariant 1 violated at v={v}: up={len(up_i)} > "
                    f"{self.inv1_bound(lvl):.2f} (level {lvl})"
                )
            if lvl > 0 and self._deg[i] > 0:
                up_star = len(up_i) + len(down_i.get(lvl - 1, ()))
                if up_star < self.inv2_threshold(lvl):
                    problems.append(
                        f"Invariant 2 violated at v={v}: up*={up_star} < "
                        f"{self.inv2_threshold(lvl):.2f} (level {lvl})"
                    )
            for j in up_i:
                if lv[j] < lvl:
                    problems.append(f"U[{v}] holds {vid[j]} below level {lvl}")
            for lj, bucket in down_i.items():
                if lj >= lvl:
                    problems.append(f"L_{v}[{lj}] exists at/above level {lvl}")
                for j in bucket:
                    if lv[j] != lj:
                        problems.append(
                            f"L_{v}[{lj}] holds {vid[j]} at level {lv[j]}"
                        )
        return problems

    def space_bytes(self) -> int:
        """Byte count of the maintained structures (Sections 5.8 and 6.8).

        Counts 8 bytes per stored level / neighbor entry, the
        bookkeeping granularity the paper's space experiments use, over
        every slot.  The randomized/deterministic variants keep a slot
        for *every* level below ℓ(v) (the O(n log² n) term); the
        space-efficient variant keeps a 16-byte linked-list node only
        for non-empty levels, giving O(n + m).  The orientation table
        adds 24 bytes per edge when tracked.  See docs/cost_model.md
        ("Memory model").
        """
        lv = self._lv
        ups = self._up
        downs = self._down
        linked = self.structure == "space_efficient"
        total = 0
        for i in range(self._n):
            total += 8 + 8 * len(ups[i])  # level + U[v]
            if linked:
                total += sum(16 + 8 * len(s) for s in downs[i].values())
            else:
                total += 8 * lv[i]  # one L_v slot per lower level
                total += sum(8 * len(s) for s in downs[i].values())
        total += 24 * len(self._orient)
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(n={self._n}, m={self._m}, "
            f"K={self.num_levels}, delta={self.delta}, lam={self.lam}, "
            f"shrink={self.group_shrink})"
        )
