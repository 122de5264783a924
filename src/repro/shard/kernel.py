"""Shard-local PLDS cascade kernel with ghost-level replication.

A :class:`ShardKernel` is a :class:`~repro.core.plds.PLDS` whose slots
hold every *local* vertex (the ones its
:class:`~repro.shard.partition.Partitioner` assigns to it) plus
read-mostly **ghost** slots mirroring the remote endpoints of local
edges.  The structural invariant the cascade correctness rests on:

    every neighbor of a local vertex has a slot on the shard (local or
    ghost), and a ghost's adjacency is restricted to the shard's local
    vertices (ghosts are never linked to ghosts).

Local up-degrees, up*-degrees and desire-level scans are therefore
*exact* given the current ghost levels; ghost levels lag their owners by
at most one message round.  The level-message boundary:

- cascade steps (:meth:`rise_level`, :meth:`desaturate_level`) process
  only the shard's own dirty/pending buckets and emit **move events**
  ``(v, old_level, new_level)`` for every local move, instead of
  marking remote neighbors directly (the marking a monolithic PLDS does
  in-line is skipped for ghosts);
- :meth:`apply_moves` replays remote events onto the local ghost slots
  via the slot primitives ``_move_up_to_slot`` / ``_move_down_slot`` —
  whose returned newly-marked / weakened slots are all local (ghost
  adjacency is local-only) and feed the shard's own dirty/pending state.

The engine's :meth:`~repro.shard.engine.ShardedEngine.cascade_rounds`
alternates step and apply until global quiescence; the monotone-fixpoint
argument for Algorithms 2/3 (rises never overshoot the least fixpoint
and still-violating vertices are re-marked at event-apply time; dually
for desaturation with move-time revalidation) makes the final levels —
and hence the coreness estimates — independent of the shard count.

Edge-count discipline: an edge is *held* by both endpoint owners but
*counted* (``_m``) only by the owner of its min endpoint, so
:meth:`edges` (which yields ``(v, w)`` for local ``v`` with ``v < w``)
enumerates exactly the shard's counted edges and the union over shards
is the global edge set, duplicate-free.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..core.plds import PLDS
from ..parallel.engine import WorkDepthTracker

__all__ = ["ShardKernel"]

#: A level-move event: (vertex, old_level, new_level).
MoveEvent = tuple[int, int, int]


def _add(buckets: dict[int, set[int]], level: int, v: int) -> None:
    bucket = buckets.get(level)
    if bucket is None:
        buckets[level] = {v}
    else:
        bucket.add(v)


class ShardKernel(PLDS):
    """One shard's PLDS: local slots + ghost slots + cascade state.

    Parameters beyond the PLDS ones:

    shard_id:
        This shard's index (label for spans/metrics/diagnostics).
    owns:
        Predicate ``vertex id -> bool`` telling local from remote
        (derived from the engine's partitioner).

    The kernel never runs :meth:`PLDS.update` — batches arrive
    pre-validated from the coordinator as :meth:`apply_insertions` /
    :meth:`apply_deletions` items, and rebalancing is driven round-wise
    by the engine.  Orientation tracking is unsupported (ghost replicas
    would need their own touched-edge exchange), and the Section-5.9
    rebuild is the *engine's* job: the local trigger is disabled because
    the level-threshold tables must be sized by the global ``n_hint``
    on every shard for shard-count-independent rise/desaturate
    decisions.
    """

    def __init__(
        self,
        shard_id: int,
        owns: Callable[[int], bool],
        n_hint: int,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        upper_coeff: float | None = None,
        tracker: WorkDepthTracker | None = None,
        insertion_strategy: str = "levelwise",
        structure: str = "randomized",
    ) -> None:
        super().__init__(
            n_hint,
            delta=delta,
            lam=lam,
            group_shrink=group_shrink,
            upper_coeff=upper_coeff,
            tracker=tracker,
            track_orientation=False,
            insertion_strategy=insertion_strategy,
            structure=structure,
        )
        self.shard_id = shard_id
        self.owns = owns
        #: ids of the ghost slots (replicas of remote neighbors).
        self._ghosts: set[int] = set()
        #: rise state: level -> local vertex ids marked dirty there.
        self._dirty: dict[int, set[int]] = {}
        #: desaturate state: vertex -> stored desire level, and
        #: level -> pending local vertex ids (Algorithm 3's buckets).
        self._desire: dict[int, int] = {}
        self._pending: dict[int, set[int]] = {}
        #: local endpoints touched by deletions, awaiting a desire scan.
        self._affected: set[int] = set()
        #: local vertices moved since the last :meth:`take_moved`.
        self._moved: set[int] = set()

    # ------------------------------------------------------------------
    # Local vs. ghost slots
    # ------------------------------------------------------------------

    def _local_slots(self) -> list[int]:
        ghosts = self._ghosts
        if not ghosts:
            return list(range(self._n))
        vid = self._vid
        return [i for i in range(self._n) if vid[i] not in ghosts]

    @property
    def num_vertices(self) -> int:
        return self._n - len(self._ghosts)

    def vertices(self) -> Iterator[int]:
        """Local vertex ids (ghost replicas are the owner's)."""
        vid = self._vid
        return (vid[i] for i in self._local_slots())

    def ghosts(self) -> list[int]:
        """Ids of the ghost replicas this shard holds, ascending."""
        return sorted(self._ghosts)

    def is_local(self, v: int) -> bool:
        return v in self._slot_of and v not in self._ghosts

    def is_ghost(self, v: int) -> bool:
        return v in self._ghosts

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        if v in self._ghosts:
            return None
        return super()._level_deg_of(v)

    def add_vertex(self, v: int, level: int = 0) -> None:
        """Create local vertex ``v`` at ``level`` (rebuild and snapshot
        restore; no rebalancing, no metering)."""
        self._restore_level(v, level)

    def _ensure(self, v: int, levels: dict[int, int], new_ghosts: list[int]) -> int:
        """``v``'s slot, creating it — as a ghost at its owner's level
        ``levels[v]`` when ``v`` is remote."""
        i = self._slot_of.get(v)
        if i is not None:
            return i
        i = self._slot(v)
        if not self.owns(v):
            self._lv[i] = levels[v]
            self._ghosts.add(v)
            new_ghosts.append(v)
        return i

    # ------------------------------------------------------------------
    # Structural apply steps (scatter phase)
    # ------------------------------------------------------------------

    def load_edges(
        self,
        items: Iterable[tuple[int, int, bool]],
        levels: dict[int, int],
    ) -> list[int]:
        """Link the routed edges ``(u, v, counted)`` without marking or
        metering (snapshot restore).  Returns the new ghosts' ids."""
        new_ghosts: list[int] = []
        for u, v, counted in items:
            self._link_slots(
                self._ensure(u, levels, new_ghosts),
                self._ensure(v, levels, new_ghosts),
            )
            if counted:
                self._m += 1
        return new_ghosts

    def apply_insertions(
        self,
        items: Iterable[tuple[int, int, bool]],
        levels: dict[int, int],
    ) -> list[int]:
        """Link the routed edges ``(u, v, counted)`` into this shard.

        ``levels`` maps every endpoint to its owner's current level, so
        remote endpoints materialize as up-to-date ghosts.  Local
        endpoints are marked dirty (Algorithm 2 seeds); ghost endpoints
        are the owning shard's problem.  Returns the ids of newly
        created ghosts (for the engine's ghost directory).
        """
        items = list(items)
        self.tracker.add(work=2 * len(items), depth=self._mut_depth)
        new_ghosts = self.load_edges(items, levels)
        lv = self._lv
        slot_of = self._slot_of
        ghosts = self._ghosts
        dirty = self._dirty
        for u, v, _counted in items:
            for w in (u, v):
                if w not in ghosts:
                    _add(dirty, lv[slot_of[w]], w)
        return new_ghosts

    def apply_deletions(
        self, items: Iterable[tuple[int, int, bool]]
    ) -> list[int]:
        """Unlink the routed edges; queue local endpoints for desire scans.

        Ghost replicas whose mirrored degree drops to zero are evicted
        (no local vertex needs their level anymore); their ids are
        returned so the engine can prune the ghost directory *after*
        the step commits (rollback safety).
        """
        items = list(items)
        self.tracker.add(work=2 * len(items), depth=self._mut_depth)
        dropped: list[int] = []
        affected = self._affected
        ghosts = self._ghosts
        slot_of = self._slot_of
        deg = self._deg
        for u, v, counted in items:
            self._unlink_slots(slot_of[u], slot_of[v])
            if counted:
                self._m -= 1
            for w in (u, v):
                if w not in ghosts:
                    affected.add(w)
                elif deg[slot_of[w]] == 0:
                    ghosts.discard(w)
                    self._drop_vertex(w)
                    dropped.append(w)
        return dropped

    def consider_affected(self) -> None:
        """Desire-scan every local endpoint the deletion batch touched
        (the ``flat_parfor(sorted(affected), consider)`` prologue of
        Algorithm 3, restricted to this shard)."""
        affected = sorted(self._affected)
        self._affected.clear()
        if not affected:
            return
        slot_of = self._slot_of
        body = lambda v: self._consider(slot_of[v])  # noqa: E731
        if self._pool_track:
            # A pool-capable backend ships this scan to worker processes
            # over the kernel's resident local+ghost image; the inline
            # body is the fallback and the semantics/charge reference.
            from ..parallel.pool import attach_consider_task

            attach_consider_task(self, body, self._note_desire)
        self.tracker.flat_parfor(affected, body)

    # ------------------------------------------------------------------
    # Level-synchronous cascade steps (round phase)
    # ------------------------------------------------------------------

    def min_dirty_level(self) -> int | None:
        return min(self._dirty) if self._dirty else None

    def min_pending_level(self) -> int | None:
        return min(self._pending) if self._pending else None

    def rise_level(self, level: int) -> list[MoveEvent]:
        """Process this shard's dirty bucket at ``level`` (one Algorithm-2
        level iteration) and return the resulting move events.

        Identical decisions to the monolithic loop, with one boundary
        difference: a ghost up-neighbor crossing its Invariant-1 bound
        is *not* marked here — its owner marks it when
        :meth:`apply_moves` replays this shard's move events there
        (``_move_up_to_slot`` uses a ``>``-bound check, so the owner-side
        mark is violation-driven and robust to stale mirror counts).
        """
        moves: list[MoveEvent] = []
        tracker = self.tracker
        tracker.add(work=1, depth=1)  # the level-loop iteration itself
        candidates = self._dirty.pop(level, None)
        if not candidates:
            return moves
        bounds = self._inv1_bound_int
        bound = bounds[level]
        dirty = self._dirty
        moved_add = self._moved.add
        slot_of = self._slot_of
        lv = self._lv
        ups = self._up
        vid = self._vid
        ghosts = self._ghosts

        if self.insertion_strategy == "jump":
            movers = sorted(
                v
                for v in candidates
                if lv[(i := slot_of[v])] == level and len(ups[i]) > bound
            )
            if not movers:
                return moves

            def rise(v: int) -> None:
                i = slot_of[v]
                newly_marked = self._move_up_to_slot(i, self._up_desire_slot(i))
                moved_add(v)
                moves.append((v, level, lv[i]))
                if len(ups[i]) > bounds[lv[i]]:
                    newly_marked.append(i)
                for j in newly_marked:
                    w = vid[j]
                    if w not in ghosts:  # the owner marks a ghost off our event
                        _add(dirty, lv[j], w)

            tracker.flat_parfor(movers, rise)
        else:
            # Levelwise: every mover rises exactly one level, charged in
            # aggregate like the monolithic loop (the sum of |U[v]| over
            # movers as work, one structure-mutation depth).  A mover's
            # |U[v]| is unchanged while its own level is processed, so
            # the set-ordered visit is parity-safe; everything it newly
            # marks sits at ``level + 1``.
            target = level + 1
            bound_t = bounds[target]
            total_work = 0
            marked: set[int] = set()
            for v in candidates:
                i = slot_of[v]
                if lv[i] != level:
                    continue
                up_i = ups[i]
                if len(up_i) <= bound:
                    continue
                moved_add(v)
                total_work += len(up_i)
                for j in self._move_up_raw(i, target):
                    w = vid[j]
                    if w not in ghosts:
                        marked.add(w)
                moves.append((v, level, target))
                if len(up_i) > bound_t:
                    marked.add(v)
            if not total_work:
                return moves
            tracker.add(total_work, self._mut_depth)
            if marked:
                bucket = dirty.get(target)
                if bucket is None:
                    dirty[target] = marked
                else:
                    bucket.update(marked)
        if self._pool_track and moves:
            self._pool_note_ids(ev[0] for ev in moves)
        return moves

    def desaturate_level(self, level: int) -> list[MoveEvent]:
        """Process this shard's pending bucket at ``level`` (one
        Algorithm-3 level iteration) and return the move events.

        Desire levels are revalidated at move time exactly as in the
        monolithic loop — with ghosts this also absorbs cross-shard
        staleness: mirrored levels only over-estimate during a deletion
        phase, so a stored desire is only ever too high, and the fresh
        scan (or a later weakened-propagation re-consider) corrects it.
        """
        moves: list[MoveEvent] = []
        tracker = self.tracker
        tracker.add(work=1, depth=1)
        bucket = self._pending.pop(level, None)
        if not bucket:
            return moves
        desire = self._desire
        slot_of = self._slot_of
        lv = self._lv
        movers = sorted(
            v
            for v in bucket
            if desire.get(v) == level and lv[slot_of[v]] > level
        )
        if not movers:
            return moves
        pending = self._pending
        moved_add = self._moved.add
        vid = self._vid
        ghosts = self._ghosts

        def descend(v: int) -> None:
            i = slot_of[v]
            fresh = self._desire_slot(i)
            if fresh != level:
                if fresh < lv[i]:
                    desire[v] = fresh
                    _add(pending, fresh, v)
                else:
                    desire.pop(v, None)
                return
            old = lv[i]
            weakened = self._move_down_slot(i, level)
            moved_add(v)
            moves.append((v, old, level))
            desire.pop(v, None)
            for j in weakened:
                w = vid[j]
                if w in ghosts:
                    continue  # the owner re-considers it off our event
                desire.pop(w, None)
                self._consider(j)

        tracker.flat_parfor(movers, descend)
        if self._pool_track and moves:
            self._pool_note_ids(ev[0] for ev in moves)
        return moves

    def apply_moves(self, events: Iterable[MoveEvent]) -> None:
        """Replay remote move events onto this shard's ghost slots.

        Upward events re-mark local neighbors that now violate
        Invariant 1; downward events re-consider local neighbors whose
        ``up*`` shrank.  All fallout is local by construction (ghost
        adjacency holds local slots only).
        """
        dirty = self._dirty
        desire = self._desire
        ghosts = self._ghosts
        slot_of = self._slot_of
        lv = self._lv
        vid = self._vid
        changed: list[int] = []
        for v, _old, new in events:
            if v not in ghosts:
                continue
            i = slot_of[v]
            if lv[i] == new:
                continue
            changed.append(v)
            if new > lv[i]:
                for j in self._move_up_to_slot(i, new):
                    _add(dirty, lv[j], vid[j])
            else:
                for j in self._move_down_slot(i, new):
                    desire.pop(vid[j], None)
                    self._consider(j)
        if self._pool_track and changed:
            self._pool_note_ids(changed)

    def _consider(self, i: int) -> None:
        """Algorithm 3's Invariant-2 check + desire enqueue for a local
        slot (the monolithic ``consider`` closure, shard-resident)."""
        lvl = self._lv[i]
        if lvl == 0:
            return
        below = self._down[i].get(lvl - 1)
        up_star = len(self._up[i]) + (len(below) if below else 0)
        if up_star < self._inv2_thresh_int[lvl]:
            self._note_desire(self._vid[i], self._desire_slot(i))

    def _note_desire(self, v: int, dl: int) -> None:
        self._desire[v] = dl
        _add(self._pending, dl, v)

    def take_moved(self) -> set[int]:
        """Local vertices moved since the last call (and reset)."""
        moved = self._moved
        self._moved = set()
        return moved

    # ------------------------------------------------------------------
    # Shard-local rollback (the ``shard.apply`` fault boundary)
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """Structural copy for shard-local rollback.

        The slot arrays, the ghost set, the counted-edge total and the
        moved set are copied, so a restore is exact down to the slot
        numbering.  Cascade state (dirty/desire/pending/affected) is
        *not* captured: a shard step is only retried from the quiescent
        pre-scatter state, where all of it is empty.
        """
        return {
            "slot_of": dict(self._slot_of),
            "vid": list(self._vid),
            "lv": list(self._lv),
            "deg": list(self._deg),
            "up": [set(s) for s in self._up],
            "down": [
                {lvl: set(b) for lvl, b in d.items()} for d in self._down
            ],
            "ghosts": set(self._ghosts),
            "m": self._m,
            "moved": set(self._moved),
        }

    def restore_state(self, state: dict) -> None:
        """Put this shard back to :meth:`capture_state`'s copy (which it
        takes over: a state is restored at most once)."""
        self._pool_renumber = True
        del self._pool_dirty_slots[:]
        self._slot_of = state["slot_of"]
        self._vid = state["vid"]
        self._n = len(self._vid)
        self._lv = state["lv"]
        self._deg = state["deg"]
        self._up = state["up"]
        self._down = state["down"]
        self._ghosts = state["ghosts"]
        self._m = state["m"]
        self._moved = state["moved"]
        self._dirty = {}
        self._desire = {}
        self._pending = {}
        self._affected = set()

    # ------------------------------------------------------------------
    # Per-shard read epochs
    # ------------------------------------------------------------------

    def publish_epoch(self, touched=None):
        """Publish this shard's local level image as a read epoch.

        The QueryView hooks skip ghost slots, so a shard epoch covers
        exactly the shard's *owned* vertices — ghost mirrors carry no
        estimates of their own.  Any remote ids in ``touched`` are
        filtered out up front: a ghost's level change is the owner
        shard's move, and republishing it here would only pay useless
        pop/no-op work on every ghost-churn round.

        Shard-local rollback (:meth:`restore_state`) deliberately leaves
        the published epoch alone: readers keep seeing the last epoch
        the coordinator published at a quiescent commit point, never the
        half-applied state the rollback is erasing.
        """
        if touched is not None:
            owns = self.owns
            touched = [v for v in touched if owns(v)]
        return super().publish_epoch(touched)

    # ------------------------------------------------------------------
    # Overrides: engine-owned rebuild, ghost-aware checks
    # ------------------------------------------------------------------

    def _maybe_rebuild(self) -> None:
        # Rebuilds are coordinated by the engine: the trigger must read
        # the *global* vertex count and every shard must re-size to the
        # same global n_hint, or the per-level threshold tables diverge
        # from the monolithic structure and parity breaks.
        return

    def check_invariants(self) -> list[str]:
        """Inherited per-local-vertex checks + ghost bookkeeping checks.

        (Cross-shard mirror/directory consistency is the engine's
        check; this one sees a single shard.)
        """
        problems = super().check_invariants()
        for v in sorted(self._ghosts):
            if self.owns(v):
                problems.append(f"vertex {v} is a ghost on its owner shard")
            if self.degree(v) == 0:
                problems.append(f"ghost {v} has degree 0 (should be evicted)")
            for w in self.neighbors(v):
                if w in self._ghosts:
                    problems.append(
                        f"ghost {v} adjacent to non-local vertex {w}"
                    )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardKernel(shard={self.shard_id}, local={self.num_vertices}, "
            f"ghosts={len(self._ghosts)}, m={self._m})"
        )
