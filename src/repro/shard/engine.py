"""Sharded PLDS engine: edge routing, ghost directory, cascade rounds.

The :class:`ShardedEngine` owns one :class:`~repro.shard.kernel.ShardKernel`
per shard plus the two pieces of cross-shard state:

- the **ghost directory** ``vertex -> {shards holding a ghost of it}``,
  which routes a vertex's move events to exactly the shards that mirror
  it (the owner is never in the set);
- the engine-level **rebuild** policy: the Section-5.9 trigger reads the
  *global* vertex count and re-sizes every kernel to the same global
  ``n_hint``, because the per-level threshold tables are a function of
  ``n_hint`` and must match the monolithic PLDS for bit-identical
  rise/desaturate decisions.

Cost accounting: the engine's tracker is the authoritative meter (the
one the registry adapter and the service read).  Kernels meter into
private per-shard trackers; the engine folds each phase in as

    ``work  = sum(shard deltas) [+ messages]``
    ``depth = max(shard deltas) [+ ghost-exchange depth]``

i.e. shards run in parallel (max over the per-shard critical paths)
and each message round pays ``max(apply depths) + ceil(log2 messages)
+ 1`` for the exchange barrier — the simulated ``T_p`` therefore
accounts for the max-over-shards critical path plus the ghost-exchange
rounds, as ``docs/cost_model.md`` specifies.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .. import faults as _faults
from ..core.query import QueryView
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..parallel.engine import WorkDepthTracker
from ..parallel.primitives import log2_ceil
from .kernel import MoveEvent, ShardKernel
from .partition import Partitioner

__all__ = ["ShardedEngine"]


class ShardedEngine(QueryView):
    """Partitioned PLDS: per-shard kernels + ghost directory + rounds."""

    def __init__(
        self,
        n_hint: int,
        partitioner: Partitioner,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        upper_coeff: float | None = None,
        tracker: WorkDepthTracker | None = None,
        insertion_strategy: str = "levelwise",
        structure: str = "randomized",
    ) -> None:
        self.n_hint = max(2, n_hint)
        self.partitioner = partitioner
        self.delta = delta
        self.lam = lam
        self.group_shrink = group_shrink
        self.upper_coeff = upper_coeff
        self.insertion_strategy = insertion_strategy
        self.structure = structure
        self.tracker = tracker if tracker is not None else WorkDepthTracker()
        self.kernels: list[ShardKernel] = [
            self._make_kernel(s, self.n_hint, None)
            for s in range(partitioner.num_shards)
        ]
        #: ghost directory: vertex -> shards holding a ghost of it.
        self._ghost_sites: dict[int, set[int]] = {}

    def _make_kernel(
        self, s: int, n_hint: int, kernel_tracker: WorkDepthTracker | None
    ) -> ShardKernel:
        if kernel_tracker is None:
            # A pool-capable engine tracker hands each kernel a child
            # backend: independent metering (the fold contract below),
            # shared executor/resident images, counters bubbling up.
            subtracker = getattr(self.tracker, "subtracker", None)
            if subtracker is not None:
                kernel_tracker = subtracker()
        owner = self.partitioner.owner
        return ShardKernel(
            shard_id=s,
            owns=lambda v, s=s: owner(v) == s,
            n_hint=n_hint,
            delta=self.delta,
            lam=self.lam,
            group_shrink=self.group_shrink,
            upper_coeff=self.upper_coeff,
            tracker=kernel_tracker,
            insertion_strategy=self.insertion_strategy,
            structure=self.structure,
        )

    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    # ------------------------------------------------------------------
    # Routing and the ghost directory
    # ------------------------------------------------------------------

    def route(
        self, edges: Iterable[tuple[int, int]]
    ) -> list[list[tuple[int, int, bool]]]:
        """Route canonical edges to owner shards.

        Each edge goes to the owners of *both* endpoints (once when they
        coincide); ``counted`` is ``True`` only for the min-endpoint
        owner, preserving the global edge count across shards.
        """
        owner = self.partitioner.owner
        items: list[list[tuple[int, int, bool]]] = [
            [] for _ in range(self.num_shards)
        ]
        for u, v in edges:
            su = owner(u)
            sv = owner(v)
            items[su].append((u, v, True))
            if sv != su:
                items[sv].append((u, v, False))
        return items

    def ghost_levels(
        self, edges: Iterable[tuple[int, int]]
    ) -> dict[int, int]:
        """Current owner-side level of every endpoint in ``edges`` (for
        materializing up-to-date ghosts during an insertion scatter)."""
        owner = self.partitioner.owner
        kernels = self.kernels
        levels: dict[int, int] = {}
        for u, v in edges:
            if u not in levels:
                levels[u] = kernels[owner(u)].level(u)
            if v not in levels:
                levels[v] = kernels[owner(v)].level(v)
        return levels

    def register_ghosts(self, shard: int, ids: Iterable[int]) -> None:
        for v in ids:
            sites = self._ghost_sites.get(v)
            if sites is None:
                self._ghost_sites[v] = {shard}
            else:
                sites.add(shard)

    def drop_ghosts(self, shard: int, ids: Iterable[int]) -> None:
        for v in ids:
            sites = self._ghost_sites.get(v)
            if sites is not None:
                sites.discard(shard)
                if not sites:
                    del self._ghost_sites[v]

    # ------------------------------------------------------------------
    # Cascade rounds (scatter-gather quiescence loop)
    # ------------------------------------------------------------------

    def cascade_rounds(self, phase: str) -> tuple[int, int]:
        """Run ``phase`` (``"rise"`` or ``"desaturate"``) rounds until
        global quiescence; returns ``(rounds, total messages)``.

        Each round: every shard processes its bucket at the *global*
        minimum dirty/pending level, the resulting move events are
        routed through the ghost directory (sorted for deterministic
        replay order, hence deterministic metering), and each target
        shard applies them to its mirrors.  The engine tracker is
        charged once per round with the parallel composition described
        in the module docstring; the per-round ``shard.round`` span
        carries ``messages`` so the reconciliation

            ``round.work == sum(child span work) + messages``

        holds with integer equality.
        """
        if phase == "rise":
            site = "plds.rise"
            min_of = ShardKernel.min_dirty_level
            step = ShardKernel.rise_level
        elif phase == "desaturate":
            site = "plds.desaturate"
            min_of = ShardKernel.min_pending_level
            step = ShardKernel.desaturate_level
            self._consider_affected()
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown cascade phase {phase!r}")
        tracker = self.tracker
        kernels = self.kernels
        rounds = 0
        total_messages = 0
        while True:
            live = [m for m in (min_of(k) for k in kernels) if m is not None]
            if not live:
                break
            level = min(live)
            rounds += 1
            fault_plan = _faults.ACTIVE
            if fault_plan is not None:
                fault_plan.hit(site)
            tracer = _tracing.ACTIVE
            mreg = _metrics.ACTIVE
            round_span = (
                tracer.begin(
                    "shard.round", tracker, phase=phase, level=level
                )
                if tracer is not None
                else None
            )
            local_work = 0
            local_depth = 0
            moves_by_owner: list[tuple[int, list[MoveEvent]]] = []
            for s, k in enumerate(kernels):
                since = k.tracker.snapshot()
                span = (
                    tracer.begin(
                        f"shard.{phase}", k.tracker, shard=s, level=level
                    )
                    if tracer is not None
                    else None
                )
                moves = step(k, level)
                if span is not None:
                    tracer.end(span)
                delta = k.tracker.delta(since)
                local_work += delta.work
                if delta.depth > local_depth:
                    local_depth = delta.depth
                if moves:
                    moves_by_owner.append((s, moves))
                    if mreg is not None:
                        mreg.inc(
                            "shard.moves",
                            len(moves),
                            shard=str(s),
                            phase=phase,
                        )
            # Route move events through the ghost directory; sort each
            # target's batch so replay (and its metering) is
            # deterministic despite set-ordered mover iteration.
            events: list[list[MoveEvent]] = [[] for _ in kernels]
            messages = 0
            ghost_sites = self._ghost_sites
            for _s, moves in moves_by_owner:
                for ev in moves:
                    sites = ghost_sites.get(ev[0])
                    if not sites:
                        continue
                    for t in sites:
                        events[t].append(ev)
                        messages += 1
            apply_work = 0
            apply_depth = 0
            for t, evs in enumerate(events):
                if not evs:
                    continue
                evs.sort()
                k = kernels[t]
                since = k.tracker.snapshot()
                span = (
                    tracer.begin(
                        "shard.ghost_apply",
                        k.tracker,
                        shard=t,
                        events=len(evs),
                    )
                    if tracer is not None
                    else None
                )
                k.apply_moves(evs)
                if span is not None:
                    tracer.end(span)
                delta = k.tracker.delta(since)
                apply_work += delta.work
                if delta.depth > apply_depth:
                    apply_depth = delta.depth
            exchange_depth = (
                apply_depth + log2_ceil(messages) + 1 if messages else 0
            )
            tracker.add(
                work=local_work + apply_work + messages,
                depth=local_depth + exchange_depth,
            )
            total_messages += messages
            if round_span is not None:
                round_span.attrs["messages"] = messages
                tracer.end(round_span)
            if mreg is not None:
                mreg.inc("shard.rounds", phase=phase)
                if messages:
                    mreg.inc("shard.messages", messages, phase=phase)
                mreg.observe("shard.round_messages", messages, phase=phase)
        return rounds, total_messages

    def _consider_affected(self) -> None:
        """Fold every shard's post-deletion desire scans into the engine
        meter (parallel across shards: sum work, max depth)."""
        total = 0
        deepest = 0
        for k in self.kernels:
            since = k.tracker.snapshot()
            k.consider_affected()
            delta = k.tracker.delta(since)
            total += delta.work
            if delta.depth > deepest:
                deepest = delta.depth
        if total:
            self.tracker.add(work=total, depth=deepest)

    # ------------------------------------------------------------------
    # Engine-level rebuild (Section 5.9, globally coordinated)
    # ------------------------------------------------------------------

    def needs_rebuild(self) -> bool:
        return self.num_vertices > self.n_hint

    def rebuild(self) -> None:
        """Re-size every kernel to the global ``2 * n`` hint and replay.

        Charges the same gather cost as the monolithic rebuild, then
        replays the edge set through the normal scatter + rise-round
        machinery from all-zero levels — which converges to the same
        least fixpoint (and hence the same estimates) as the monolithic
        replay, whatever the shard count.
        """
        edges = sorted(self.edges())
        verts = sorted(self.vertices())
        new_hint = max(2, 2 * len(verts))
        self.tracker.add(
            work=max(1, len(edges) + len(verts)),
            depth=log2_ceil(max(2, len(edges))) + 1,
        )
        self.n_hint = new_hint
        old_kernels = self.kernels
        self.kernels = [
            self._make_kernel(s, new_hint, k.tracker)
            for s, k in enumerate(old_kernels)
        ]
        for k in old_kernels:
            # Replaced kernels must not leave resident shared-memory
            # segments behind (their slot numbering is dead anyway).
            image = getattr(k, "_pool_image", None)
            if image is not None:
                image.close()
        self._ghost_sites = {}
        owner = self.partitioner.owner
        for v in verts:  # keep isolated vertices alive at level 0
            self.kernels[owner(v)].add_vertex(v)
        if edges:
            self.replay_insert(edges)
        self.take_moved()  # replay moves are not batch moves
        # Kernels were recreated: every level was re-derived and the
        # per-shard epoch serials restarted, so the next publication
        # must be from scratch.
        self._levels_reshaped = True

    def replay_insert(self, edges: list[tuple[int, int]]) -> None:
        """Plain (fault-transparent) insertion scatter + rise rounds —
        the rebuild path; live batches go through the coordinator's
        fault-isolated scatter instead."""
        items = self.route(edges)
        levels = self.ghost_levels(edges)
        total = 0
        deepest = 0
        for s, k in enumerate(self.kernels):
            if not items[s]:
                continue
            since = k.tracker.snapshot()
            new_ghosts = k.apply_insertions(items[s], levels)
            delta = k.tracker.delta(since)
            total += delta.work
            if delta.depth > deepest:
                deepest = delta.depth
            self.register_ghosts(s, new_ghosts)
        if total:
            self.tracker.add(work=total, depth=deepest)
        self.cascade_rounds("rise")

    # ------------------------------------------------------------------
    # Gathered queries
    # ------------------------------------------------------------------

    def level(self, v: int) -> int:
        return self.kernels[self.partitioner.owner(v)].level(v)

    # The shared QueryView surface (coreness_estimate / estimates /
    # core_members / densest_estimate / core_subgraph) gathers over the
    # kernels through these two hooks; shard-local vertex sets are
    # disjoint, so chaining kernels merges without conflicts and in the
    # same order the old per-engine dict merge produced.

    def _level_items(self):
        for k in self.kernels:
            yield from k._level_items()

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        return self.kernels[self.partitioner.owner(v)]._level_deg_of(v)

    @property
    def levels_per_group(self) -> int:
        # Every kernel is built from the same global parameters (the
        # engine-coordinated rebuild re-sizes all shards together).
        return self.kernels[0].levels_per_group

    @property
    def _group_pow(self) -> list[float]:
        return self.kernels[0]._group_pow

    def vertices(self) -> Iterator[int]:
        for k in self.kernels:
            yield from k.vertices()

    def has_edge(self, u: int, v: int) -> bool:
        return self.kernels[self.partitioner.owner(u)].has_edge(u, v)

    @property
    def num_edges(self) -> int:
        return sum(k.num_edges for k in self.kernels)

    @property
    def num_vertices(self) -> int:
        return sum(k.num_vertices for k in self.kernels)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge exactly once (each kernel yields its counted set)."""
        for k in self.kernels:
            yield from k.edges()

    def take_moved(self) -> set[int]:
        moved: set[int] = set()
        for k in self.kernels:
            moved |= k.take_moved()
        return moved

    def space_bytes(self) -> int:
        total = sum(k.space_bytes() for k in self.kernels)
        for sites in self._ghost_sites.values():
            total += 8 + 8 * len(sites)  # directory entry
        return total

    # ------------------------------------------------------------------
    # Cross-shard consistency checks
    # ------------------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Per-kernel checks (shard-prefixed) + mirror/directory audit."""
        problems: list[str] = []
        kernels = self.kernels
        owner = self.partitioner.owner
        for s, k in enumerate(kernels):
            problems.extend(f"shard {s}: {p}" for p in k.check_invariants())
        for v, sites in sorted(self._ghost_sites.items()):
            ov = owner(v)
            home = kernels[ov]
            if not home.is_local(v):
                problems.append(f"ghost directory lists unknown vertex {v}")
                continue
            for t in sorted(sites):
                if t == ov:
                    problems.append(
                        f"directory says {v} is a ghost on its owner shard {t}"
                    )
                    continue
                k = kernels[t]
                if not k.is_ghost(v):
                    problems.append(
                        f"directory says shard {t} mirrors {v}; it does not"
                    )
                elif k.level(v) != home.level(v):
                    problems.append(
                        f"ghost of {v} on shard {t} at level {k.level(v)}, "
                        f"owner holds level {home.level(v)}"
                    )
        for t, k in enumerate(kernels):
            for v in k.ghosts():
                if t not in self._ghost_sites.get(v, ()):
                    problems.append(
                        f"shard {t} holds unregistered ghost of {v}"
                    )
                    continue
                home = kernels[owner(v)]
                for w in k.neighbors(v):
                    if not home.has_edge(v, w):
                        problems.append(
                            f"mirror edge ({v},{w}) on shard {t} missing "
                            f"from owner shard {owner(v)}"
                        )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(shards={self.num_shards}, n={self.num_vertices}, "
            f"m={self.num_edges}, ghosts={len(self._ghost_sites)})"
        )
