"""Shared query surface and epoch-versioned read snapshots.

Every level-structure engine in the repo answers the same queries —
coreness estimates, core membership, core subgraphs, the densest-
subgraph estimate — from the same primitive: the per-vertex ``(level,
degree)`` pair (levels fully determine the structure; Definition 5.11
turns a level into an estimate).  Historically each engine family
hand-rolled those methods; this module collapses them into one
implementation over two host hooks:

- ``_level_items()`` — iterate ``(vertex, level, degree)`` for every
  live vertex, in the host's canonical order;
- ``_level_deg_of(v)`` — the pair for one vertex, ``None`` if absent.

On top of the shared surface sits the **epoch store** (the
asynchronous-reads model of Liu–Shun–Zablotchi, PAPERS.md): an engine
*publishes* an immutable :class:`EpochSnapshot` of its level image at
each commit point, and readers query the snapshot — wait-free, never
observing a torn mid-batch state.  Publication is copy-on-write: the
previous epoch's maps are copied once each (a C-speed ``dict.copy``,
handed to the new epoch already wrapped read-only) and only the
``touched`` vertices re-derived, so a commit pays O(n_prev + |touched|)
map work instead of a full O(n) estimate rebuild.  Publication is
opt-in — engines driven directly (the bench hot path) never publish and
pay nothing.

Service-level epochs also pin their committed edge set as a
:class:`VersionedEdges`: a compacted base plus a chain of per-batch
deltas, so publishing a batch costs O(|B|) amortized, not O(m).

Two pieces of bookkeeping make incremental publication safe:

- :attr:`QueryView.last_moved` — the vertex set moved by the last
  ``update()`` (``None`` means "unknown / everything", the conservative
  full-publish sentinel);
- :attr:`QueryView._levels_reshaped` — set by any operation that
  re-levels vertices outside normal batch accounting (the Section-5.9
  rebuild re-inserts *every* edge; vertex insertion/deletion drops
  records wholesale), forcing the next ``last_moved`` to ``None``.

Both live as *class-attribute defaults* (instance slots are only
assigned on use): ``PLDS._rebuild`` re-runs ``__init__`` in place, and
state initialized there would silently reset the epoch counter on every
rebuild.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping

__all__ = ["CorenessQueries", "EpochSnapshot", "QueryView", "VersionedEdges"]

Edge = tuple[int, int]

#: A delta chain is compacted into a new base once the edits it holds
#: exceed this fraction of the base's size: each compaction costs
#: O(m) and follows Ω(m) edits, so a publish costs O(|B|) amortized.
COMPACT_FRACTION = 0.25

_NO_EDGES: frozenset[Edge] = frozenset()


def _canonical_set(edges: Iterable[Edge]) -> frozenset[Edge]:
    # Batches almost always arrive canonical: keep their tuples rather
    # than allocating a fresh one per edge.
    out = frozenset(edges)
    if any(u > v for u, v in out):
        out = frozenset((u, v) if u < v else (v, u) for u, v in out)
    return out


class VersionedEdges(Set):
    """One immutable version of a committed edge set.

    A version is either a *base* (it holds its edges as a frozenset) or
    a per-batch delta ``(insertions, deletions)`` over its parent
    version.  It behaves as a read-only set of canonical ``(u, v)``
    edges (``in``, ``len``, iteration, comparison with a frozenset);
    the first such use materializes the full set by replaying the
    chain from the nearest base, caches it, and lets go of the parent.
    :meth:`advance` compacts eagerly once the chain's edits exceed
    :data:`COMPACT_FRACTION` of the base, which bounds both the chain
    and the replay cost.
    """

    __slots__ = ("_parent", "_ins", "_dels", "_set", "_base_size", "_pending")

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._parent: VersionedEdges | None = None
        self._ins = self._dels = _NO_EDGES
        self._set: frozenset[Edge] | None = _canonical_set(edges)
        self._base_size = len(self._set)
        self._pending = 0

    def advance(
        self, insertions: Iterable[Edge], deletions: Iterable[Edge]
    ) -> "VersionedEdges":
        """The next version: this one with ``deletions`` removed and
        ``insertions`` added.  O(|B|), plus an amortized compaction."""
        child = VersionedEdges.__new__(VersionedEdges)
        child._parent = self
        child._ins = _canonical_set(insertions) or _NO_EDGES
        child._dels = _canonical_set(deletions) or _NO_EDGES
        child._set = None
        child._base_size = self._base_size
        # Every link counts at least once, so empty batches cannot grow
        # an unbounded chain either.
        child._pending = self._pending + max(1, len(child._ins) + len(child._dels))
        if child._pending > COMPACT_FRACTION * child._base_size:
            child._materialize()
        return child

    def _materialize(self) -> frozenset[Edge]:
        edges = self._set
        if edges is not None:
            return edges
        chain: list[VersionedEdges] = []
        node = self
        while True:
            # Parent before set: a concurrent materialization of ``node``
            # stores its set before it drops the parent link.
            parent = node._parent
            base = node._set
            if base is not None:
                break
            assert parent is not None
            chain.append(node)
            node = parent
        work = set(base)
        for link in reversed(chain):
            work.difference_update(link._dels)
            work.update(link._ins)
        edges = frozenset(work)
        self._set = edges
        # Now a base: descendants stop their replay here, and the
        # ancestors (if no other reader pins them) can be freed.
        self._parent = None
        self._ins = self._dels = _NO_EDGES
        self._base_size = len(edges)
        self._pending = 0
        return edges

    @property
    def pending(self) -> int:
        """Edits between this version and its base (0 for a base)."""
        return self._pending

    @property
    def base_size(self) -> int:
        """Edge count of the base this version's chain replays from."""
        return self._base_size

    @property
    def chain_length(self) -> int:
        """Delta links between this version and the nearest base."""
        length = 0
        node = self
        while node._set is None:
            length += 1
            assert node._parent is not None
            node = node._parent
        return length

    def __contains__(self, edge: object) -> bool:
        return edge in self._materialize()

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VersionedEdges):
            return self._materialize() == other._materialize()
        if isinstance(other, (set, frozenset)):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VersionedEdges(chain={self.chain_length}, "
            f"pending={self._pending}, base={self._base_size})"
        )


class CorenessQueries:
    """Query algebra over a coreness-estimate mapping.

    Hosts implement :meth:`_estimates_view`; everything else — point
    lookups, membership thresholds, the densest-subgraph estimate — is
    derived here, once, for engines, epoch snapshots, and service
    snapshots alike.
    """

    def _estimates_view(self) -> Mapping[int, float]:
        raise NotImplementedError

    def coreness(self, v: int) -> float:
        """Coreness estimate of ``v`` (0.0 for unknown vertices)."""
        return float(self._estimates_view().get(v, 0.0))

    def coreness_map(self) -> dict[int, float]:
        """Estimates for every vertex the structure has seen."""
        return dict(self._estimates_view())

    def core_members(self, k: float) -> set[int]:
        """Vertices whose coreness estimate is at least ``k``."""
        return {v for v, c in self._estimates_view().items() if c >= k}

    def densest_estimate(self) -> tuple[float, set[int]]:
        """``2(2+ε)``-approximate max subgraph density: ``k̂_max / 2``
        plus the witness set achieving the maximum estimate (same
        contract as :func:`repro.core.densest.densest_subgraph_estimate`)."""
        est = self._estimates_view()
        best = 0.0
        for c in est.values():
            if c > best:
                best = c
        if best == 0.0:
            return 0.0, set()
        return best / 2.0, {v for v, c in est.items() if c == best}


@dataclass(frozen=True)
class EpochSnapshot(CorenessQueries):
    """One immutable published read epoch.

    ``estimates`` and ``levels`` are exposed through read-only mapping
    proxies — an epoch, once published, never changes (that is the whole
    consistency contract).  A plain mapping is copied; a
    ``MappingProxyType`` is taken as is, so a publisher that built fresh
    dicts hands them over wrapped and pays no second copy (it must not
    keep a reference to the dict it wrapped).  Engine-level epochs carry
    just the level image; service-level epochs additionally pin the
    committed edge set (a :class:`VersionedEdges`, for
    :meth:`core_subgraph`), the batch horizon, and the degradation flag,
    and sharded engines record the per-shard epoch vector that was
    scatter-gathered at the commit point.
    """

    epoch: int
    estimates: Mapping[int, float] = field(repr=False)
    levels: Mapping[int, int] = field(repr=False)
    #: stable per-shard epoch vector (sharded engines only).
    shard_epochs: tuple[int, ...] | None = None
    #: committed batches reflected by this epoch (service-level).
    batches_applied: int = 0
    #: was the service degraded when this epoch was published?
    degraded: bool = False
    #: committed edge set (service-level; ``None`` for engine epochs).
    edges: AbstractSet[Edge] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("estimates", "levels"):
            value = getattr(self, name)
            if not isinstance(value, MappingProxyType):
                object.__setattr__(self, name, MappingProxyType(dict(value)))

    def _estimates_view(self) -> Mapping[int, float]:
        return self.estimates

    def copy_maps(self) -> tuple[dict[int, float], dict[int, int]]:
        """Fresh ``(estimates, levels)`` dicts for a publisher deriving
        the next epoch: one C-level ``dict.copy`` each (the generic
        ``dict(proxy)`` mapping walk is over ten times slower)."""
        est, lv = self.estimates, self.levels
        return (
            est.copy() if isinstance(est, MappingProxyType) else dict(est),
            lv.copy() if isinstance(lv, MappingProxyType) else dict(lv),
        )

    def level(self, v: int) -> int:
        """Level of ``v`` as of this epoch (0 for unknown vertices)."""
        return self.levels.get(v, 0)

    def core_subgraph(self, k: int) -> tuple[set[int], list[tuple[int, int]]]:
        """The exact k-core of the epoch's pinned edge set.

        Only service-level epochs pin their edges; engine-level epochs
        raise ``ValueError`` (re-deriving a full edge copy per epoch is
        exactly the cost the copy-on-write store avoids).
        """
        if self.edges is None:
            raise ValueError(
                "this epoch does not pin an edge set; "
                "query core_subgraph through a service reader"
            )
        from ..static_kcore.subgraphs import k_core_subgraph

        return k_core_subgraph(sorted(self.edges), k)


#: What readers see before anything was ever published: the (empty)
#: construction-time state, which is trivially prefix-consistent.
EMPTY_EPOCH = EpochSnapshot(epoch=0, estimates={}, levels={})


class QueryView(CorenessQueries):
    """Mixin giving a level-structure engine the shared query surface
    plus copy-on-write epoch publication.

    Hosts provide :meth:`_level_items` / :meth:`_level_deg_of` and the
    estimate parameters ``levels_per_group`` / ``_group_pow``; the
    mixin provides every derived query, bit-identical to the previously
    hand-rolled per-engine implementations.
    """

    # Class-attribute defaults, NOT __init__ state: PLDS._rebuild()
    # re-runs __init__ in place and must not reset the epoch store.
    _published: EpochSnapshot | None = None
    _epoch_serial: int = 0
    #: vertices moved by the last update(); ``None`` = publish fully.
    last_moved: "set[int] | frozenset[int] | None" = None
    #: set by rebuild / vertex insertion / vertex deletion: the level
    #: image was reshaped outside batch move accounting.
    _levels_reshaped: bool = False

    # -- host hooks ----------------------------------------------------

    def _level_items(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(vertex, level, degree)`` over live vertices."""
        raise NotImplementedError

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        """``(level, degree)`` of ``v``, or ``None`` if absent."""
        raise NotImplementedError

    # -- the shared query surface --------------------------------------

    def coreness_estimate(self, v: int) -> float:
        """``k̂(v) = (1+δ)^{max(⌊(ℓ(v)+1)/levels_per_group⌋ - 1, 0)}``
        (Definition 5.11).

        Degree-0 vertices (necessarily at level 0) estimate 0, matching
        the paper's experimental convention (Section 6.2).
        """
        pair = self._level_deg_of(v)
        if pair is None or pair[1] == 0:
            return 0.0
        exponent = max((pair[0] + 1) // self.levels_per_group - 1, 0)
        return self._group_pow[exponent]

    def coreness_estimates(self) -> dict[int, float]:
        """Estimates for every vertex the structure has seen."""
        lpg = self.levels_per_group
        pow_table = self._group_pow
        return {
            v: (0.0 if deg == 0 else pow_table[max((lvl + 1) // lpg - 1, 0)])
            for v, lvl, deg in self._level_items()
        }

    def _estimates_view(self) -> Mapping[int, float]:
        return self.coreness_estimates()

    def core_subgraph(self, k: int) -> tuple[set[int], list[tuple[int, int]]]:
        """The exact k-core of the engine's current edge set (peeled)."""
        from ..static_kcore.subgraphs import k_core_subgraph

        return k_core_subgraph(self.edges(), k)

    # -- epoch publication ---------------------------------------------

    def publish_epoch(
        self, touched: Iterable[int] | None = None
    ) -> EpochSnapshot:
        """Publish the current level image as a new immutable epoch.

        ``touched`` names the vertices whose entries may differ from the
        previous epoch (batch endpoints plus :attr:`last_moved`); their
        entries are re-derived on a copy of the previous epoch's maps.
        ``touched=None`` — or a pending :attr:`_levels_reshaped` flag —
        publishes from scratch.  Call this only at commit points: a
        snapshot taken mid-apply would capture exactly the torn state
        the epoch store exists to hide.
        """
        if self._levels_reshaped:
            touched = None
            self._levels_reshaped = False
        prev = self._published
        if prev is None or touched is None:
            estimates = self.coreness_estimates()
            levels = {v: lvl for v, lvl, _ in self._level_items()}
        else:
            estimates, levels = prev.copy_maps()
            lpg = self.levels_per_group
            pow_table = self._group_pow
            for v in touched:
                pair = self._level_deg_of(v)
                if pair is None:
                    estimates.pop(v, None)
                    levels.pop(v, None)
                else:
                    lvl, deg = pair
                    estimates[v] = (
                        0.0
                        if deg == 0
                        else pow_table[max((lvl + 1) // lpg - 1, 0)]
                    )
                    levels[v] = lvl
        self._epoch_serial += 1
        snap = EpochSnapshot(
            epoch=self._epoch_serial,
            estimates=MappingProxyType(estimates),
            levels=MappingProxyType(levels),
        )
        self._published = snap
        return snap

    def read_view(self) -> EpochSnapshot:
        """The last published epoch (wait-free; never blocks on an
        in-flight update).  Before any publication, the empty epoch-0
        construction state."""
        pub = self._published
        return pub if pub is not None else EMPTY_EPOCH

    @property
    def read_epoch(self) -> int:
        """Serial of the last published epoch (0 = never published)."""
        return self._epoch_serial
