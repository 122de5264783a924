"""The slot-indexed PLDS layout: query surface, slots, level image, space.

:class:`repro.core.plds.PLDS` keeps every vertex in a dense slot with
parallel level/degree/adjacency arrays (``PLDSFlat`` is the old name of
the same class, kept as an alias).  Cascade parity — coreness and
metered (work, depth) — is pinned by ``tests/test_golden_parity.py``;
this module checks what the fixture does not see:

- the query surface (neighbors, degrees, ``has_edge``, edges, in/out
  neighbors) against a :class:`~repro.graphs.dynamic_graph.DynamicGraph`
  replay of the same stream and against :meth:`PLDS.orientation_of`;
- slot compaction on vertex deletion, the int32 level image, the
  Section-5.9 rebuild and snapshot round trips;
- the Section-5.8 space model, which every PLDS key reports alike.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core.plds import PLDS
from repro.core.plds_flat import PLDSFlat
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.streams import Batch
from repro.registry import make_adapter
from repro.shard import Coordinator

from .test_golden_parity import _N_HINT, _TRAJECTORY, _load_fixture, _stream

#: constructor kwargs per scenario.
CONFIGS: dict[str, dict] = {
    "levelwise": {},
    "jump": {"insertion_strategy": "jump"},
    "opt": {"group_shrink": 50, "insertion_strategy": "jump"},
    "opt-levelwise": {"group_shrink": 50},
    "orient-det": {"track_orientation": True, "structure": "deterministic"},
    "space": {"structure": "space_efficient"},
}


def _replay(
    n_hint: int, batches: list[Batch] | None = None, **kwargs
) -> tuple[PLDS, DynamicGraph]:
    plds = PLDS(n_hint=n_hint, **kwargs)
    graph = DynamicGraph()
    for batch in _stream() if batches is None else batches:
        plds.update(batch)
        for e in batch.insertions:
            graph.insert_edge(*e)
        for e in batch.deletions:
            graph.delete_edge(*e)
    return plds, graph


def _assert_query_surface(plds: PLDS, graph: DynamicGraph) -> None:
    assert plds.check_invariants() == []
    assert plds.num_edges == graph.num_edges
    assert sorted(plds.edges()) == sorted(graph.edges())
    for v in set(plds.vertices()) | set(graph.vertices()):
        nbrs = sorted(graph.neighbors(v)) if graph.has_vertex(v) else []
        assert plds.neighbors(v) == nbrs
        assert plds.degree(v) == len(nbrs)
        out = [w for w in nbrs if plds.orientation_of(v, w) == (v, w)]
        assert plds.out_neighbors(v) == out
        assert plds.out_degree(v) == len(out)
        assert plds.in_neighbors(v) == sorted(set(nbrs) - set(out))
        lv = plds.level(v)
        assert plds.up_degree(v) == sum(plds.level(w) >= lv for w in nbrs)
        assert plds.up_star_degree(v) == sum(
            plds.level(w) >= lv - 1 for w in nbrs
        )
    for u, v in graph.edges():
        assert plds.has_edge(u, v) and plds.has_edge(v, u)
    assert not plds.has_edge(10**6, 0)
    # Slots stay dense and the two directions of the slot map agree.
    assert sorted(plds._slot_of.values()) == list(range(plds.num_vertices))
    assert all(plds._vid[i] == v for v, i in plds._slot_of.items())


#: golden-fixture entry (recorded from the record-layout engine this
#: layout replaced) for each config.
GOLDEN: dict[str, str] = {
    "levelwise": "plds-levelwise",
    "jump": "plds-jump",
    "opt": "pldsopt",
    "opt-levelwise": "pldsopt-levelwise",
    "orient-det": "plds-orient-det",
    "space": "plds-space",
}


def _assert_golden(plds: PLDS, trajectory: list[list[int]], name: str) -> None:
    fixture = _load_fixture()
    entry = fixture[name]
    assert [plds.tracker.work, plds.tracker.depth] == [
        entry["work"],
        entry["depth"],
    ]
    assert trajectory == fixture[_TRAJECTORY + name]
    assert (
        sorted([v, est] for v, est in plds.coreness_estimates().items())
        == entry["estimates"]
    )


class TestFlatParity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_bit_identical_to_plds(self, config: str) -> None:
        """Every batch's metered cost and the final estimates equal the
        golden entry the record-layout engine recorded."""
        trajectory: list[list[int]] = []
        plds = PLDS(n_hint=_N_HINT, **CONFIGS[config])
        for batch in _stream():
            plds.update(batch)
            trajectory.append([plds.tracker.work, plds.tracker.depth])
        _assert_golden(plds, trajectory, GOLDEN[config])
        assert plds.check_invariants() == []

    def test_rebuild_parity(self) -> None:
        # An undersized hint forces mid-stream rebuilds, which re-run
        # __init__ and recreate every slot.
        plds, graph = _replay(32)
        assert plds.n_hint > 32
        fixture = _load_fixture()["plds-rebuild"]
        assert (plds.tracker.work, plds.tracker.depth) == (
            fixture["work"],
            fixture["depth"],
        )
        _assert_query_surface(plds, graph)

    def test_query_surface_matches(self) -> None:
        for kwargs in CONFIGS.values():
            plds, graph = _replay(_N_HINT, **kwargs)
            _assert_query_surface(plds, graph)

    def test_orientation_table_matches_levels(self) -> None:
        plds, graph = _replay(_N_HINT, track_orientation=True)
        assert sorted(plds._orient) == sorted(graph.edges())
        for e, d in plds._orient.items():
            assert d == plds.orientation_of(*e)
        assert sorted(plds.oriented_edges()) == sorted(plds._orient.values())

    def test_snapshot_roundtrip(self) -> None:
        plds, graph = _replay(_N_HINT)
        clone = PLDSFlat.from_snapshot(plds.to_snapshot())
        assert type(clone) is PLDS
        assert clone.coreness_estimates() == plds.coreness_estimates()
        assert {v: clone.level(v) for v in clone.vertices()} == {
            v: plds.level(v) for v in plds.vertices()
        }
        _assert_query_surface(clone, graph)

    def test_vertex_deletion_compacts_slots(self) -> None:
        batches = _stream()[:4]
        plds, graph = _replay(_N_HINT, batches)
        ref, _ = _replay(_N_HINT, batches)
        victims = sorted(plds.vertices())[::7]
        plds.delete_vertices(victims)
        # The reference only deletes the incident edges: dropping the
        # then-isolated vertices must not move anyone else.
        incident = sorted(
            {(min(v, w), max(v, w)) for v in victims for w in graph.neighbors(v)}
        )
        ref.update(Batch(deletions=incident))
        for v in victims:
            graph.remove_vertex(v)
        assert plds.coreness_estimates() == {
            v: est
            for v, est in ref.coreness_estimates().items()
            if v not in victims
        }
        _assert_query_surface(plds, graph)

    def test_level_bytes_is_contiguous_int32_image(self) -> None:
        plds, _ = _replay(_N_HINT)
        image = plds._level_bytes()
        assert len(image) == 4 * plds.num_vertices
        levels = array("i")
        levels.frombytes(image)
        assert list(levels) == plds._lv

    def test_space_accounting_positive(self) -> None:
        randomized = PLDSFlat(n_hint=_N_HINT)
        linked = PLDSFlat(n_hint=_N_HINT, structure="space_efficient")
        for batch in _stream():
            randomized.update(batch)
            linked.update(batch)
        # Section 5.8: per-level list nodes instead of a slot per level.
        assert 0 < linked.space_bytes() < randomized.space_bytes()
        assert randomized.stats()["space_bytes"] == float(
            randomized.space_bytes()
        )


class TestFlatVsSharded:
    @pytest.mark.parametrize("shards", (1, 2, 4, 7))
    def test_coreness_agreement(self, shards: int) -> None:
        plds = PLDS(n_hint=_N_HINT)
        coord = Coordinator(_N_HINT, shards=shards)
        for batch in _stream():
            plds.update(batch)
            coord.update(batch)
        assert plds.coreness_estimates() == coord.coreness_estimates(), (
            f"PLDS vs {shards}-shard coordinator coreness diverged"
        )


class TestFlatRegistry:
    @pytest.mark.parametrize(
        "flat_key,record_key",
        [("pldsflat", "plds"), ("pldsflatopt", "pldsopt")],
    )
    def test_registry_twins_match(self, flat_key: str, record_key: str) -> None:
        """The ``pldsflat*`` keys are aliases: same estimates, same
        metered cost, same Section-5.8 space."""
        fa = make_adapter(flat_key, _N_HINT)
        ra = make_adapter(record_key, _N_HINT)
        for batch in _stream():
            fa.update(batch)
            ra.update(batch)
        assert fa.estimates() == ra.estimates()
        assert (fa.cost.work, fa.cost.depth) == (ra.cost.work, ra.cost.depth)
        assert fa.space_bytes() == ra.space_bytes() > 0
