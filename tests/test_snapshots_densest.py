"""Tests for PLDS snapshots and the densest-subgraph extension."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.densest import charikar_peel, densest_subgraph_estimate
from repro.core.plds import PLDS
from repro.graphs.generators import (
    barabasi_albert,
    erdos_renyi,
    planted_clique,
    ring_of_cliques,
)
from repro.graphs.streams import Batch

from .conftest import assert_no_violations, build_plds


class TestSnapshots:
    def test_roundtrip_preserves_everything(self):
        plds = build_plds(
            erdos_renyi(60, 240, seed=1), track_orientation=True
        )
        snap = plds.to_snapshot()
        restored = PLDS.from_snapshot(snap)
        assert restored.coreness_estimates() == plds.coreness_estimates()
        assert sorted(restored.edges()) == sorted(plds.edges())
        assert {v: restored.level(v) for v in restored.vertices()} == {
            v: plds.level(v) for v in plds.vertices()
        }
        assert_no_violations(restored)

    def test_snapshot_is_json_serializable(self):
        plds = build_plds(erdos_renyi(30, 90, seed=2))
        text = json.dumps(plds.to_snapshot())
        restored = PLDS.from_snapshot(json.loads(text))
        assert restored.num_edges == 90

    def test_restored_structure_accepts_updates(self):
        edges = erdos_renyi(50, 180, seed=3)
        plds = build_plds(edges, track_orientation=True)
        restored = PLDS.from_snapshot(plds.to_snapshot())
        rng = random.Random(0)
        dels = rng.sample(edges, 60)
        restored.update(Batch(deletions=dels))
        assert_no_violations(restored)
        assert restored.num_edges == 120

    def test_orientation_restored(self):
        plds = build_plds(erdos_renyi(40, 150, seed=4), track_orientation=True)
        restored = PLDS.from_snapshot(plds.to_snapshot())
        for u, v in restored.edges():
            assert restored.orientation_of(u, v) == plds.orientation_of(u, v)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            PLDS.from_snapshot({"format": 99})

    def test_inconsistent_edge_rejected(self):
        plds = build_plds([(0, 1)])
        snap = plds.to_snapshot()
        snap["edges"].append((7, 8))
        with pytest.raises(ValueError):
            PLDS.from_snapshot(snap)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda snap: snap["edges"].append(list(snap["edges"][0])),
            lambda snap: snap["edges"].append(list(reversed(snap["edges"][0]))),
            lambda snap: snap["edges"].append([0, 0]),
            lambda snap: snap["levels"].append([0, 1]),
        ],
        ids=["duplicate-edge", "reversed-duplicate", "self-loop", "repeated-vertex"],
    )
    def test_corrupt_snapshot_rejected(self, corrupt):
        plds = build_plds([(0, 1), (1, 2)])
        snap = json.loads(json.dumps(plds.to_snapshot()))
        corrupt(snap)
        with pytest.raises(ValueError):
            PLDS.from_snapshot(snap)

    def test_out_of_range_level_rejected(self):
        plds = build_plds([(0, 1)])
        snap = plds.to_snapshot()
        snap["levels"][0][1] = 10**9
        with pytest.raises(ValueError):
            PLDS.from_snapshot(snap)

    def test_isolated_vertices_survive(self):
        plds = PLDS(n_hint=10)
        plds.insert_vertices([3, 7])
        restored = PLDS.from_snapshot(plds.to_snapshot())
        assert restored.num_vertices == 2
        assert restored.coreness_estimate(3) == 0.0


class TestCharikarPeel:
    def test_clique_is_its_own_densest(self):
        clique = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        density, vs = charikar_peel(clique)
        assert density == pytest.approx(28 / 8)
        assert vs == set(range(8))

    def test_planted_clique_found(self):
        edges = planted_clique(100, 120, 10, seed=1)
        density, vs = charikar_peel(edges)
        assert density >= (10 * 9 / 2) / 10 / 2  # >= rho*/2 >= clique/2
        assert set(range(10)) & vs  # witness overlaps the plant

    def test_empty(self):
        assert charikar_peel([]) == (0.0, set())

    def test_single_edge(self):
        density, vs = charikar_peel([(0, 1)])
        assert density == pytest.approx(0.5)
        assert vs == {0, 1}


class TestDensestEstimate:
    @pytest.mark.parametrize(
        "edges",
        [
            erdos_renyi(120, 600, seed=5),
            barabasi_albert(150, 5, seed=6),
            ring_of_cliques(6, 7),
            planted_clique(80, 100, 12, seed=7),
        ],
        ids=["er", "ba", "cliques", "planted"],
    )
    def test_within_analysis_factor(self, edges):
        plds = build_plds(edges)
        est, witness = densest_subgraph_estimate(plds)
        greedy, _ = charikar_peel(edges)
        # greedy <= rho* <= 2*greedy and est in [rho*/(2(2+eps)), (2+eps)rho*]
        factor = plds.approximation_factor()
        rho_low, rho_high = greedy, 2 * greedy
        assert est >= rho_low / (2 * factor) - 1e-9
        assert est <= factor * rho_high + 1e-9
        assert witness

    def test_empty_structure(self):
        plds = PLDS(n_hint=10)
        assert densest_subgraph_estimate(plds) == (0.0, set())

    def test_witness_in_top_group(self):
        edges = planted_clique(60, 80, 10, seed=8)
        plds = build_plds(edges)
        est, witness = densest_subgraph_estimate(plds)
        top = max(plds.coreness_estimate(v) for v in plds.vertices())
        assert all(plds.coreness_estimate(v) == top for v in witness)
