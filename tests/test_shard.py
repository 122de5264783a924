"""Sharded serving stack: parity, isolation, and reconciliation tests.

The headline correctness bar of the sharding PR: the partitioned engine's
coreness estimates must be **bit-identical** to the single-structure PLDS
on every golden-parity workload, for every shard count — the confluence
of the cascade's least/greatest-fixpoint iterations makes the shard
decomposition observationally invisible.  Beyond parity, this module
locks the fault-isolation ladder (a ``shard.apply`` fault rolls back only
the affected shard), the per-round span reconciliation (coordinator round
work == sum of shard work + ghost-exchange messages), snapshot round
trips, and the partitioner's ownership algebra.
"""

from __future__ import annotations

import json

import pytest

from repro.core.plds import PLDS
from repro.faults import FaultPlan, FaultPoint, active
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.streams import Batch
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracing import Tracer, iter_spans, tracing
from repro.registry import algorithm_spec, make_adapter
from repro.shard import Coordinator, Partitioner

from .test_golden_parity import _stream

pytestmark = pytest.mark.shard

_N_HINT = 100
_SHARD_COUNTS = (1, 2, 4, 7)


def _configs() -> dict[str, dict]:
    return {
        "levelwise": {},
        "jump": {"insertion_strategy": "jump"},
        "pldsopt": {"group_shrink": 50, "insertion_strategy": "jump"},
    }


def _run_mono(n_hint: int = _N_HINT, **kwargs) -> PLDS:
    plds = PLDS(n_hint=n_hint, **kwargs)
    for b in _stream():
        plds.update(b)
    return plds


def _run_sharded(shards: int, n_hint: int = _N_HINT, **kwargs) -> Coordinator:
    coord = Coordinator(n_hint, shards=shards, **kwargs)
    for b in _stream():
        coord.update(b)
    return coord


# ----------------------------------------------------------------------
# Parity: the acceptance bar
# ----------------------------------------------------------------------


class TestGoldenParity:
    @pytest.mark.parametrize("config", sorted(_configs()))
    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_bit_identical_estimates(self, config: str, shards: int) -> None:
        kwargs = _configs()[config]
        mono = _run_mono(**kwargs)
        coord = _run_sharded(shards, **kwargs)
        assert coord.coreness_estimates() == mono.coreness_estimates(), (
            f"{config} diverged at {shards} shards"
        )
        assert coord.num_edges == mono.num_edges
        assert sorted(coord.edges()) == sorted(mono.edges())

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_rebuild_parity(self, shards: int) -> None:
        # Small n_hint forces engine-coordinated rebuilds mid-stream; the
        # rebuilt kernels must stay on the monolithic trajectory.
        mono = _run_mono(n_hint=32)
        coord = _run_sharded(shards, n_hint=32)
        assert coord.coreness_estimates() == mono.coreness_estimates()
        assert coord.engine.n_hint == mono.n_hint

    def test_degree_balanced_parity(self) -> None:
        batches = _stream()
        initial = list(batches[0].insertions)
        mono = PLDS(n_hint=_N_HINT)
        mono.update(Batch(insertions=initial))
        coord = Coordinator(_N_HINT, shards=4, partition="degree")
        coord.initialize(initial)
        for b in batches[1:]:
            mono.update(b)
            coord.update(b)
        assert coord.coreness_estimates() == mono.coreness_estimates()
        assert coord.partitioner.kind == "degree"

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_invariants_clean(self, shards: int) -> None:
        coord = _run_sharded(shards)
        assert coord.check_invariants() == []

    def test_metering_deterministic(self) -> None:
        a = _run_sharded(4)
        b = _run_sharded(4)
        assert (a.tracker.work, a.tracker.depth) == (
            b.tracker.work,
            b.tracker.depth,
        )


# ----------------------------------------------------------------------
# Partitioner ownership algebra + io round trip
# ----------------------------------------------------------------------


class TestPartitioner:
    def test_every_edge_has_exactly_one_owner(self) -> None:
        part = Partitioner(4)
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        for u, v in edges:
            owner = part.owner_of_edge(u, v)
            assert owner == part.owner_of_edge(v, u) == part.owner(min(u, v))
            assert 0 <= owner < 4

    def test_hash_fallback_and_assignment_overlay(self) -> None:
        part = Partitioner(3, assignment={7: 2})
        assert part.owner(7) == 2          # pinned
        assert part.owner(8) == 8 % 3      # fallback
        assert part.assignment_items() == [[7, 2]]

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Partitioner(0)
        with pytest.raises(ValueError):
            Partitioner(2, kind="range")
        with pytest.raises(ValueError):
            Partitioner(2, assignment={1: 5})
        with pytest.raises(ValueError):
            Coordinator(10, shards=2, partition="range")

    def test_degree_balanced_spreads_load(self) -> None:
        # A star graph: LPT must put the hub alone-ish, not with spokes.
        edges = [(0, i) for i in range(1, 13)]
        part = Partitioner.degree_balanced(DynamicGraph(edges), 3)
        loads = [0, 0, 0]
        g = DynamicGraph(edges)
        for v in g.vertices():
            loads[part.owner(v)] += g.degree(v)
        assert max(loads) - min(loads) <= g.max_degree()

    def test_io_partition_round_trip(self, tmp_path) -> None:
        batches = _stream()
        live: set[tuple[int, int]] = set()
        for b in batches[:5]:
            live |= set(b.insertions)
            live -= set(b.deletions)
        path = tmp_path / "graph.txt"
        write_edge_list(path, sorted(live))
        edges = read_edge_list(path)
        assert sorted(edges) == sorted(live)

        part = Partitioner.degree_balanced(DynamicGraph(edges), 4)
        # Exactly one owner shard per edge: counting each edge at its
        # owner covers the edge set with no duplicates.
        owned: dict[int, list] = {s: [] for s in range(4)}
        for u, v in edges:
            owned[part.owner_of_edge(u, v)].append((u, v))
        flat = [e for group in owned.values() for e in group]
        assert sorted(flat) == sorted(edges)

        # Feed the same graph through the coordinator: no vertex may be
        # a ghost replica on the shard that owns it.
        coord = Coordinator(_N_HINT, shards=4)
        coord.update(Batch(insertions=sorted(edges)))
        for s, kernel in enumerate(coord.engine.kernels):
            for v in kernel._ghosts:
                assert coord.partitioner.owner(v) != s, (
                    f"vertex {v} is a ghost on its owner shard {s}"
                )
            for v in kernel.vertices():
                assert coord.partitioner.owner(v) == s


# ----------------------------------------------------------------------
# Boundary validation: rejected before any shard mutates
# ----------------------------------------------------------------------


class TestBoundaryValidation:
    def _fresh(self) -> Coordinator:
        coord = Coordinator(_N_HINT, shards=4)
        coord.update(Batch(insertions=[(0, 1), (1, 2), (2, 3)]))
        return coord

    def _state(self, coord: Coordinator) -> list:
        return [
            (sorted(k.vertices()), sorted(k.edges()), k.num_edges)
            for k in coord.engine.kernels
        ]

    @pytest.mark.parametrize(
        "batch",
        [
            Batch(insertions=[(4, 5), (-1, 6)]),          # negative id
            Batch(deletions=[(0, -2)]),                   # negative id
            Batch(insertions=[(4, 5), (5, 4)]),           # duplicate insert
            Batch(insertions=[(0, 1)]),                   # already present
            Batch(deletions=[(0, 3)]),                    # not present
            Batch(deletions=[(0, 1), (1, 0)]),            # duplicate delete
            Batch(insertions=[(7, 8)], deletions=[(7, 8)]),  # overlap
        ],
    )
    def test_bad_batch_rejected_before_any_shard_mutates(self, batch) -> None:
        coord = self._fresh()
        before = self._state(coord)
        with pytest.raises(ValueError):
            coord.update(batch)
        assert self._state(coord) == before
        assert coord.check_invariants() == []

    def test_self_loops_dropped_at_the_boundary(self) -> None:
        coord = self._fresh()
        coord.update(Batch(insertions=[(4, 4), (4, 5)]))
        assert coord.has_edge(4, 5)
        assert not coord.has_edge(4, 4)
        assert coord.num_edges == 4


# ----------------------------------------------------------------------
# Fault isolation: shard.apply rolls back only the affected shard
# ----------------------------------------------------------------------


class TestShardFaultIsolation:
    def test_fault_recovers_bit_identical(self) -> None:
        clean = _run_sharded(4)
        plan = FaultPlan([FaultPoint("shard.apply", 2)])
        registry = MetricsRegistry()
        coord = Coordinator(_N_HINT, shards=4)
        with active(plan), collecting(registry):
            for b in _stream():
                coord.update(b)
        assert any(fp.site == "shard.apply" for fp in plan.fired)
        assert coord.coreness_estimates() == clean.coreness_estimates()
        assert coord.check_invariants() == []
        # Exactly the faulted shards rolled back — one rollback per fire.
        rollbacks = sum(
            registry.counter_value("shard.rollbacks", shard=str(s))
            for s in range(4)
        )
        fired = sum(1 for fp in plan.fired if fp.site == "shard.apply")
        assert rollbacks == fired >= 1

    def test_other_shards_keep_state_across_rollback(self) -> None:
        coord = Coordinator(_N_HINT, shards=4)
        coord.update(Batch(insertions=[(0, 1), (2, 3), (5, 6), (8, 9)]))
        kernels = coord.engine.kernels
        before = [
            (dict.fromkeys(k.vertices()), sorted(k.edges())) for k in kernels
        ]
        before_levels = [
            {v: k.level(v) for v in k.vertices()} for k in kernels
        ]
        # One fault on the very next shard.apply hit: the scatter visits
        # shards in order, so shard 0 faults while 1..3 are untouched.
        plan = FaultPlan([FaultPoint("shard.apply", 1)])
        with active(plan):
            coord.update(Batch(insertions=[(4, 12)]))
        assert [fp.site for fp in plan.fired] == ["shard.apply"]
        # The retry succeeded: the edge landed, and every *other* shard's
        # vertex set is exactly its pre-batch state plus nothing.
        assert coord.has_edge(4, 12)
        for s in (1, 2, 3):
            assert {
                v: kernels[s].level(v) for v in before[s][0]
            } == before_levels[s]
        assert coord.check_invariants() == []

    def test_fault_exhausting_retries_escalates(self) -> None:
        coord = Coordinator(_N_HINT, shards=2, shard_retry_limit=2)
        coord.update(Batch(insertions=[(0, 1)]))
        plan = FaultPlan(
            [FaultPoint("shard.apply", h) for h in range(1, 10)]
        )
        from repro.faults import InjectedFault

        with active(plan):
            with pytest.raises(InjectedFault):
                coord.update(Batch(insertions=[(2, 3)]))
        # The failed scatter left the structure rolled back and clean.
        assert not coord.has_edge(2, 3)
        assert coord.check_invariants() == []


# ----------------------------------------------------------------------
# Span reconciliation: round work == sum of shard work + messages
# ----------------------------------------------------------------------


class TestSpanReconciliation:
    def test_round_spans_reconcile_exactly(self) -> None:
        tracer = Tracer()
        coord = Coordinator(_N_HINT, shards=4)
        with tracing(tracer):
            for b in _stream()[:6]:
                coord.update(b)
        rounds = [
            s for s in iter_spans(tracer.roots) if s.name == "shard.round"
        ]
        assert rounds, "no shard.round spans were recorded"
        for r in rounds:
            shard_work = sum(ch.work for ch in r.children)
            assert r.work == shard_work + r.attrs["messages"], (
                f"round at level {r.attrs.get('level')} does not reconcile"
            )
        assert any(r.attrs["messages"] > 0 for r in rounds)

    def test_spans_carry_shard_identity(self) -> None:
        tracer = Tracer()
        coord = Coordinator(_N_HINT, shards=4)
        with tracing(tracer):
            coord.update(Batch(insertions=[(0, 1), (1, 2), (2, 3), (0, 3)]))
        names = {s.name for s in iter_spans(tracer.roots)}
        assert "coordinator.update" in names
        assert "shard.apply" in names
        applies = [
            s for s in iter_spans(tracer.roots) if s.name == "shard.apply"
        ]
        assert {s.attrs["shard"] for s in applies} <= {0, 1, 2, 3}


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_json_round_trip_and_continued_parity(self) -> None:
        batches = _stream()
        coord = Coordinator(_N_HINT, shards=4)
        mono = PLDS(n_hint=_N_HINT)
        for b in batches[:6]:
            coord.update(b)
            mono.update(b)
        blob = json.dumps(coord.to_snapshot(), sort_keys=True)
        restored = Coordinator.from_snapshot(json.loads(blob))
        assert restored.num_shards == 4
        assert restored.coreness_estimates() == coord.coreness_estimates()
        assert restored.check_invariants() == []
        for b in batches[6:]:
            restored.update(b)
            mono.update(b)
        assert restored.coreness_estimates() == mono.coreness_estimates()

    def test_snapshot_rejects_wrong_format(self) -> None:
        with pytest.raises(ValueError):
            Coordinator.from_snapshot({"format": 99, "sharded": True})

    @staticmethod
    def _snapshot() -> dict:
        coord = Coordinator(_N_HINT, shards=4)
        for b in _stream()[:3]:
            coord.update(b)
        return json.loads(json.dumps(coord.to_snapshot()))

    @staticmethod
    def _first_edge(snap: dict) -> tuple[dict, list[int]]:
        section = next(sec for sec in snap["shards"] if sec["edges"])
        return section, section["edges"][0]

    @pytest.mark.parametrize(
        "where", ["same-shard", "reversed", "self-loop", "repeated-vertex"]
    )
    def test_snapshot_rejects_corrupt_sections(self, where: str) -> None:
        snap = self._snapshot()
        section, (u, v) = self._first_edge(snap)
        if where == "same-shard":
            section["edges"].append([u, v])
        elif where == "reversed":
            # The duplicate hides on the other endpoint's shard, reversed.
            other = next(
                sec for sec in snap["shards"] if sec is not section
            )
            other["edges"].append([v, u])
        elif where == "self-loop":
            section["edges"].append([u, u])
        else:
            section["levels"].append(list(section["levels"][0]))
        with pytest.raises(ValueError):
            Coordinator.from_snapshot(snap)

    def test_snapshot_reversed_edge_counted_on_min_endpoint(self) -> None:
        snap = self._snapshot()
        reference = Coordinator.from_snapshot(snap)
        owner = reference.partitioner.owner
        section, k = next(
            (sec, k)
            for sec in snap["shards"]
            for k, (u, v) in enumerate(sec["edges"])
            if owner(u) != owner(v)
        )
        u, v = section["edges"][k]
        section["edges"][k] = [v, u]
        restored = Coordinator.from_snapshot(snap)
        assert [kern.num_edges for kern in restored.engine.kernels] == [
            kern.num_edges for kern in reference.engine.kernels
        ]
        assert restored.check_invariants() == []
        assert restored.to_snapshot() == reference.to_snapshot()


# ----------------------------------------------------------------------
# Registry + service integration
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_registry_capabilities(self) -> None:
        spec = algorithm_spec("plds-sharded")
        assert spec.sharded and spec.parallel and spec.snapshot
        assert not spec.exact
        adapter = make_adapter("plds-sharded", _N_HINT, shards=7)
        assert adapter.impl.num_shards == 7

    def test_service_parity_audit_and_restore(self) -> None:
        from repro.service import CoreService

        svc = CoreService("plds-sharded", n_hint=_N_HINT, shards=4)
        ref = CoreService("plds", n_hint=_N_HINT)
        batches = _stream()
        for b in batches[:6]:
            svc.apply_batch(b)
            ref.apply_batch(b)
        assert svc.audit() == []
        snap = svc.snapshot()
        for b in batches[6:]:
            svc.apply_batch(b)
            ref.apply_batch(b)
        assert svc.coreness_map() == ref.coreness_map()
        svc.restore(snap)
        for b in batches[6:]:
            svc.apply_batch(b)
        assert svc.coreness_map() == ref.coreness_map()
        assert svc.audit() == []

    def test_shard_fault_absorbed_below_the_service(self) -> None:
        from repro.service import CoreService

        svc = CoreService("plds-sharded", n_hint=_N_HINT, shards=4)
        ref = CoreService("plds", n_hint=_N_HINT)
        plan = FaultPlan([FaultPoint("shard.apply", 3)])
        with active(plan):
            for b in _stream():
                svc.apply_batch(b)
        for b in _stream():
            ref.apply_batch(b)
        assert any(fp.site == "shard.apply" for fp in plan.fired)
        # The shard-level retry absorbed the fault: the service saw one
        # clean attempt per batch and never rolled the whole engine back.
        assert all(t.attempts == 1 and not t.rolled_back for t in svc.telemetry)
        assert svc.coreness_map() == ref.coreness_map()
        assert svc.audit() == []
