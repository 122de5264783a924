"""Property-based tests (hypothesis) on the core invariants.

These encode the paper's guarantees as properties over arbitrary update
sequences: PLDS Invariants 1–2, the (2+ε) approximation, orientation
acyclicity, matching maximality, exact clique counts, proper colorings,
and primitive/reference agreement.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.invariants import approximation_violations
from repro.core.orientation import is_acyclic_orientation
from repro.core.plds import PLDS
from repro.framework import (
    create_clique_driver,
    create_explicit_coloring_driver,
    create_matching_driver,
)
from repro.graphs.dynamic_graph import canonical_edge
from repro.graphs.streams import Batch
from repro.parallel.engine import WorkDepthTracker
from repro.parallel.primitives import (
    parallel_filter,
    parallel_prefix_sum,
    parallel_semisort,
    parallel_sort,
)
from repro.shard import Coordinator
from repro.static_kcore.approx import approx_coreness_static
from repro.static_kcore.exact import ParallelExactKCore, exact_coreness

N_VERTICES = 16

edge_strategy = st.tuples(
    st.integers(0, N_VERTICES - 1), st.integers(0, N_VERTICES - 1)
).filter(lambda e: e[0] != e[1]).map(lambda e: canonical_edge(*e))

# A script is a list of per-step edge sets; at each step, listed edges are
# toggled (inserted if absent, deleted if present).
script_strategy = st.lists(
    st.lists(edge_strategy, min_size=1, max_size=12, unique=True),
    min_size=1,
    max_size=8,
)

LOOSE = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def apply_script(script, on_batch):
    """Toggle-apply a script, calling ``on_batch(current_edges)`` per step."""
    current: set = set()
    for step in script:
        ins = [e for e in set(step) if e not in current]
        dels = [e for e in set(step) if e in current]
        batch = Batch(insertions=ins, deletions=dels)
        current |= set(ins)
        current -= set(dels)
        on_batch(batch, set(current))
    return current


#: the sharded property replays each script on three engines; fewer
#: examples keep it inside the tier-1 budget.
SHARDED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestShardedProperties:
    @SHARDED
    @given(script_strategy, st.sampled_from(["levelwise", "jump"]))
    def test_coordinator_matches_plds_after_any_script(self, script, strategy):
        plds = PLDS(n_hint=N_VERTICES, insertion_strategy=strategy)
        coords = [
            Coordinator(N_VERTICES, shards=s, insertion_strategy=strategy)
            for s in (2, 4)
        ]

        def step(batch, current):
            plds.update(batch)
            estimates = plds.coreness_estimates()
            for coord in coords:
                coord.update(
                    Batch(
                        insertions=list(batch.insertions),
                        deletions=list(batch.deletions),
                    )
                )
                assert coord.check_invariants() == []
                assert coord.coreness_estimates() == estimates
                assert set(coord.edges()) == current

        apply_script(script, step)


class TestPLDSProperties:
    @LOOSE
    @given(script_strategy)
    def test_invariants_hold_after_any_script(self, script):
        plds = PLDS(n_hint=N_VERTICES)

        def step(batch, current):
            plds.update(batch)
            assert not plds.check_invariants()
            assert set(plds.edges()) == current

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_approximation_holds_after_any_script(self, script):
        plds = PLDS(n_hint=N_VERTICES)

        def step(batch, current):
            plds.update(batch)
            exact = exact_coreness(sorted(current))
            assert not approximation_violations(
                plds.coreness_estimates(), exact, plds.approximation_factor()
            )

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_orientation_acyclic_after_any_script(self, script):
        plds = PLDS(n_hint=N_VERTICES, track_orientation=True)

        def step(batch, current):
            plds.update(batch)
            assert is_acyclic_orientation(list(plds.oriented_edges()))

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_jump_strategy_invariants(self, script):
        plds = PLDS(n_hint=N_VERTICES, insertion_strategy="jump")

        def step(batch, current):
            plds.update(batch)
            assert not plds.check_invariants()
            exact = exact_coreness(sorted(current))
            assert not approximation_violations(
                plds.coreness_estimates(), exact, plds.approximation_factor()
            )

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_structure_variants_identical_results(self, script):
        variants = [
            PLDS(n_hint=N_VERTICES, structure=s)
            for s in ("randomized", "deterministic", "space_efficient")
        ]

        def step(batch, current):
            results = []
            for p in variants:
                p.update(
                    Batch(
                        insertions=list(batch.insertions),
                        deletions=list(batch.deletions),
                    )
                )
                results.append(p.coreness_estimates())
            assert results[0] == results[1] == results[2]

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_snapshot_roundtrip_after_any_script(self, script):
        plds = PLDS(n_hint=N_VERTICES, track_orientation=True)

        def step(batch, current):
            plds.update(batch)

        apply_script(script, step)
        restored = PLDS.from_snapshot(plds.to_snapshot())
        assert restored.coreness_estimates() == plds.coreness_estimates()
        assert sorted(restored.edges()) == sorted(plds.edges())
        assert not restored.check_invariants()

    @LOOSE
    @given(script_strategy)
    def test_batching_equivalence_of_guarantees(self, script):
        # Single-edge batches and full batches may land on different
        # levels, but both must satisfy the invariants and the bound.
        singles = PLDS(n_hint=N_VERTICES)

        def step(batch, current):
            for e in batch.insertions:
                singles.update(Batch(insertions=[e]))
            for e in batch.deletions:
                singles.update(Batch(deletions=[e]))
            assert not singles.check_invariants()

        apply_script(script, step)


class TestFrameworkProperties:
    @LOOSE
    @given(script_strategy)
    def test_matching_always_maximal(self, script):
        driver, m = create_matching_driver(n_hint=N_VERTICES)

        def step(batch, current):
            driver.update(batch)
            assert not m.violations()

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_triangle_count_always_exact(self, script):
        driver, c = create_clique_driver(n_hint=N_VERTICES, k=3)

        def step(batch, current):
            driver.update(batch)
            G = nx.Graph(sorted(current))
            expected = sum(nx.triangles(G).values()) // 3
            assert c.count == expected

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_table_counter_matches_enumeration_counter(self, script):
        from repro.framework import (
            create_clique_driver,
            create_clique_tables_driver,
        )

        d1, tables = create_clique_tables_driver(n_hint=N_VERTICES, k=3)
        d2, enum = create_clique_driver(n_hint=N_VERTICES, k=3)

        def step(batch, current):
            d1.update(Batch(list(batch.insertions), list(batch.deletions)))
            d2.update(Batch(list(batch.insertions), list(batch.deletions)))
            G = nx.Graph(sorted(current))
            expected = sum(nx.triangles(G).values()) // 3
            assert tables.count == enum.count == expected

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_coloring_always_proper(self, script):
        driver, col = create_explicit_coloring_driver(n_hint=N_VERTICES)

        def step(batch, current):
            driver.update(batch)
            assert not col.violations()

        apply_script(script, step)


class TestBaselineProperties:
    @LOOSE
    @given(script_strategy)
    def test_traversal_always_exact(self, script):
        from repro.baselines.traversal import TraversalCoreMaintenance

        t = TraversalCoreMaintenance()
        t.initialize([])

        def step(batch, current):
            for e in batch.insertions:
                t.insert_edge(*e)
            for e in batch.deletions:
                t.delete_edge(*e)
            expected = exact_coreness(sorted(current))
            got = {v: t.coreness(v) for v in expected}
            assert got == expected

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_sun_repair_matches_resimulation(self, script):
        from repro.baselines.sun import SunApproxDynamic

        incremental = SunApproxDynamic(n_hint=N_VERTICES, eps=1.0, lam=1.0)
        incremental.initialize([])

        def step(batch, current):
            incremental.update(batch)
            scratch = SunApproxDynamic(n_hint=N_VERTICES, eps=1.0, lam=1.0)
            scratch.initialize(sorted(current))
            inc = incremental.coreness_estimates()
            ref = scratch.coreness_estimates()
            # The incremental structure remembers now-isolated vertices
            # (estimate 0); compare on the union with default 0.
            for v in set(inc) | set(ref):
                assert inc.get(v, 0.0) == ref.get(v, 0.0), v

        apply_script(script, step)

    @LOOSE
    @given(script_strategy)
    def test_hua_matches_zhang(self, script):
        from repro.baselines.hua import HuaExactBatchDynamic
        from repro.baselines.zhang import ZhangExactDynamic

        hua = HuaExactBatchDynamic()
        hua.initialize([])
        zhang = ZhangExactDynamic()
        zhang.initialize([])

        def step(batch, current):
            hua.update(
                Batch(list(batch.insertions), list(batch.deletions))
            )
            zhang.update(batch)
            vs = {x for e in current for x in e}
            assert {v: hua.coreness(v) for v in vs} == {
                v: zhang.coreness(v) for v in vs
            }

        apply_script(script, step)


class TestStaticProperties:
    @LOOSE
    @given(st.lists(edge_strategy, min_size=1, max_size=40, unique=True))
    def test_parallel_exact_matches_networkx(self, edges):
        expected = dict(nx.core_number(nx.Graph(edges)))
        assert ParallelExactKCore().run(edges).coreness == expected

    @LOOSE
    @given(st.lists(edge_strategy, min_size=1, max_size=40, unique=True))
    def test_static_approx_factor(self, edges):
        exact = exact_coreness(edges)
        res = approx_coreness_static(edges, eps=0.5, delta=0.5)
        bound = 2.5 * 1.5
        for v, k in exact.items():
            if k == 0:
                continue
            est = res.estimates[v]
            assert est > 0
            assert max(est / k, k / est) <= bound + 1e-9


class TestPrimitiveProperties:
    @given(st.lists(st.integers(-100, 100)))
    def test_prefix_sum_matches_reference(self, xs):
        t = WorkDepthTracker()
        out = parallel_prefix_sum(t, xs)
        acc, ref = 0, []
        for x in xs:
            ref.append(acc)
            acc += x
        assert out == ref

    @given(st.lists(st.integers(-100, 100)))
    def test_sort_matches_sorted(self, xs):
        assert parallel_sort(WorkDepthTracker(), xs) == sorted(xs)

    @given(st.lists(st.integers(-100, 100)))
    def test_filter_matches_comprehension(self, xs):
        t = WorkDepthTracker()
        assert parallel_filter(t, xs, lambda v: v % 3 == 0) == [
            v for v in xs if v % 3 == 0
        ]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers())))
    def test_semisort_partitions_input(self, pairs):
        t = WorkDepthTracker()
        groups = parallel_semisort(t, pairs)
        flattened = [(k, v) for k, vs in groups.items() for v in vs]
        assert sorted(flattened) == sorted(pairs)
