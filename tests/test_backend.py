"""Determinism goldens for the process-pool execution backend.

The contract (ISSUE 6 / docs/cost_model.md "Choosing an execution
backend"): :class:`repro.parallel.pool.PoolBackend` is observationally
identical to the simulated :class:`~repro.parallel.engine.
WorkDepthTracker` — same coreness estimates AND bit-identical metered
(work, depth) — while actually fanning pool-capable read-only scans
out to worker processes over a *resident* shared-memory graph image
(ISSUE 10): the deletion-phase consider scan, the insertion-phase
jump-rise scan, and the shard kernels' post-ghost-exchange desire
evaluation.  These tests pin that equivalence across seeds and shard
counts, under seeded fault injection, through the degraded
no-shared-memory fallback path, and gate the dirty-range delta
protocol and the segment lifecycle.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import faults
from repro.core.plds import PLDS
from repro.faults import FaultPlan, FaultPoint, InjectedFault
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch
from repro.obs.metrics import collecting
from repro.obs.timeline import split_series_key
from repro.obs.tracing import tracing
from repro.parallel import pool as poolmod
from repro.parallel.engine import WorkDepthTracker
from repro.parallel.pool import PoolBackend
from repro.registry import make_adapter
from repro.service import CoreService
from repro.shard.coordinator import Coordinator

from .test_golden_parity import _N_HINT, _stream

pytestmark = pytest.mark.backend

SEEDS = (1234, 7, 99)

#: shard counts for the backend × shard matrix (ISSUE 10 satellite):
#: degenerate, even, the CI default, and a prime that misaligns every
#: hash-partition boundary.
SHARD_COUNTS = (1, 2, 4, 7)

#: flat-engine config whose insertion phase runs the jump-rise scan
#: (the second pool-dispatched parfor).
JUMP_KW = {"group_shrink": 50, "insertion_strategy": "jump"}


def _run_flat(tracker=None, seed: int = 1234, **kwargs) -> PLDS:
    plds = PLDS(n_hint=_N_HINT, tracker=tracker, **kwargs)
    for batch in _stream(seed=seed):
        plds.update(batch)
    return plds


def _run_sharded(shards: int, tracker=None, seed: int = 1234) -> Coordinator:
    coord = Coordinator(_N_HINT, shards=shards, tracker=tracker)
    for batch in _stream(seed=seed):
        coord.update(batch)
    return coord


def _meters(tracker) -> tuple[int, int]:
    return tracker.work, tracker.depth


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_parallel_matches_serial(self, seed: int) -> None:
        """Pool-backend coreness and metered totals are bit-identical to
        the simulated backend."""
        serial = _run_flat(seed=seed, group_shrink=50)
        with PoolBackend(workers=2) as pool:
            parallel = _run_flat(tracker=pool, seed=seed, group_shrink=50)
            assert pool.dispatches > 0, "pool backend never dispatched"
            assert pool.fallbacks == 0
        record = PLDS(n_hint=_N_HINT, group_shrink=50)
        for batch in _stream(seed=seed):
            record.update(batch)
        assert parallel.coreness_estimates() == serial.coreness_estimates()
        assert parallel.coreness_estimates() == record.coreness_estimates()
        assert (parallel.tracker.work, parallel.tracker.depth) == (
            serial.tracker.work,
            serial.tracker.depth,
        )
        assert (parallel.tracker.work, parallel.tracker.depth) == (
            record.tracker.work,
            record.tracker.depth,
        )

    def test_parallel_matches_serial_under_seeded_fault(self) -> None:
        """Both backends fire the engine.parfor fault site in the same
        sequence: the same seeded plan trips at the same update, and the
        partially applied state is still bit-identical."""

        def run(tracker) -> tuple[int, PLDS, FaultPlan]:
            plan = FaultPlan([FaultPoint("engine.parfor", 10)])
            plds = PLDS(n_hint=_N_HINT, tracker=tracker, group_shrink=50)
            with faults.active(plan):
                for i, batch in enumerate(_stream()):
                    try:
                        plds.update(batch)
                    except InjectedFault:
                        assert plan.fired == [FaultPoint("engine.parfor", 10)]
                        return i, plds, plan
            pytest.fail("fault plan never fired")

        serial_at, serial, _ = run(None)
        with PoolBackend(workers=2) as pool:
            parallel_at, parallel, _ = run(pool)
        assert parallel_at == serial_at, "fault tripped at different updates"
        assert parallel.coreness_estimates() == serial.coreness_estimates()
        assert (parallel.tracker.work, parallel.tracker.depth) == (
            serial.tracker.work,
            serial.tracker.depth,
        )


class TestFallbackGuard:
    def test_fallback_warns_counts_and_stays_identical(self, monkeypatch) -> None:
        serial = _run_flat(group_shrink=50)
        monkeypatch.setattr(poolmod, "shared_memory", None)
        with collecting() as reg, PoolBackend(workers=2) as pool:
            with pytest.warns(RuntimeWarning, match="shared_memory unavailable"):
                degraded = _run_flat(tracker=pool, group_shrink=50)
            assert pool.dispatches == 0
            assert pool.fallbacks > 0
            assert (
                reg.counter_value("engine.pool_fallback.calls")
                == pool.fallbacks
            )
        assert degraded.coreness_estimates() == serial.coreness_estimates()
        assert (degraded.tracker.work, degraded.tracker.depth) == (
            serial.tracker.work,
            serial.tracker.depth,
        )

    def test_warning_emitted_once(self, monkeypatch) -> None:
        monkeypatch.setattr(poolmod, "shared_memory", None)
        import warnings as _warnings

        with PoolBackend(workers=2) as pool:
            with _warnings.catch_warnings(record=True) as caught:
                _warnings.simplefilter("always")
                _run_flat(tracker=pool, group_shrink=50)
            runtime = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]
            assert len(runtime) == 1
            assert pool.fallbacks > 1


class TestBackendSelection:
    def test_registry_backend_option(self) -> None:
        sim = make_adapter("pldsflatopt", _N_HINT)
        par = make_adapter("pldsflatopt", _N_HINT, backend="pool", workers=2)
        try:
            for batch in _stream():
                sim.update(batch)
                par.update(batch)
            assert par.estimates() == sim.estimates()
            assert (par.cost.work, par.cost.depth) == (
                sim.cost.work,
                sim.cost.depth,
            )
            assert par.tracker.dispatches > 0
        finally:
            par.tracker.close()

    def test_registry_rejects_unknown_backend(self) -> None:
        with pytest.raises(ValueError, match="backend"):
            make_adapter("pldsflatopt", _N_HINT, backend="gpu")

    def test_core_service_engine_option(self) -> None:
        svc = CoreService(
            "pldsflatopt", n_hint=_N_HINT, backend="pool", workers=2
        )
        twin = CoreService("pldsflatopt", n_hint=_N_HINT)
        try:
            for batch in _stream():
                svc.apply_batch(batch)
                twin.apply_batch(batch)
            assert svc.coreness_map() == twin.coreness_map()
            assert svc._adapter.tracker.dispatches > 0
        finally:
            svc._adapter.tracker.close()

    def test_pool_backend_rejects_bad_workers(self) -> None:
        with pytest.raises(ValueError, match="workers"):
            PoolBackend(workers=0)


class TestPoolWorkerVisibility:
    """Worker-level telemetry (ISSUE 9): every pool dispatch publishes
    per-worker ``engine.pool.*{worker=i}`` series and a ``pool.dispatch``
    span, without perturbing the bit-identical-to-simulated contract."""

    @staticmethod
    def _walk(spans):
        for span in spans:
            yield span
            yield from TestPoolWorkerVisibility._walk(span.children)

    def test_worker_series_and_dispatch_spans(self) -> None:
        serial = _run_flat(seed=1234, group_shrink=50)
        with collecting() as reg, tracing() as tracer:
            with PoolBackend(workers=2) as pool:
                parallel = _run_flat(tracker=pool, seed=1234, group_shrink=50)
                assert pool.dispatches > 0
                dispatches = pool.dispatches
        # Telemetry never perturbs the computation.
        assert parallel.coreness_estimates() == serial.coreness_estimates()
        assert (parallel.tracker.work, parallel.tracker.depth) == (
            serial.tracker.work,
            serial.tracker.depth,
        )
        counters, gauges, _ = reg.flat_series()
        assert counters["engine.pool.dispatches"] == dispatches
        workers = sorted(
            dict(split_series_key(key)[1])["worker"]
            for key in counters
            if key.startswith("engine.pool.tasks{")
        )
        assert workers and workers[0] == "0"
        for worker in workers:
            assert counters[f"engine.pool.tasks{{worker={worker}}}"] > 0
            lo = gauges[f"engine.pool.slot_lo{{worker={worker}}}"]
            hi = gauges[f"engine.pool.slot_hi{{worker={worker}}}"]
            assert 0 <= lo < hi
        assert gauges["engine.pool.slot_lo{worker=0}"] == 0
        spans = [
            s for s in self._walk(tracer.finish()) if s.name == "pool.dispatch"
        ]
        assert len(spans) == dispatches
        assert all(
            s.attrs["items"] > 0 and s.attrs["workers"] >= 1 for s in spans
        )

    def test_simulated_backend_emits_no_worker_series(self) -> None:
        with collecting() as reg:
            _run_flat(seed=1234, group_shrink=50)
        counters, gauges, _ = reg.flat_series()
        assert not any(k.startswith("engine.pool.") for k in counters)
        assert not any(k.startswith("engine.pool.") for k in gauges)


class TestJumpRiseDispatch:
    """The insertion-phase jump-rise scan (ISSUE 10): pool-dispatched
    desire evaluation with a conflict-aware apply, bit-identical to the
    sequential cascade."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_jump_rise_matches_serial(self, seed: int) -> None:
        serial = _run_flat(seed=seed, **JUMP_KW)
        with PoolBackend(workers=2, min_dispatch=1) as pool:
            parallel = _run_flat(tracker=pool, seed=seed, **JUMP_KW)
            assert pool.dispatches > 0, "pool backend never dispatched"
            assert pool.fallbacks == 0
        record = PLDS(n_hint=_N_HINT, **JUMP_KW)
        for batch in _stream(seed=seed):
            record.update(batch)
        assert parallel.coreness_estimates() == serial.coreness_estimates()
        assert parallel.coreness_estimates() == record.coreness_estimates()
        assert _meters(parallel.tracker) == _meters(serial.tracker)
        assert _meters(parallel.tracker) == _meters(record.tracker)

    def test_insert_only_stream_dispatches(self) -> None:
        """An insertion-only stream never runs the deletion-phase
        consider scan, so every dispatch on it is the jump-rise scan."""
        edges = barabasi_albert(120, 4, seed=5)
        batches = [
            Batch(insertions=edges[i : i + 40])
            for i in range(0, len(edges), 40)
        ]

        def run(tracker=None) -> PLDS:
            plds = PLDS(n_hint=150, tracker=tracker, **JUMP_KW)
            for batch in batches:
                plds.update(batch)
            return plds

        serial = run()
        with PoolBackend(workers=2, min_dispatch=1) as pool:
            parallel = run(tracker=pool)
            assert pool.dispatches > 0, "rise scan never dispatched"
            assert pool.fallbacks == 0
        assert parallel.coreness_estimates() == serial.coreness_estimates()
        assert _meters(parallel.tracker) == _meters(serial.tracker)


class TestShardedBackendMatrix:
    """Backend × shard matrix (ISSUE 10 satellite): the kernels'
    post-ghost-exchange desire evaluation dispatches through per-shard
    child backends, golden-checked against the simulated run."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ghost_exchange_matches_simulated(
        self, shards: int, seed: int
    ) -> None:
        sim = _run_sharded(shards, tracker=WorkDepthTracker(), seed=seed)
        with PoolBackend(workers=2, min_dispatch=1) as pool:
            par = _run_sharded(shards, tracker=pool, seed=seed)
            assert pool.dispatches > 0, "no kernel scan dispatched"
            assert pool.fallbacks == 0
        assert par.coreness_estimates() == sim.coreness_estimates()
        assert _meters(par.tracker) == _meters(sim.tracker)

    def test_registry_sharded_pool_backend(self) -> None:
        sim = make_adapter("plds-sharded", _N_HINT, shards=4)
        par = make_adapter(
            "plds-sharded", _N_HINT, shards=4, backend="pool", workers=2
        )
        try:
            for batch in _stream():
                sim.update(batch)
                par.update(batch)
            assert par.estimates() == sim.estimates()
            assert (par.cost.work, par.cost.depth) == (
                sim.cost.work,
                sim.cost.depth,
            )
            assert par.tracker.dispatches > 0
            assert par.tracker.fallbacks == 0
        finally:
            par.tracker.close()

    def test_sharded_fault_parity(self) -> None:
        """The engine.parfor fault site fires in the same sequence on
        both backends through the sharded stack: the seeded plan trips
        at the same update (it escapes the coordinator — only
        ``shard.apply`` faults are retried) and the partial state is
        bit-identical."""

        def run(tracker) -> tuple[int, Coordinator]:
            plan = FaultPlan([FaultPoint("engine.parfor", 12)])
            coord = Coordinator(_N_HINT, shards=4, tracker=tracker)
            with faults.active(plan):
                for i, batch in enumerate(_stream()):
                    try:
                        coord.update(batch)
                    except InjectedFault:
                        assert plan.fired == [
                            FaultPoint("engine.parfor", 12)
                        ]
                        return i, coord
            pytest.fail("fault plan never fired")

        sim_at, sim = run(WorkDepthTracker())
        with PoolBackend(workers=2, min_dispatch=1) as pool:
            par_at, par = run(pool)
        assert par_at == sim_at, "fault tripped at different updates"
        assert par.coreness_estimates() == sim.coreness_estimates()
        assert _meters(par.tracker) == _meters(sim.tracker)


class TestDirtyRangeProtocol:
    """The resident image's delta protocol (ISSUE 10): flushed ranges
    cover exactly the touched slots with a bounded over-approximation,
    and structural events fall back to a full-image rebuild."""

    def test_stream_mixes_full_and_delta_flushes(self) -> None:
        with PoolBackend(workers=1, min_dispatch=1) as pool:
            plds = PLDS(n_hint=_N_HINT, tracker=pool, **JUMP_KW)
            for batch in _stream():
                plds.update(batch)
            img = plds._pool_image
            assert img is not None
            assert img.full_flushes >= 1
            assert img.delta_flushes >= 1
            assert 0 < pool.bytes_copied < pool.bytes_full_equiv

    def test_delta_ranges_cover_touched_slots(self, monkeypatch) -> None:
        """Every delta flush covers each dirty slot, over-approximates
        by at most GAP+1 slots per touched slot, and leaves the segment
        byte-identical to the engine's level vector (no misses)."""
        orig = poolmod.ResidentImage.flush
        seen = {"deltas": 0}

        def checked_flush(self, source):
            full = source._pool_renumber or self._levels_seg is None
            touched = sorted(set(source._pool_dirty_slots))
            out = orig(self, source)
            if not full:
                seen["deltas"] += 1
                ranges = self.last_ranges
                for slot in touched:
                    assert any(lo <= slot < hi for lo, hi in ranges), (
                        f"dirty slot {slot} not covered by {ranges}"
                    )
                covered = sum(hi - lo for lo, hi in ranges)
                bound = len(touched) * (poolmod.ResidentImage.GAP + 1)
                assert covered <= bound
                n = self._n
                segment = bytes(self._levels_seg.buf[: 4 * n])
                assert segment == source.pool_levels_array().tobytes()
            return out

        monkeypatch.setattr(poolmod.ResidentImage, "flush", checked_flush)
        with PoolBackend(workers=1, min_dispatch=1) as pool:
            plds = PLDS(n_hint=_N_HINT, tracker=pool, **JUMP_KW)
            for batch in _stream():
                plds.update(batch)
        assert seen["deltas"] > 0, "no delta flush exercised the check"

    def test_structural_events_force_full_flush(self) -> None:
        with PoolBackend(workers=1, min_dispatch=1) as pool:
            plds = PLDS(n_hint=16, tracker=pool, group_shrink=50)
            plds.update(
                Batch(
                    insertions=[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]
                )
            )
            img = pool.resident_image(plds)
            img.flush(plds)  # numbering fresh from the insertions
            assert img.last_ranges == [(0, img._n)]
            full_before = img.full_flushes

            # Level-only change: coalesced ranges, no rebuild.
            plds._pool_note_ids([1, 2])
            img.flush(plds)
            assert img.full_flushes == full_before
            assert img.delta_flushes >= 1
            assert img.last_ranges and img.last_ranges != [(0, img._n)]

            # Adjacency-only change: CSR rewrite, levels still deltas.
            plds._pool_adj_dirty = True
            img.flush(plds)
            assert img.full_flushes == full_before
            assert img.last_ranges == []

            # Slot renumbering (compaction/restore): full rebuild.
            plds._pool_renumber = True
            img.flush(plds)
            assert img.full_flushes == full_before + 1
            assert img.last_ranges == [(0, img._n)]

    def test_coalesce_bridges_small_gaps_only(self) -> None:
        assert poolmod._coalesce([], 4) == []
        assert poolmod._coalesce([3], 4) == [(3, 4)]
        assert poolmod._coalesce([0, 2, 4], 4) == [(0, 5)]
        assert poolmod._coalesce([0, 10], 4) == [(0, 1), (10, 11)]
        assert poolmod._coalesce([5, 5, 1, 1], 4) == [(1, 6)]


class TestSegmentCleanup:
    """Segment lifecycle (ISSUE 10 satellite): exception and interrupt
    paths unlink every shared segment; close is idempotent and the
    backend stays usable afterwards."""

    def test_interrupt_path_unlinks_segments(self) -> None:
        img = None
        names: list[str] = []
        try:
            with PoolBackend(workers=1, min_dispatch=1) as pool:
                plds = PLDS(
                    n_hint=_N_HINT, tracker=pool, group_shrink=50
                )
                for batch in _stream():
                    plds.update(batch)
                img = plds._pool_image
                assert img is not None and not img.closed
                names = [seg.name for seg in img._segments]
                assert names
                raise KeyboardInterrupt
        except KeyboardInterrupt:
            pass
        assert img.closed
        for name in names:
            with pytest.raises(FileNotFoundError):
                poolmod.shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_recoverable(self) -> None:
        pool = PoolBackend(workers=1, min_dispatch=1)
        try:
            plds = PLDS(n_hint=_N_HINT, tracker=pool, group_shrink=50)
            batches = list(_stream())
            for batch in batches[:6]:
                plds.update(batch)
            img = plds._pool_image
            assert img is not None
            pool.close()
            assert img.closed
            assert plds._pool_image is None
            pool.close()  # second close is a no-op
            # The backend recovers: the next dispatch re-creates the
            # image and a fresh executor.
            for batch in batches[6:]:
                plds.update(batch)
            assert plds._pool_image is not None
            assert not plds._pool_image.closed
        finally:
            pool.close()

    def test_no_resource_tracker_warnings(self) -> None:
        """A pool-backed run leaves nothing for the resource tracker to
        complain about at interpreter exit (the regression this guards:
        segments leaked on non-close exits)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.core.plds import PLDS\n"
            "from repro.parallel.pool import PoolBackend\n"
            "from tests.test_golden_parity import _N_HINT, _stream\n"
            "with PoolBackend(workers=1, min_dispatch=1) as pool:\n"
            "    plds = PLDS(n_hint=_N_HINT, tracker=pool,"
            " group_shrink=50)\n"
            "    for batch in _stream():\n"
            "        plds.update(batch)\n"
            "    assert pool.dispatches > 0\n"
        )
        repo = os.path.dirname(src)
        proc = subprocess.run(
            [sys.executable, "-c", script, src, repo],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestPoolBytesAccounting:
    """Per-dispatch bytes-copied accounting (ISSUE 10 satellite): the
    backend's counters, the ``engine.pool.*`` series, and the bench
    artifact all agree."""

    def test_bytes_series_match_backend_counters(self) -> None:
        with collecting() as reg:
            with PoolBackend(workers=2, min_dispatch=1) as pool:
                _run_flat(tracker=pool, **JUMP_KW)
                stats = pool.pool_stats()
        counters, _, _ = reg.flat_series()
        assert stats["bytes_copied"] > 0
        assert counters["engine.pool.bytes_copied"] == stats["bytes_copied"]
        assert stats["dirty_ranges"] > 0
        assert counters["engine.pool.dirty_ranges"] == stats["dirty_ranges"]
        # The delta protocol beats a full-image flush per dispatch.
        assert stats["bytes_copied"] < stats["bytes_full_equiv"]
        assert (
            stats["mean_bytes_per_dispatch"]
            < stats["mean_bytes_full_equiv"]
        )

    def test_bytes_counter_lands_on_timeline(self) -> None:
        from repro.obs.timeline import Timeline

        with collecting():
            timeline = Timeline()
            with PoolBackend(workers=1, min_dispatch=1) as pool:
                _run_flat(tracker=pool, **JUMP_KW)
            sample = timeline.sample(tick=1.0)
        assert sample is not None
        assert sample["counters"]["engine.pool.bytes_copied"] > 0
        assert sample["counters"]["engine.pool.dirty_ranges"] > 0

    def test_bench_artifact_carries_pool_stats(self) -> None:
        from repro.bench.perfsuite import BenchReport, run_suite

        entries = run_suite(
            scale=0.02,
            algos=("pldsflatopt",),
            workloads=("powerlaw-del",),
            backend="pool",
            workers=2,
        )
        assert len(entries) == 1
        info = entries[0].pool
        assert info is not None and info["dispatches"] > 0
        assert info["bytes_copied"] > 0
        data = BenchReport("t", 0.02, entries).to_json_dict()
        assert data["entries"][0]["pool"]["dispatches"] == info["dispatches"]

        simulated = run_suite(
            scale=0.02,
            algos=("pldsflatopt",),
            workloads=("powerlaw-del",),
        )
        assert simulated[0].pool is None
        sim_dict = BenchReport("t", 0.02, simulated).to_json_dict()
        assert "pool" not in sim_dict["entries"][0]
