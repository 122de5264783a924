"""Rollback parity: the engine undo log restores the exact pre-batch state.

:class:`~repro.service.CoreService` rolls a failed attempt back through
the engine's undo log (``begin_undo`` / ``rollback_undo``) instead of a
per-batch snapshot.  This suite drives seeded fault plans at the
``plds.rise``, ``plds.desaturate``, ``engine.parfor`` and
``service.apply`` sites — plus a fault raised right after the engine's
rebuild check, so batches that re-level the whole structure fail too —
over every engine with the protocol, with mixed batch sizes 1/3/40, a
small ``n_hint`` (Section-5.9 rebuilds fire mid-attempt) and batches
that exhaust their retries and abort.  It checks:

- after every rolled-back attempt, ``engine.to_snapshot()`` equals the
  snapshot taken before the batch;
- each committed batch's telemetry equals a fault-free twin's, except
  for the metered retry backoff in its depth;
- reader answers and engine state equal the twin's after every batch;
- both rollback modes (in place, and the rebuild fallback) fire.
"""

from __future__ import annotations

import random

import pytest

from repro import faults
from repro.core.lds import LDS
from repro.core.plds import PLDS
from repro.faults import FaultPlan, FaultPoint, InjectedFault
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch
from repro.service import CoreService, RetryPolicy

pytestmark = pytest.mark.faults

ALGORITHMS = ("plds", "pldsopt", "pldsflat", "pldsflatopt", "lds", "plds-sharded")
SITES = ("plds.rise", "plds.desaturate", "engine.parfor", "service.apply")
SIZES = (1, 3, 40)
N_HINT = 8
RETRY = RetryPolicy(max_attempts=2)


class _Stream:
    """Mixed batches of sizes 1/3/40 over a growing power-law graph;
    only committed batches advance it (an aborted one left the graph
    as it was)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.absent = list(barabasi_albert(90, 3, seed=seed))
        self.rng.shuffle(self.absent)
        self.present: list[tuple[int, int]] = []

    def batch(self, i: int) -> Batch:
        size = SIZES[i % len(SIZES)]
        n_del = 0 if len(self.present) < 2 * size else size // 2
        self.rng.shuffle(self.present)
        return Batch(
            insertions=self.absent[: size - n_del],
            deletions=self.present[:n_del],
        )

    def commit(self, batch: Batch) -> None:
        gone = set(batch.deletions)
        self.present = [e for e in self.present if e not in gone]
        self.present.extend(batch.insertions)
        del self.absent[: len(batch.insertions)]
        self.absent.extend(batch.deletions)


def _census(engine, batch: Batch) -> tuple[dict[str, int], bool]:
    """Site traversals of a fault-free attempt (on a copy of the engine)
    and whether the batch triggers a rebuild."""
    copy = type(engine).from_snapshot(engine.to_snapshot())
    hint = getattr(copy, "n_hint", None)
    with faults.active(faults.recording_plan()) as plan:
        copy.update(batch)
    counts = dict(plan.counts)
    counts["service.apply"] = 1
    return counts, getattr(copy, "n_hint", None) != hint


class _TailFault:
    """Raise once, right after the engine's rebuild check returns."""

    def __init__(self, engine) -> None:
        self.armed = False
        inner = engine._maybe_rebuild

        def maybe_rebuild() -> None:
            inner()
            if self.armed:
                self.armed = False
                raise InjectedFault("injected fault after the rebuild check")

        engine._maybe_rebuild = maybe_rebuild


def _plan(rng: random.Random, counts: dict[str, int], rebuilds: bool):
    """``(FaultPlan, tail, expect_abort)`` for one batch."""
    live = [s for s in SITES if counts.get(s, 0) > 0]
    roll = rng.random()
    if rebuilds:
        # Fail after the rebuild re-levelled everything: the rollback
        # must take the snapshot fallback.
        return FaultPlan(), True, False
    if roll < 0.3:
        return FaultPlan(), False, False
    site = rng.choice(live)
    c = counts[site]
    hit = rng.randint(1, c)
    if roll < 0.8:
        return FaultPlan([FaultPoint(site, hit)]), False, False
    if roll < 0.9:
        return FaultPlan(), True, False
    again = hit + rng.randint(1, c)
    return FaultPlan([FaultPoint(site, hit), FaultPoint(site, again)]), False, True


def _answers(svc: CoreService) -> tuple:
    reader = svc.reader()
    view = reader.view
    return (
        reader.coreness_map().value,
        dict(view.levels),
        reader.core_subgraph(2).value,
        reader.core_members(1.5).value,
        frozenset(view.edges),
        view.batches_applied,
    )


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rollback_restores_pre_batch_state(algorithm, seed):
    svc = CoreService(algorithm, n_hint=N_HINT, retry=RETRY)
    twin = CoreService(algorithm, n_hint=N_HINT, retry=RETRY)
    engine = svc.engine
    tail = _TailFault(engine)
    rng = random.Random(seed)
    modes = {"in-place": 0, "rebuild": 0}
    checks: list[bool] = []
    pre: dict = {}
    inner_rollback = engine.rollback_undo

    def checked_rollback() -> None:
        undo = engine._undo
        if isinstance(undo, tuple):  # the sharded coordinator's snapshot
            modes["in-place"] += 1
        else:
            modes["rebuild" if undo.snapshot is not None else "in-place"] += 1
        inner_rollback()
        checks.append(engine.to_snapshot() == pre["snap"])

    engine.rollback_undo = checked_rollback
    aborted = committed = 0
    stream = _Stream(seed)
    for i in range(36):
        batch = stream.batch(i)
        pre["snap"] = engine.to_snapshot()
        counts, rebuilds = _census(engine, batch)
        plan, tail.armed, expect_abort = _plan(rng, counts, rebuilds)
        with faults.active(plan):
            if expect_abort:
                with pytest.raises(InjectedFault):
                    svc.apply_batch(batch)
            else:
                t = svc.apply_batch(batch)
        tail.armed = False
        assert svc.engine is engine  # rolled back in place
        if expect_abort:
            aborted += 1
            assert engine.to_snapshot() == pre["snap"]
        else:
            committed += 1
            stream.commit(batch)
            ref = twin.apply_batch(batch)
            backoff = sum(RETRY.backoff_for(k) for k in range(1, t.attempts))
            assert (t.batch_id, t.insertions, t.deletions, t.work) == (
                ref.batch_id,
                ref.insertions,
                ref.deletions,
                ref.work,
            )
            assert t.depth == ref.depth + backoff
            assert t.read_epoch == ref.read_epoch
            assert not t.degraded
        assert engine.to_snapshot() == twin.engine.to_snapshot()
        assert _answers(svc) == _answers(twin)
    assert checks and all(checks)
    assert aborted and committed
    assert any(t.rolled_back for t in svc.telemetry)
    if algorithm != "plds-sharded":
        assert modes["in-place"] and modes["rebuild"], modes
    assert svc.audit() == []


@pytest.mark.parametrize("cls", [PLDS, LDS], ids=["PLDS", "LDS"])
def test_engine_rollback_restores_orientation_table(cls):
    edges = barabasi_albert(60, 3, seed=5)
    engine = cls(n_hint=128, track_orientation=True)
    engine.update(Batch(insertions=edges[:100]))
    twin = cls.from_snapshot(engine.to_snapshot())
    batch = Batch(insertions=edges[100:], deletions=edges[:30])
    pre = (engine.to_snapshot(), dict(engine._orient), engine.num_edges)
    engine.begin_undo()
    engine.update(batch)  # a whole batch, then rolled back
    assert engine.to_snapshot() != pre[0]
    engine.rollback_undo()
    assert (engine.to_snapshot(), dict(engine._orient), engine.num_edges) == pre
    # The restored engine replays the batch exactly like an untouched copy.
    before, twin_before = engine.tracker.cost, twin.tracker.cost
    got, ref = engine.update(batch), twin.update(batch)
    assert sorted(got.flipped) == sorted(ref.flipped)
    assert sorted(got.oriented_insertions) == sorted(ref.oriented_insertions)
    assert got.oriented_deletions == ref.oriented_deletions
    assert got.moved_vertices == ref.moved_vertices
    assert engine.tracker.cost.work - before.work == twin.tracker.cost.work - twin_before.work
    assert engine._orient == twin._orient
