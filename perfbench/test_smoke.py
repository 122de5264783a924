"""Smoke test of the serving-path benchmark at tiny n.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run

run.bootstrap()

from repro.service import ServiceReader  # noqa: E402
from workloads import UNGATED, WORKLOADS, Config, EngineClient  # noqa: E402

TINY = Config(
    n=200,
    k=3,
    bulk_half=16,
    trickle_pool=8,
    reads_per_write=4,
    scan_every=4,
    min_batches=8,
    rss_batches=4,
    setup_repeats=3,
    held_out_batches=4,
)

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_prints_with_its_unit(workload: str, trace: bool) -> None:
    result, lines = run.run(workload, seed=3, seconds=0.0, trace=trace, cfg=TINY)
    assert result["correct"] and result["failed"] == 0, lines
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == named
    for name, unit in named.items():
        assert any(
            line.split()[0] == name and line.split()[-1] == unit for line in lines
        ), name
    if not trace:  # printed for the reader, left out of the gated JSON
        for name in UNGATED:
            assert any(line.split()[0] == name for line in lines), name


def test_wrong_read_answer_raises_failed_frac(monkeypatch: pytest.MonkeyPatch) -> None:
    honest = ServiceReader.coreness

    def off_by_one(self: ServiceReader, v: int):
        res = honest(self, v)
        return replace(res, value=res.value + 1.0)

    monkeypatch.setattr(ServiceReader, "coreness", off_by_one)
    result, lines = run.run("svc-trickle", seed=3, seconds=0.0, trace=False, cfg=TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "failed_frac=0.000000" not in lines[0]


def test_engine_reads_are_checked_against_a_replay(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Engine reads that agree with the engine's own estimates but are
    wrong pass the live check; the gate's replay catches them."""
    build = EngineClient.__init__

    def lying(self: EngineClient, *args: object) -> None:
        build(self, *args)
        impl = self.adapter.impl
        one, every = impl.coreness_estimate, impl.coreness_estimates
        impl.coreness_estimate = lambda v: one(v) + 1.0
        impl.coreness_estimates = lambda: {v: c + 1.0 for v, c in every().items()}

    monkeypatch.setattr(EngineClient, "__init__", lying)
    result, lines = run.run("engine-churn", seed=3, seconds=0.0, trace=False, cfg=TINY)
    assert not result["correct"]
    assert any(line.startswith("# FAIL replay: batch") for line in lines)
    assert not any("read of" in line and "FAIL batch" in line for line in lines)
