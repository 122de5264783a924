"""Serving-path benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload svc-trickle --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with half its batches traced and prints the per-layer metrics
(spans go to ``perfbench/out/``).  Exit status is 0 only when every
read answer and the post-run correctness gate passed, on the run's seed
and on the held-out seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def bootstrap() -> None:
    """Make the checkout's own ``repro`` sources importable, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _mean(rows: list[dict], name: str, key: str) -> float:
    return statistics.fmean(r.get(name, {}).get(key, 0.0) for r in rows)


def layer_metrics(
    cfg: Any, rec: Any, tracer: Any, pool_delta: dict
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of a traced run, plus a share-of-write table."""
    from workloads import engine_layer

    per_batch = tracer.per_batch()
    rows = [per_batch[b] for b in sorted(per_batch) if b >= 0]
    traced_ms = [w * 1e3 for w, t in zip(rec.write_s, rec.traced) if t]
    plain_ms = [w * 1e3 for w, t in zip(rec.write_s, rec.traced) if not t]
    touched = [
        r["service.publish"]["touched"] / cfg.n
        for r in rows
        if "touched" in r.get("service.publish", {})
    ]
    dispatches = pool_delta.get("dispatches", 0)
    dispatch_items = sum(r.get("pool.dispatch", {}).get("items", 0) for r in rows)
    dispatch_count = sum(r.get("pool.dispatch", {}).get("count", 0) for r in rows)
    full = pool_delta.get("bytes_full_equiv", 0)
    metrics: dict[str, tuple[float, str]] = {
        "service.restore_point_ms": (_mean(rows, "service.restore_point", "ms"), "ms"),
        "service.restore_point_items": (
            _mean(rows, "service.restore_point", "items"),
            "count",
        ),
        "service.publish_ms": (_mean(rows, "service.publish", "ms"), "ms"),
        "service.publish_touched_frac": (
            statistics.fmean(touched) if touched else 0.0,
            "frac",
        ),
        "service.journal_ms": (_mean(rows, "service.journal", "ms"), "ms"),
        "service.mirror_ms": (_mean(rows, "service.mirror", "ms"), "ms"),
        "admission.ms": (
            _mean(rows, "admission.admit", "ms") + _mean(rows, "admission.observe", "ms"),
            "ms",
        ),
        "service.self_ms": (_mean(rows, "service.submit", "self_ms"), "ms"),
        "engine.update_ms": (_mean(rows, "engine.update", "ms"), "ms"),
        **engine_layer(rec),
        "pool.dispatches": (dispatches / len(rec.write_s), "count"),
        "pool.dispatch_ms": (_mean(rows, "pool.dispatch", "ms"), "ms"),
        "pool.items_per_dispatch": (
            dispatch_items / dispatch_count if dispatch_count else 0.0,
            "count",
        ),
        "pool.bytes_copied": (
            pool_delta.get("bytes_copied", 0) / dispatches if dispatches else 0.0,
            "B",
        ),
        "pool.copy_ratio": (
            pool_delta.get("bytes_copied", 0) / full if full else 0.0,
            "frac",
        ),
        "pool.dirty_ranges": (
            pool_delta.get("dirty_ranges", 0) / dispatches if dispatches else 0.0,
            "count",
        ),
        "pool.fallbacks": (float(pool_delta.get("fallbacks", 0)), "count"),
        "gc.pause_ms": (_mean(rows, "gc.collect", "ms"), "ms"),
        "gc.collections": (_mean(rows, "gc.collect", "count"), "count"),
        "trace.overhead_frac": (
            statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0,
            "frac",
        ),
    }
    write_ms = sum(r["client.write"]["ms"] for r in rows)
    names = sorted(
        {n for r in rows for n in r if n != "client.write"},
        key=lambda n: -sum(r.get(n, {}).get("ms", 0.0) for r in rows),
    )
    table = [f"# layer shares of traced write time ({len(rows)} batches, {write_ms:.1f} ms)"]
    for name in names:
        total = sum(r.get(name, {}).get("ms", 0.0) for r in rows)
        own = sum(r.get(name, {}).get("self_ms", 0.0) for r in rows)
        table.append(
            f"#   {name:<24} {100 * total / write_ms:6.1f}%  self {100 * own / write_ms:6.1f}%"
        )
    return metrics, table


def _pool_stats(client: Any) -> dict:
    stats = getattr(client.engine.tracker, "pool_stats", None)
    return stats() if stats is not None else {}


def _stop_resource_tracker() -> None:
    """Shared-memory segments start multiprocessing's resource tracker.

    Left alone it exits only on the EOF that this process's exit sends,
    so it outlives the run: after a pool run it was still running,
    re-parented to init, right after the benchmark returned (two times
    in three).  The benchmark must wait for every process it started,
    and the module has no public call to stop the tracker, so this uses
    the private one, which closes the pipe and waits for the tracker."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run(
    workload: str, seed: int, seconds: float, trace: bool, cfg: Any = None
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    from spans import SpanTracer
    from workloads import (
        UNGATED,
        WORKLOADS,
        Config,
        EdgeStream,
        drive,
        end_to_end,
        gate,
        held_out_check,
        time_setup,
        timed_build,
    )

    cfg = cfg or Config()
    wl = WORKLOADS[workload]
    stream = EdgeStream(cfg, seed, wl.bulk)
    # The collector stays on, but what is alive before a timed region
    # (first the generated graph, then the loaded client) is frozen, as
    # a long-running server does after it loads.  Left in the oldest
    # generation, the loaded engine made a full collection fall on
    # about 51% of svc-trickle writes, so the median write sat on the
    # gap between batches with and without one and moved by a quarter
    # from seed to seed.  Frozen, one cheaper full collection falls on
    # nearly every service write.
    gc.collect()
    gc.freeze()
    client, first = timed_build(cfg, wl, stream.initial)
    setup_times = [first]
    tracer = SpanTracer() if trace else None

    def rebuild() -> None:
        setup_times.append(time_setup(cfg, wl, stream.initial))

    try:
        before = _pool_stats(client)
        gc.collect()
        gc.freeze()
        # set-up is not reported by the traced run, so it is not repeated
        rec = drive(client, stream, cfg, seconds, tracer, None if trace else rebuild)
        after = _pool_stats(client)
        rec.attempted += 1
        for problem in gate(cfg, wl, client, stream, rec):
            rec.fail(problem)
    finally:
        client.close()
        gc.unfreeze()
    held = held_out_check(cfg, wl)
    attempted = rec.attempted + held.attempted
    failed = rec.failed + held.failed
    lines = [f"# {workload} seed={seed} batches={len(rec.write_s)} "
             f"attempted={attempted} failed={failed} "
             f"failed_frac={failed / attempted:.6f}"]
    lines += [f"# FAIL {p}" for p in rec.problems + held.problems]
    if not trace:
        lines.append("# set-up builds (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    if not rec.read_s or not rec.scan_s or len(rec.write_s) < 4:
        return {"correct": False, "attempted": attempted, "failed": max(failed, 1),
                "metrics": {}}, lines
    if trace:
        delta = {k: after[k] - before.get(k, 0) for k in after}
        metrics, table = layer_metrics(cfg, rec, tracer, delta)
        out = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(out)
        lines += table + [f"# spans: {out.relative_to(HERE.parent)}"]
    else:
        metrics = end_to_end(rec, setup_times, failed, attempted)
    lines += [
        f"{name:<30} {value:14.4f} {unit}" + (" (not gated)" if name in UNGATED else "")
        for name, (value, unit) in metrics.items()
    ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": v, "unit": u}
            for n, (v, u) in metrics.items()
            if n not in UNGATED
        },
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
