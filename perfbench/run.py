"""The repository benchmark: one command, three TPC-H-lite workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs half the window untraced, then installs the timing
wrappers of :mod:`perfbench.tracing` for the other half, writes the spans
to ``.perfbench_out/`` and reports the per-layer split derived from them.
The workloads and their design are in ``perfbench/workloads.py`` and
``perfbench/design.json``.

Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every oracle
check and cross-check passed; 2 when the program is not there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

E2E_UNITS = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "success_rate": "fraction",
    "wan_ms_per_query": "sim_ms",
    "bytes_per_query": "bytes",
    "rss_peak_mb": "MB",
}


def _per_layer_units():
    from perfbench.tracing import REPORTED_OPS, SOURCE_KINDS

    units = {"sql.parse_ms": "ms"}
    for name in ("analyze", "rewrite", "join_order", "pushdown", "semijoin",
                 "physical", "self", "explain"):
        units[f"plan.{name}_ms"] = "ms"
    units.update({
        "plan.share": "fraction",
        "plan_cache.hit_rate": "fraction",
        "plan_cache.fallbacks": "count",
        "plan_cache.invalidations": "count",
        "plan_cache.bind_ms": "ms",
    })
    for kind in SOURCE_KINDS:
        units[f"source.{kind}.fetch_ms"] = "ms"
    units.update({
        "source.sqlite.compile_ms": "ms",
        "source.pages": "count",
        "source.rows": "count",
        "source.fetch_share": "fraction",
        "net.messages": "count",
        "net.rows_shipped": "count",
        "net.bytes_shipped": "bytes",
        "net.fragments": "count",
        "net.semijoin_batches": "count",
        "exec.self_ms": "ms",
    })
    for op in REPORTED_OPS:
        units[f"exec.op.{op}.self_ms"] = "ms"
    units.update({
        "exec.op.other.self_ms": "ms",
        "exec.share": "fraction",
        "fragment_cache.hit_rate": "fraction",
        "fragment_cache.subsumed_share": "fraction",
        "fragment_cache.evictions": "count",
        "fragment_cache.rejected_oversize": "count",
        "fragment_cache.rejected_stale": "count",
        "fragment_cache.bytes_saved": "bytes",
        "fragment_cache.begin_ms": "ms",
        "fragment_cache.working_set_bytes": "bytes",
        "fragment_cache.budget_bytes": "bytes",
        "catalog.notify_ms": "ms",
        "catalog.writes": "count",
        "serve.server_query_ms": "ms",
        "serve.overhead_ms": "ms",
        "serve.encode_ms": "ms",
        "serve.queue_wait_ms": "ms",
        "serve.rejected": "count",
        "trace.overhead_frac": "fraction",
        "trace.query_ms": "ms",
        "trace.queries": "count",
        "trace.self_sum_max_err_ms": "ms",
        "trace.count_mismatches": "count",
        "query.wall_gap_ms": "ms",
        "error_rate": "fraction",
    })
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to run under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"run-{os.getpid()}"
    from perfbench.harness import Harness

    harness = Harness(workload, args.seed, work_dir)
    try:
        if args.trace:
            report = _traced(harness, args.seconds)
        else:
            report = _untraced(harness, args.seconds)
    finally:
        harness.close()
    _print(report)
    return 0 if report["correct"] else 1


def _prepare(harness):
    from perfbench.harness import log

    harness.setup()
    problems = harness.gate()
    for problem in problems[:5]:
        log(f"gate: {problem}")
    return problems


def _window(harness, seconds, min_queries=0, rec=None):
    """Run one timed window; serve replies are verified after it."""
    if harness.workload.serve:
        window, replies = harness.run_serve(seconds, rec)
        wrong = harness.verify_replies(replies)
        window.failed += wrong
        return window
    return harness.run_inprocess(seconds, min_queries, rec)


def _untraced(harness, seconds):
    from perfbench.harness import MIN_QUERIES, log, percentile
    from perfbench.workloads import LITERALS_PER_SLOT

    problems = _prepare(harness)
    workload = harness.workload
    deck = len(workload.shapes) * LITERALS_PER_SLOT
    # WAN and bytes are averaged over whole decks from the start of the
    # stream, so for one seed they repeat exactly on the in-process loops.
    prefix = deck * -(-MIN_QUERIES // deck)
    window = _window(harness, seconds, prefix)
    for error in window.errors:
        log(f"error: {error}")
    lat = window.latencies_ms
    good = window.queries - window.failed
    if workload.serve:
        wan = window.ledger_ms / max(window.queries, 1)
        nbytes = window.ledger_bytes / max(window.queries, 1)
    else:
        wan = statistics.fmean(window.simulated_ms[:prefix] or [0.0])
        nbytes = statistics.fmean(window.bytes_shipped[:prefix] or [0.0])
    metrics = {
        "setup_s": statistics.median(harness.setup_seconds),
        "throughput_qps": good / window.seconds,
        "latency_p50_ms": statistics.median(lat) if lat else 0.0,
        "latency_p95_ms": percentile(lat, 95),
        "success_rate": 1.0 - window.failed / max(window.attempted, 1),
        "wan_ms_per_query": wan,
        "bytes_per_query": nbytes,
        "rss_peak_mb": _rss_mb(),
    }
    print(f"{workload.name}: {len(lat)} latency samples "
          f"({sum(1 for v in lat if v > metrics['latency_p95_ms'])} beyond p95), "
          f"{window.writes} writes, {len(harness.texts)} distinct queries, "
          f"set-ups {[round(s, 3) for s in harness.setup_seconds]} s")
    correct = not problems and window.failed == 0 and len(lat) >= MIN_QUERIES
    return {
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed + len(problems),
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def _traced(harness, seconds):
    from perfbench import tracing
    from perfbench.harness import log

    problems = _prepare(harness)
    workload = harness.workload
    gis = harness.gis
    half = seconds / 2.0
    plain = _window(harness, half)

    rec = tracing.SpanRecorder()
    plan0, frag0 = gis.plan_cache.stats(), gis.fragment_cache.stats()
    admission0 = _admission(harness)
    patches = tracing.install(rec)
    try:
        traced = _window(harness, half, rec=rec)
    finally:
        tracing.uninstall(patches)
    plan1, frag1 = gis.plan_cache.stats(), gis.fragment_cache.stats()
    admission1 = _admission(harness)

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}-{harness.seed}.jsonl"
    rec.write(str(span_file))
    derived = tracing.derive(str(span_file))
    log(f"spans written to {span_file}")

    units = _per_layer_units()
    metrics = {name: 0.0 for name in units}
    metrics.update({k: v for k, v in derived["metrics"].items() if k in units})
    checks = derived["checks"]
    totals = derived["totals"]

    def delta(after, before, key):
        return after[key] - before[key]

    plan_lookups = sum(delta(plan1, plan0, k) for k in ("hits", "misses", "fallbacks"))
    frag_hits = delta(frag1, frag0, "hits") + delta(frag1, frag0, "subsumed_hits")
    frag_lookups = frag_hits + delta(frag1, frag0, "misses")
    programs = list(rec.program.values())
    metrics.update({
        "plan_cache.hit_rate": delta(plan1, plan0, "hits") / plan_lookups if plan_lookups else 0.0,
        "plan_cache.fallbacks": delta(plan1, plan0, "fallbacks"),
        "plan_cache.invalidations": delta(plan1, plan0, "invalidations"),
        "fragment_cache.hit_rate": frag_hits / frag_lookups if frag_lookups else 0.0,
        "fragment_cache.subsumed_share": (
            delta(frag1, frag0, "subsumed_hits") / frag_hits if frag_hits else 0.0
        ),
        "fragment_cache.evictions": delta(frag1, frag0, "evictions"),
        "fragment_cache.rejected_oversize": delta(frag1, frag0, "rejected_oversize"),
        "fragment_cache.rejected_stale": delta(frag1, frag0, "rejected_stale"),
        "fragment_cache.bytes_saved": (
            statistics.fmean(p["fragment_cache_bytes_saved"] for p in programs)
            if programs else 0.0
        ),
        "fragment_cache.budget_bytes": workload.fragment_cache_bytes,
        "trace.self_sum_max_err_ms": checks["self_sum_max_err_ms"],
        "error_rate": (plain.failed + traced.failed) / max(plain.attempted + traced.attempted, 1),
        "query.wall_gap_ms": statistics.fmean(plain.wall_gaps_ms or [0.0]),
    })
    p50_plain = statistics.median(plain.latencies_ms) if plain.latencies_ms else 0.0
    p50_traced = statistics.median(traced.latencies_ms) if traced.latencies_ms else 0.0
    metrics["trace.overhead_frac"] = p50_traced / p50_plain - 1.0 if p50_plain else 0.0
    if admission0 is not None:
        completed = admission1[0] - admission0[0]
        metrics["serve.queue_wait_ms"] = (
            (admission1[1] - admission0[1]) / completed if completed else 0.0
        )
        metrics["serve.rejected"] = admission1[2] - admission0[2]

    # Cross-checks: traced tallies against the program's own counters.
    mismatches = list(checks["mismatch_examples"])
    count = checks["count_mismatches"]
    pairs = []
    if workload.plan_cache_size:
        pairs += [
            ("plan_cache.hits", totals["plan_hits"], delta(plan1, plan0, "hits")),
            ("plan_cache.fallbacks", totals["plan_fallbacks"],
             delta(plan1, plan0, "fallbacks")),
            ("plan_cache.misses", totals["plan_statements"] - totals["plan_fallbacks"],
             delta(plan1, plan0, "misses")),
        ]
    if workload.fragment_cache_bytes:
        pairs += [
            ("fragment_cache.hits", totals["fragment_hits"], frag_hits),
            ("fragment_cache.misses", totals["fragment_misses"],
             delta(frag1, frag0, "misses")),
        ]
    for label, traced_value, reported in pairs:
        if traced_value != reported:
            count += 1
            mismatches.append(f"{label}: traced {traced_value} != stats {reported}")
    if checks["client_server_pairs"]:
        count += 1
        mismatches.append(f"{checks['client_server_pairs']} client requests without a server span")
    metrics["trace.count_mismatches"] = count
    for mismatch in mismatches[:5]:
        log(f"cross-check: {mismatch}")
    for error in (plain.errors + traced.errors)[:5]:
        log(f"error: {error}")
    failed = plain.failed + traced.failed + len(problems)
    return {
        "correct": failed == 0 and count == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _admission(harness):
    """(dispatched, total queue wait ms, rejected) summed over tenants."""
    if not harness.clients:
        return None
    tenants = harness.clients[0].stats()["tenants"].values()
    dispatched = sum(t["completed"] + t["failed"] + t["running"] for t in tenants)
    wait = sum(
        t["queue_wait_ms_avg"] * (t["completed"] + t["failed"] + t["running"])
        for t in tenants
    )
    return dispatched, wait, sum(t["rejected"] for t in tenants)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print(report) -> None:
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"correct = {report['correct']}, attempted = {report['attempted']}, "
          f"failed = {report['failed']}")
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
