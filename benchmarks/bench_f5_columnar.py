"""F5 — columnar vectorized kernels vs row-tuple batch engine (Table 7).

Same scan-only federation as F4 (every filter, projection, join, and
aggregate compensated mediator-side, above the exchange), comparing the
two expression engines at fixed batch sizes:

* ``vectorize=False`` — the PR 2 row-kernel engine: compiled per-row
  closures looped over each page (kept in-tree as the baseline and as
  the equivalence oracle);
* ``vectorize=True`` — columnar kernels: one tight loop per column per
  expression node over the page's column vectors.

Pipelines:

* P1 ``scan → filter → project`` — the pure kernel path;
* P2 ``scan → filter → hash join → aggregate`` — stateful operators;
* P3 wide aggregate — eight accumulators over grouped columns, the
  column-wise accumulation path.

Reported per pipeline: wall milliseconds for each engine at batch sizes
1 and 1024, and the columnar/row speedup per batch size. At
``batch_size=1`` pages are single rows and vectorization cannot help
(the interesting claim is that it does not *hurt* much); at the default
1024 the acceptance bar is ≥ 1.5x on P1. Results are asserted identical
across every engine/batch combination.
"""

import time

from repro import (
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    PlannerOptions,
)
from repro.catalog.schema import schema_from_pairs
from repro.sources.base import SourceCapabilities

from .common import emit, emit_json, format_row

ITEM_ROWS = 60_000
DIM_ROWS = 64
BATCH_SIZES = [1, 1024]
REPEATS = 3
WIDTHS = (7, 12, 12, 9)

P1 = "SELECT k, val * 2.0 FROM items WHERE val > 400.0"
P2 = (
    "SELECT d.label, COUNT(*), SUM(i.val) FROM items i "
    "JOIN dims d ON i.grp = d.g WHERE i.val > 250.0 "
    "GROUP BY d.label ORDER BY d.label"
)
P3 = (
    "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val), "
    "SUM(k), MIN(k), MAX(k) FROM items GROUP BY grp ORDER BY grp"
)


def build() -> GlobalInformationSystem:
    gis = GlobalInformationSystem()
    store = MemorySource("store", capabilities=SourceCapabilities.scan_only())
    store.add_table(
        "items",
        schema_from_pairs(
            "items", [("k", "INT"), ("grp", "INT"), ("val", "FLOAT"),
                      ("tag", "TEXT")],
        ),
        [
            (i, i % DIM_ROWS, float((i * 7919) % 1000), f"t{i % 97}")
            for i in range(ITEM_ROWS)
        ],
    )
    ref = MemorySource("ref", capabilities=SourceCapabilities.scan_only())
    ref.add_table(
        "dims",
        schema_from_pairs("dims", [("g", "INT"), ("label", "TEXT")]),
        [(g, f"group-{g:02d}") for g in range(DIM_ROWS)],
    )
    gis.register_source("store", store, link=NetworkLink(1.0, 100e6))
    gis.register_source("ref", ref, link=NetworkLink(1.0, 100e6))
    gis.register_table("items", source="store")
    gis.register_table("dims", source="ref")
    gis.analyze()
    return gis


def measure(gis, sql, batch_size, vectorize):
    """Best-of-N wall ms and the result rows (for cross-engine checks)."""
    options = PlannerOptions(batch_size=batch_size, vectorize=vectorize)
    best_ms, rows = float("inf"), None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = gis.query(sql, options)
        elapsed = (time.perf_counter() - started) * 1000.0
        if elapsed < best_ms:
            best_ms = elapsed
        rows = result.rows
    return best_ms, rows


def sweep(gis, title, sql, lines):
    lines.append(f"-- {title} --")
    lines.append(
        format_row(("batch", "row ms", "columnar ms", "speedup"), WIDTHS)
    )
    lines.append("-" * 44)
    speedups = {}
    baseline_rows = None
    for batch_size in BATCH_SIZES:
        row_ms, row_rows = measure(gis, sql, batch_size, vectorize=False)
        col_ms, col_rows = measure(gis, sql, batch_size, vectorize=True)
        if baseline_rows is None:
            baseline_rows = row_rows
        assert row_rows == baseline_rows, "rows must not depend on the engine"
        assert col_rows == baseline_rows, "rows must not depend on the engine"
        speedups[batch_size] = row_ms / col_ms
        lines.append(
            format_row(
                (batch_size, f"{row_ms:.1f}", f"{col_ms:.1f}",
                 f"{speedups[batch_size]:.2f}x"),
                WIDTHS,
            )
        )
    return speedups


def test_f5_columnar_speedup(benchmark):
    gis = build()
    lines = []
    p1 = sweep(gis, "P1: scan-filter-project", P1, lines)
    lines.append("")
    p2 = sweep(gis, "P2: scan-filter-join-aggregate", P2, lines)
    lines.append("")
    p3 = sweep(gis, "P3: wide aggregate (8 accumulators)", P3, lines)
    emit("f5_columnar", "F5: columnar kernels vs row-kernel engine", lines)
    emit_json(
        "BENCH_F5",
        {
            "benchmark": "F5 columnar kernels vs row-kernel engine",
            "item_rows": ITEM_ROWS,
            "batch_sizes": BATCH_SIZES,
            "pipelines": [
                {
                    "pipeline": name,
                    "speedup_by_batch": {
                        str(batch): round(ratio, 2)
                        for batch, ratio in speedups.items()
                    },
                }
                for name, speedups in [("P1", p1), ("P2", p2), ("P3", p3)]
            ],
        },
    )

    # Acceptance bar: vectorization must beat the row-kernel engine by
    # >= 1.5x on the pure kernel path at the default batch size.
    assert p1[1024] >= 1.5, (
        f"columnar must be >= 1.5x the row engine on P1 at batch=1024 "
        f"(got {p1[1024]:.2f}x)"
    )
    # Stateful pipelines must not regress under vectorization.
    assert p2[1024] >= 1.0
    assert p3[1024] >= 1.0

    # Wall-clock of the default columnar P1 run for the benchmark table.
    benchmark(lambda: gis.query(P1))
