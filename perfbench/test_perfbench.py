"""Tests of the benchmark's own machinery: the correctness gate, the float
tolerance, the serve-tier version rule and the traced self-time split.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench import harness as harness_module  # noqa: E402
from perfbench.harness import Harness  # noqa: E402
from perfbench.oracle import same_multiset  # noqa: E402
from perfbench.workloads import Workload, query_texts, write_rows  # noqa: E402

TINY = Workload(
    "tiny", scale=0.2, shapes=("single_source_agg", "selective_scan", "two_way_join")
)


@pytest.fixture
def harness(tmp_path, monkeypatch):
    monkeypatch.setattr(harness_module, "SETUP_MIN_SECONDS", 0.0)
    h = Harness(TINY, seed=3, work_dir=tmp_path / "work")
    h.setup()
    yield h
    h.close()


def test_gate_passes_on_intact_sources(harness):
    assert harness.gate() == []
    assert len(harness.verified) == len(harness.texts)


def test_one_corrupted_row_trips_the_gate(harness):
    erp = harness.fed.sources["erp"]
    # The largest order passes every selective_scan threshold.
    with erp._lock:
        erp.connection.execute(
            "UPDATE orders SET o_total = o_total + 0.01 "
            "WHERE o_id = (SELECT o_id FROM orders ORDER BY o_total DESC LIMIT 1)"
        )
        erp.connection.commit()
    problems = harness.gate()
    assert problems
    assert all("differ from the oracle" in problem for problem in problems)


def test_multiset_comparison_tolerates_float_noise_only():
    want = [("a", 1, 10.0), ("b", 2, 0.1 + 0.2)]
    assert same_multiset([("b", 2, 0.3), ("a", 1, 10.0 + 1e-12)], want)
    assert not same_multiset([("a", 1, 10.0), ("b", 2, 0.31)], want)
    assert not same_multiset([("a", 1, 10.0), ("a", 1, 10.0)], want)
    assert not same_multiset([("a", 1, 10.0)], want)


def test_serve_reply_must_match_a_version_inside_its_window(harness):
    harness.gate()
    index = 0  # a single_source_agg text: its counts move with every write
    orders = harness.fed.row_counts["orders"]
    customers = harness.fed.row_counts["customers"]
    harness.oracle.insert("orders", write_rows(harness.seed, 1, orders, customers))
    after_write = harness.oracle.query(harness.texts[index])
    harness.oracle.close()
    harness.gate()  # fresh oracle at version 0
    before_write = harness.oracle.query(harness.texts[index])
    assert sorted(after_write) != sorted(before_write)
    key = (index, json.dumps(after_write))
    assert harness.verify_replies({key: Counter({(0, 1): 2})}) == 0
    assert harness.verify_replies({key: Counter({(1, 1): 1, (2, 2): 3})}) == 3
    with pytest.raises(RuntimeError):
        harness.verify_replies({key: Counter({(0, 0): 1})})


def test_traced_split_sums_to_wall_and_matches_program_counters(harness, tmp_path):
    from repro.core.analyzer import Analyzer

    original = Analyzer.bind_statement
    harness.gate()
    rec = tracing.SpanRecorder()
    patches = tracing.install(rec)
    try:
        window = harness.run_inprocess(0.5, min_queries=len(harness.texts), rec=rec)
    finally:
        tracing.uninstall(patches)
    assert Analyzer.bind_statement is original
    assert window.failed == 0
    path = tmp_path / "spans.jsonl"
    rec.write(str(path))
    derived = tracing.derive(str(path))
    assert derived["checks"]["count_mismatches"] == 0, derived["checks"]
    assert derived["checks"]["self_sum_max_err_ms"] <= tracing.SELF_SUM_TOLERANCE_MS
    metrics = derived["metrics"]
    assert metrics["trace.queries"] == window.queries
    assert metrics["sql.parse_ms"] > 0 and metrics["source.sqlite.fetch_ms"] > 0
    assert 0 < metrics["plan.share"] < 1


def test_query_texts_depend_on_the_seed_only():
    assert query_texts(TINY, 5) == query_texts(TINY, 5)
    assert query_texts(TINY, 5) != query_texts(TINY, 6)


def test_benchmark_json_lists_every_reported_metric():
    from perfbench.run import E2E_UNITS, _per_layer_units
    from perfbench.workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == _per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
