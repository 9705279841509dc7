"""Semantic fragment cache + materialized views (repro.cache).

The load-bearing invariants:

* a cached answer — exact or subsumed — is **bit-identical** (rows and
  value types) to cold execution and ships **zero** fragment bytes;
* subsumption is sound for equality, closed/open ranges, conjunctions,
  and NULL-bearing columns (3VL: range predicates never select NULLs);
* **partial results never enter the cache**, and a source-epoch bump
  mid-flight can never admit (or serve) pre-bump pages.
"""

from __future__ import annotations

import copy
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    GlobalInformationSystem,
    MemorySource,
    NetworkLink,
    PlannerOptions,
)
from repro.cache import FragmentCache, SourceEpochs
from repro.catalog.schema import schema_from_pairs
from repro.core.join_order import JOIN_STRATEGIES
from repro.core.mediator import PLAN_KEY_FIELDS
from repro.core.pages import Page
from repro.core.physical import JOIN_ALGORITHMS, ExchangeExec, _row_bytes
from repro.core.pushdown import PUSHDOWN_LEVELS
from repro.core.semijoin import SEMIJOIN_MODES
from repro.errors import CatalogError, ExecutionError, ParseError
from repro.sources.faults import FaultPlan, FaultSpec
from repro.sql.parser import parse_utility

ROWS = [
    # NULL-bearing score/region columns on purpose.
    (i, f"name{i}", ("east" if i % 2 else "west") if i % 7 else None,
     float(i) if i % 5 else None)
    for i in range(1, 121)
]

#: A two-page fragment stream for driving a cache fill by hand.
TWO_PAGES = [Page.from_rows([(1, "e", 10.0)]), Page.from_rows([(2, "w", 20.0)])]


def make_gis(fragment_cache_bytes=1_000_000, **kwargs):
    gis = GlobalInformationSystem(
        fragment_cache_bytes=fragment_cache_bytes, **kwargs
    )
    crm = MemorySource("crm")
    crm.add_table(
        "customers",
        schema_from_pairs(
            "customers",
            [("id", "INT"), ("name", "TEXT"), ("region", "TEXT"),
             ("score", "FLOAT")],
        ),
        ROWS,
    )
    gis.register_source("crm", crm, link=NetworkLink(20.0, 1_000_000.0))
    gis.register_table("customers", source="crm")
    return gis


def assert_bit_identical(result, oracle):
    assert result.column_names == oracle.column_names
    assert sorted(result.rows) == sorted(oracle.rows)
    by_key = {row: row for row in oracle.rows}
    for row in result.rows:
        twin = by_key[row]
        for a, b in zip(row, twin):
            assert type(a) is type(b), (row, twin)


# ---------------------------------------------------------------------------
# exact + subsumed hits
# ---------------------------------------------------------------------------


def test_exact_hit_ships_zero_bytes_and_is_bit_identical():
    gis = make_gis()
    sql = "SELECT id, score FROM customers WHERE score > 10"
    cold = gis.query(sql)
    assert cold.metrics.bytes_shipped > 0
    warm = gis.query(sql)
    assert warm.metrics.bytes_shipped == 0.0
    assert warm.metrics.network.fragment_cache_hits == 1
    assert warm.metrics.network.fragment_cache_bytes_saved == pytest.approx(
        cold.metrics.bytes_shipped
    )
    assert_bit_identical(warm, cold)
    stats = gis.fragment_cache.stats()
    assert stats["hits"] == 1 and stats["admissions"] == 1


SUPERSET = "SELECT id, region, score FROM customers WHERE score >= 10"

SUBSUMED_PROBES = [
    # open range inside a closed one
    "SELECT id, score FROM customers WHERE score > 50",
    # closed range, both ends
    "SELECT id, region, score FROM customers WHERE score >= 20 AND score <= 90",
    # equality inside the range
    "SELECT id FROM customers WHERE score = 33",
    # BETWEEN sugar
    "SELECT score FROM customers WHERE score BETWEEN 15 AND 30",
    # conjunction adding a constraint on another shipped column
    "SELECT id, region FROM customers WHERE score > 10 AND region = 'east'",
    # IN-list inside the range
    "SELECT id, score FROM customers WHERE score IN (12, 14, 16) AND score >= 10",
    # redundant IS NOT NULL on a range-constrained NULL-bearing column
    "SELECT id, score FROM customers WHERE score > 25 AND score IS NOT NULL",
]


@pytest.mark.parametrize("probe", SUBSUMED_PROBES)
def test_subsumed_probe_matches_oracle_with_zero_bytes(probe):
    gis = make_gis()
    gis.query(SUPERSET)
    result = gis.query(probe)
    oracle = make_gis(fragment_cache_bytes=0).query(probe)
    assert result.metrics.bytes_shipped == 0.0, probe
    assert result.metrics.network.fragment_cache_hits == 1
    assert_bit_identical(result, oracle)
    assert gis.fragment_cache.stats()["subsumed_hits"] == 1


NOT_SUBSUMED_PROBES = [
    # wider range
    "SELECT id, score FROM customers WHERE score >= 5",
    # boundary widening: cached `>= 10` does not contain `> 9`
    "SELECT id, score FROM customers WHERE score > 9",
    # needs a column the cached fragment did not ship
    "SELECT id, name FROM customers WHERE score > 50",
    # NULL rows were filtered out of the cached result (3VL)
    "SELECT id, score FROM customers WHERE score IS NULL",
    # unconstrained scan
    "SELECT id, score FROM customers",
]


@pytest.mark.parametrize("probe", NOT_SUBSUMED_PROBES)
def test_non_subsumed_probe_goes_to_the_source(probe):
    gis = make_gis()
    gis.query(SUPERSET)
    result = gis.query(probe)
    oracle = make_gis(fragment_cache_bytes=0).query(probe)
    assert result.metrics.bytes_shipped > 0, probe
    assert_bit_identical(result, oracle)


def test_unfiltered_scan_subsumes_null_probes():
    """A cached full scan contains the NULL rows, so IS NULL is servable."""
    gis = make_gis()
    gis.query("SELECT id, score FROM customers")
    for probe in (
        "SELECT id, score FROM customers WHERE score IS NULL",
        "SELECT id, score FROM customers WHERE score IS NOT NULL",
        "SELECT id FROM customers WHERE score < 40",
    ):
        result = gis.query(probe)
        oracle = make_gis(fragment_cache_bytes=0).query(probe)
        assert result.metrics.bytes_shipped == 0.0, probe
        assert_bit_identical(result, oracle)


def test_strict_boundary_subsumption_is_exact():
    gis = make_gis()
    gis.query("SELECT id, score FROM customers WHERE score > 10")
    # `>= 10` includes score == 10 which the cached entry filtered out.
    probe = "SELECT id, score FROM customers WHERE score >= 10"
    result = gis.query(probe)
    assert result.metrics.bytes_shipped > 0
    assert_bit_identical(
        result, make_gis(fragment_cache_bytes=0).query(probe)
    )


def test_subsumed_replay_matches_cold_oracle():
    gis = make_gis()
    gis.query(SUPERSET)
    probe = "SELECT id, score FROM customers WHERE score > 40"
    warm = gis.query(probe)
    oracle = make_gis(fragment_cache_bytes=0).query(probe)
    assert warm.metrics.bytes_shipped == 0.0
    assert_bit_identical(warm, oracle)


def test_parallel_scheduler_fills_then_replays():
    options = PlannerOptions(max_parallel_fragments=4)
    gis = make_gis()
    cold = gis.query(SUPERSET, options)
    assert cold.metrics.bytes_shipped > 0
    warm = gis.query(SUPERSET, options)
    assert warm.metrics.bytes_shipped == 0.0
    assert_bit_identical(warm, cold)


# ---------------------------------------------------------------------------
# entries are the pages that streamed past, replayed without a copy
# ---------------------------------------------------------------------------

#: A mediator-side Project over a Filter over a LEFT HashJoin of two
#: customers fragments: `a` is subsumed by SUPERSET, `b` (no score
#: column, so it can never serve `a`) is a full scan.
JOIN_OVER_CACHE = (
    "SELECT a.id, a.score * 2 AS dbl, b.region FROM customers a "
    "LEFT JOIN customers b ON a.id = b.id + 1 "
    "WHERE a.score >= 10 AND (b.region IS NULL OR a.score > 30)"
)


def cache_entries(gis):
    return list(gis.fragment_cache._entries.values())


def test_admitted_entries_hold_pages_sized_like_rows():
    gis = make_gis()
    gis.query(SUPERSET)
    (entry,) = cache_entries(gis)
    assert entry.pages
    assert all(isinstance(page, Page) for page in entry.pages)
    rows = [row for page in entry.pages for row in page]
    assert len(rows) == len(gis.query(SUPERSET).rows)
    assert entry.bytes == sum(_row_bytes(row) for row in rows)
    assert gis.fragment_cache.stats()["bytes"] == entry.bytes


def test_replays_never_mutate_cached_pages():
    gis = make_gis()
    operators = [
        type(op).__name__ for op in gis.plan(JOIN_OVER_CACHE).physical.walk()
    ]
    assert operators[:3] == ["ProjectExec", "FilterExec", "HashJoinExec"]
    oracle = make_gis(fragment_cache_bytes=0).query(JOIN_OVER_CACHE)
    snapshots = {}

    def snapshot_new_entries():
        for entry in cache_entries(gis):
            snapshots.setdefault(entry.key, copy.deepcopy(entry.pages))

    gis.query(SUPERSET)
    snapshot_new_entries()
    # `a` replays SUPERSET's pages through a subsumed residual that keeps
    # every row, so the probe side sees the cached column vectors
    # themselves; `b` misses and fills a second entry.
    first = gis.query(JOIN_OVER_CACHE)
    assert gis.fragment_cache.stats()["subsumed_hits"] == 1
    snapshot_new_entries()
    # `b` replays its own entry exactly into the build side.
    second = gis.query(JOIN_OVER_CACHE)
    assert gis.fragment_cache.stats()["hits"] == 1
    assert second.metrics.bytes_shipped == 0.0
    entries = cache_entries(gis)
    assert len(entries) == len(snapshots) == 2
    for entry in entries:
        assert entry.pages == snapshots[entry.key]
    assert_bit_identical(first, oracle)
    assert_bit_identical(second, oracle)


# ---------------------------------------------------------------------------
# budget, eviction, invalidation
# ---------------------------------------------------------------------------


def test_lru_eviction_respects_byte_budget():
    gis = make_gis()
    baseline = gis.query(SUPERSET).metrics.bytes_shipped
    gis.fragment_cache.clear()
    small = make_gis(fragment_cache_bytes=int(baseline) + 8)
    small.query(SUPERSET)
    small.query("SELECT id, name, region, score FROM customers")
    stats = small.fragment_cache.stats()
    assert stats["bytes"] <= stats["budget_bytes"] or stats["entries"] == 1
    assert stats["evictions"] + stats["rejected_oversize"] >= 1


def test_notify_source_changed_invalidates_fragments():
    gis = make_gis()
    gis.query(SUPERSET)
    assert gis.query(SUPERSET).metrics.bytes_shipped == 0.0
    gis.notify_source_changed("crm")
    post = gis.query(SUPERSET)
    assert post.metrics.bytes_shipped > 0
    assert len(gis.fragment_cache) == 1  # refilled on the new epoch


def test_zero_budget_disables_the_cache():
    gis = make_gis(fragment_cache_bytes=0)
    gis.query(SUPERSET)
    warm = gis.query(SUPERSET)
    assert warm.metrics.bytes_shipped > 0
    assert not gis.fragment_cache.enabled
    with pytest.raises(ValueError):
        FragmentCache(-1, SourceEpochs())


# ---------------------------------------------------------------------------
# chaos: partial results and mid-flight epoch bumps
# ---------------------------------------------------------------------------


def test_partial_results_are_never_admitted():
    plan = FaultPlan.of(seed=3, crm=FaultSpec(fail_after_pages=1))
    options = PlannerOptions(on_source_failure="partial", faults=plan)
    gis = make_gis()
    degraded = gis.query(SUPERSET, options)
    assert not degraded.complete
    stats = gis.fragment_cache.stats()
    assert stats["admissions"] == 0
    # The next (healthy) run must go to the source and see all rows.
    healthy = gis.query(SUPERSET)
    assert healthy.metrics.bytes_shipped > 0
    assert_bit_identical(
        healthy, make_gis(fragment_cache_bytes=0).query(SUPERSET)
    )


def test_failed_query_admits_nothing():
    plan = FaultPlan.of(seed=3, crm=FaultSpec(fail_connect=10))
    gis = make_gis()
    with pytest.raises(Exception):
        gis.query(SUPERSET, PlannerOptions(faults=plan))
    assert gis.fragment_cache.stats()["admissions"] == 0


def test_midflight_epoch_bump_rejects_admission():
    gis = make_gis()
    planned = gis.plan(SUPERSET)
    exchange = next(
        op for op in planned.physical.walk() if isinstance(op, ExchangeExec)
    )
    ctx = gis._execution_context(None)
    decision = gis.fragment_cache.begin(exchange, ctx)
    assert decision is not None and decision.fill is not None
    filled = decision.fill(iter(TWO_PAGES))
    next(filled)  # first page in flight...
    gis.source_epochs.bump("crm")  # ...the source moves...
    for _ in filled:  # ...and the stream still finishes cleanly
        pass
    stats = gis.fragment_cache.stats()
    assert stats["admissions"] == 0
    assert stats["rejected_stale"] == 1
    assert not gis.fragment_cache.would_serve(exchange.fragment)


def test_abandoned_fill_is_not_admitted():
    gis = make_gis()
    planned = gis.plan(SUPERSET)
    exchange = next(
        op for op in planned.physical.walk() if isinstance(op, ExchangeExec)
    )
    ctx = gis._execution_context(None)
    decision = gis.fragment_cache.begin(exchange, ctx)
    filled = decision.fill(iter(TWO_PAGES))
    next(filled)
    filled.close()  # consumer abandoned mid-stream (LIMIT, error, deadline)
    assert gis.fragment_cache.stats()["admissions"] == 0


# ---------------------------------------------------------------------------
# materialized views
# ---------------------------------------------------------------------------


def test_materialized_view_serves_with_zero_network():
    gis = make_gis()
    status = gis.query(
        "CREATE MATERIALIZED VIEW east5 WITH STALENESS 60000 AS "
        "SELECT id, score FROM customers WHERE region = 'east' AND score > 5"
    )
    assert "created" in status.rows[0][0]
    result = gis.query("SELECT COUNT(*) FROM east5")
    assert result.metrics.network.materialized_view_hits == 1
    assert result.metrics.bytes_shipped == 0.0
    oracle = make_gis(fragment_cache_bytes=0).query(
        "SELECT COUNT(*) FROM customers "
        "WHERE region = 'east' AND score > 5"
    )
    assert result.scalar() == oracle.scalar()


def test_materialized_view_staleness_and_refresh():
    gis = make_gis()
    gis.query(
        "CREATE MATERIALIZED VIEW snap AS SELECT id FROM customers "
        "WHERE score > 100"
    )
    assert gis.materialized.fresh("snap")
    gis.notify_source_changed("crm")
    # staleness 0: any bump makes it stale; queries fall back to expansion
    assert not gis.materialized.fresh("snap")
    fallback = gis.query("SELECT COUNT(*) FROM snap")
    assert fallback.metrics.network.materialized_view_hits == 0
    assert fallback.metrics.bytes_shipped > 0
    gis.query("REFRESH MATERIALIZED VIEW snap")
    assert gis.materialized.fresh("snap")
    again = gis.query("SELECT COUNT(*) FROM snap")
    assert again.metrics.network.materialized_view_hits == 1


def test_materialized_view_staleness_window_keeps_serving():
    gis = make_gis()
    gis.query(
        "CREATE MATERIALIZED VIEW windowed WITH STALENESS 600000 AS "
        "SELECT id FROM customers WHERE score > 100"
    )
    gis.notify_source_changed("crm")
    # Bumped, but the first invalidating bump is well inside the window.
    assert gis.materialized.fresh("windowed")
    result = gis.query("SELECT COUNT(*) FROM windowed")
    assert result.metrics.network.materialized_view_hits == 1


def test_materialized_view_ddl_roundtrip_and_errors():
    gis = make_gis()
    gis.query("CREATE MATERIALIZED VIEW mv1 AS SELECT id FROM customers")
    with pytest.raises(CatalogError):
        gis.query("CREATE MATERIALIZED VIEW mv1 AS SELECT id FROM customers")
    dropped = gis.query("DROP MATERIALIZED VIEW mv1")
    assert "dropped" in dropped.rows[0][0]
    with pytest.raises(CatalogError):
        gis.query("REFRESH MATERIALIZED VIEW mv1")
    with pytest.raises(ParseError):
        gis.query("CREATE MATERIALIZED VIEW broken WITH STALENESS x AS SELECT 1")


def test_materialized_view_results_stay_out_of_result_cache():
    gis = make_gis(result_cache_size=8)
    gis.query("CREATE MATERIALIZED VIEW mv AS SELECT id FROM customers")
    first = gis.query("SELECT COUNT(*) FROM mv")
    assert first.metrics.network.materialized_view_hits == 1
    second = gis.query("SELECT COUNT(*) FROM mv")
    # Served by the snapshot again — never by the result cache, whose
    # epoch invalidation cannot see the staleness clock.
    assert not second.metrics.network.cache_hit
    assert second.metrics.network.materialized_view_hits == 1


def test_refresh_refuses_partial_snapshots():
    plan = FaultPlan.of(seed=1, crm=FaultSpec(fail_connect=50))
    gis = make_gis(
        options=PlannerOptions(on_source_failure="partial"), faults=plan
    )
    with pytest.raises((ExecutionError,)):
        gis.create_materialized_view("mv", "SELECT id FROM customers")
    # The failed CREATE must leave no debris behind.
    assert not gis.materialized.has("mv")
    assert not gis.catalog.has_table("mv")


def test_prepared_statements_bypass_snapshots():
    gis = make_gis()
    gis.query("CREATE MATERIALIZED VIEW mv AS SELECT id FROM customers")
    prepared = gis.prepare("SELECT COUNT(*) FROM mv")
    result = prepared.execute()
    assert result.metrics.network.materialized_view_hits == 0


def test_parse_utility_fast_path_and_syntax():
    assert parse_utility("SELECT 1") is None
    assert parse_utility("  select * from t") is None
    created = parse_utility(
        "CREATE MATERIALIZED VIEW v WITH STALENESS 2500 AS SELECT 1;"
    )
    assert created.kind == "create_materialized"
    assert created.name == "v"
    assert created.staleness_ms == 2500.0
    assert created.select_sql == "SELECT 1"
    refreshed = parse_utility("refresh materialized view V2")
    assert refreshed.kind == "refresh_materialized" and refreshed.name == "V2"
    with pytest.raises(ParseError):
        parse_utility("CREATE TABLE t (x INT)")


# ---------------------------------------------------------------------------
# result-cache key normalization (the spurious-miss bugfix) + stats
# ---------------------------------------------------------------------------


def test_result_cache_ignores_execution_only_knobs():
    gis = make_gis(fragment_cache_bytes=0, result_cache_size=8)
    sql = "SELECT COUNT(*) FROM customers"
    base = PlannerOptions()
    gis.query(sql, base)
    for variant in (
        base.but(retry_backoff_ms=25.0),
        base.but(breaker_failure_threshold=3),
        base.but(deadline_ms=60000.0),
        base.but(trace=True),
    ):
        hit = gis.query(sql, variant)
        assert hit.metrics.network.cache_hit, variant
    stats = gis.result_cache_stats()
    assert stats["hits"] == 4 and stats["misses"] == 1
    assert stats["entries"] == 1


def test_result_cache_still_keys_on_plan_shaping_knobs():
    gis = make_gis(fragment_cache_bytes=0, result_cache_size=8)
    sql = "SELECT COUNT(*) FROM customers"
    gis.query(sql, PlannerOptions())
    miss = gis.query(sql, PlannerOptions(pushdown="scans-only"))
    assert not miss.metrics.network.cache_hit


#: A value strategy for every PlannerOptions field outside
#: PLAN_KEY_FIELDS. Ranges keep every draw valid and unable to time out
#: or fail a query, so each variant must return the base query's rows.
EXECUTION_ONLY_VALUES = {
    "max_parallel_per_source": st.integers(1, 4),
    "fragment_timeout_ms": st.sampled_from([0.0, 60000.0]),
    "retry_backoff_ms": st.floats(0, 50),
    "retry_backoff_multiplier": st.floats(1, 4),
    "retry_backoff_max_ms": st.floats(0, 5000),
    "retry_jitter": st.floats(0, 0.9),
    "breaker_failure_threshold": st.integers(0, 5),
    "breaker_reset_ms": st.floats(0, 60000),
    "batch_size": st.integers(1, 2048),
    "trace": st.booleans(),
    "deadline_ms": st.sampled_from([0.0, 60000.0]),
    "on_source_failure": st.sampled_from(["fail", "partial"]),
    "faults": st.none(),
    "adaptive_timeout": st.booleans(),
    "timeout_multiplier": st.floats(1, 10),
    "timeout_floor_ms": st.floats(10000, 30000),
    "timeout_ceiling_ms": st.floats(30000, 120000),
    "hedge_fragments": st.booleans(),
    "hedge_delay_ms": st.floats(0, 100),
    "hedge_quantile": st.floats(0.5, 0.99),
    "health_routing": st.booleans(),
}

#: A value strategy for every field in PLAN_KEY_FIELDS.
PLAN_KEY_VALUES = {
    "rewrites": st.booleans(),
    "join_strategy": st.sampled_from(JOIN_STRATEGIES),
    "join_algorithm": st.sampled_from(JOIN_ALGORITHMS),
    "pushdown": st.sampled_from(PUSHDOWN_LEVELS),
    "semijoin": st.sampled_from(SEMIJOIN_MODES),
    "replicas": st.sampled_from(["cost", "primary"]),
    "use_histograms": st.booleans(),
    "partial_aggregation": st.booleans(),
    "dp_limit": st.integers(1, 16),
    "cpu_row_ms": st.floats(0, 1),
    "max_parallel_fragments": st.integers(1, 8),
    "vectorize": st.booleans(),
}


def test_every_option_is_classified_for_the_cache_key():
    names = {field.name for field in fields(PlannerOptions)}
    assert set(PLAN_KEY_VALUES) == set(PLAN_KEY_FIELDS)
    assert set(PLAN_KEY_FIELDS) | set(EXECUTION_ONLY_VALUES) == names
    assert not set(PLAN_KEY_FIELDS) & set(EXECUTION_ONLY_VALUES)


@settings(max_examples=25, deadline=None)
@given(st.fixed_dictionaries({}, optional=EXECUTION_ONLY_VALUES))
def test_execution_only_options_share_one_plan(changes):
    gis = make_gis(fragment_cache_bytes=0, plan_cache_size=8)
    sql = "SELECT region, COUNT(*), SUM(score) FROM customers GROUP BY region"
    base = gis.query(sql, PlannerOptions())
    variant = gis.query(sql, PlannerOptions(**changes))
    assert variant.rows == base.rows
    assert [tuple(map(type, row)) for row in variant.rows] == [
        tuple(map(type, row)) for row in base.rows
    ]
    stats = gis.plan_cache.stats()
    assert stats["entries"] == 1 and stats["hits"] == 1, changes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_plan_key_field_changes_the_key(data):
    field = data.draw(st.sampled_from(PLAN_KEY_FIELDS))
    value = data.draw(PLAN_KEY_VALUES[field])
    base = PlannerOptions()
    assume(value != getattr(base, field))
    key = GlobalInformationSystem._plan_key_options
    assert key(base.but(**{field: value})) != key(base)


def test_cache_metrics_reach_the_registry():
    from repro.obs import Observability

    gis = make_gis(
        result_cache_size=4, observability=Observability(metrics=True)
    )
    sql = "SELECT id FROM customers WHERE score > 10"
    gis.query(sql)
    gis.query(sql)  # result-cache hit (fragment cache untouched)
    snapshot = gis.obs.registry.snapshot()
    counters = snapshot["counters"]
    assert counters["result_cache_hits_total"] == 1
    assert counters["fragment_cache_misses_total"] == 1
    gauges = snapshot["gauges"]
    assert gauges["result_cache.hits"] == 1.0
    assert gauges["fragment_cache.entries"] == 1.0
