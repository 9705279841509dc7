"""Traced runs: timing wrappers around each layer's public functions, an
in-memory span recorder, and the per-layer split derived from the spans.

Nothing here changes the program. :func:`install` swaps wrappers onto
classes and module attributes of ``repro`` and returns the patches so
:func:`uninstall` can restore them; an untraced run never imports it.

A span is ``(request, span_id, parent_id, name, start, end, info)`` on
``time.perf_counter`` seconds. The spans of one request share ``request``,
also on server worker threads. A wrapped generator gets one span per
``next()`` call, so an operator's span covers exactly the time its
consumer waited for it. Self time is a span's duration minus its
children's; by construction the self times of one request sum to its
root span, and :func:`derive` checks that they do.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: Root span names: the caller's query() span in-process, the worker's
#: query span behind the server, and the in-process source write.
QUERY_ROOTS = ("query", "serve.query")
CLIENT_ROOT = "client.query"
WRITE_ROOT = "catalog.write"

PLANNING = (
    "sql.parse", "plan.analyze", "plan.rewrite", "plan.join_order",
    "plan.pushdown", "plan.semijoin", "plan.physical", "plan.self",
    "plan.explain", "plan_cache.bind",
)
SOURCE_KINDS = ("sqlite", "csv", "rest", "kv", "memory")
REPORTED_OPS = (
    "HashJoinExec", "HashAggregateExec", "BindJoinExec", "ExchangeExec",
    "SortExec", "FilterExec", "ProjectExec", "FusedPipelineExec",
)
#: Per query, the traced self times must sum to the root span within this.
SELF_SUM_TOLERANCE_MS = 1e-6


class SpanRecorder:
    """Collects spans and per-request counters in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.counters: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        #: request -> the program's own counters for that query
        self.program: Dict[str, Dict[str, Any]] = {}
        #: fragment key -> largest wire bytes fetched for it
        self.fragment_bytes: Dict[str, float] = {}
        self._results: Dict[int, str] = {}

    # -- recording ----------------------------------------------------------

    def request(self, request_id: str, name: str) -> "_Root":
        """Context manager: the root span of one request on this thread."""
        return _Root(self, request_id, name)

    def count(self, key: str, amount: float) -> None:
        request = getattr(self._local, "request", None)
        if request is not None:
            self.counters[(request, key)] += amount

    def call(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``info(result)`` is stored on it."""
        local, ids, spans, clock = self._local, self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    local.request, sid, parent, name, start, end,
                    info(result) if info is not None else None,
                ))

        return wrapper

    def generator(self, name: str, fn: Callable) -> Callable:
        """A generator function wrapped so each ``next()`` is a span whose
        info is ``(first_call, len(item) or None at exhaustion)``."""
        iterate = self._iterate

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iterate(name, fn(*args, **kwargs))

        return wrapper

    def _iterate(self, name: str, gen):
        local, ids, spans, clock = self._local, self._ids, self.spans, time.perf_counter
        first = True
        try:
            while True:
                stack = getattr(local, "stack", None)
                if not stack:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                size = None
                start = clock()
                try:
                    item = next(gen)
                    size = len(item)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans.append(
                        (local.request, sid, parent, name, start, end, (first, size))
                    )
                    first = False
                yield item
        finally:
            gen.close()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span, counter and program record as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(["span", *span]) + "\n")
            for (request, key), value in self.counters.items():
                out.write(json.dumps(["count", request, key, value]) + "\n")
            for request, record in self.program.items():
                out.write(json.dumps(["program", request, record]) + "\n")
            for key, nbytes in self.fragment_bytes.items():
                out.write(json.dumps(["fragment", key, nbytes]) + "\n")


class _Root:
    __slots__ = ("rec", "request_id", "name", "sid", "start")

    def __init__(self, rec: SpanRecorder, request_id: str, name: str) -> None:
        self.rec, self.request_id, self.name = rec, request_id, name

    def __enter__(self) -> "_Root":
        local = self.rec._local
        local.request = self.request_id
        local.stack = [next(self.rec._ids)]
        self.sid = local.stack[0]
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        local = self.rec._local
        local.stack = []
        local.request = None
        self.rec.spans.append(
            (self.request_id, self.sid, 0, self.name, self.start, end, None)
        )


def program_counts(metrics) -> Dict[str, Any]:
    """The program's own per-query counters (``QueryResult.metrics``)."""
    net = metrics.network
    return {
        "messages": net.messages,
        "rows_shipped": net.rows_shipped,
        "bytes_shipped": net.bytes_shipped,
        "network_ms": net.network_ms,
        "fragments_executed": net.fragments_executed,
        "semijoin_batches": net.semijoin_batches,
        "fragment_cache_hits": net.fragment_cache_hits,
        "fragment_cache_misses": net.fragment_cache_misses,
        "fragment_cache_bytes_saved": net.fragment_cache_bytes_saved,
        "plan_cache_hit": bool(net.plan_cache_hit),
        "wall_ms": metrics.wall_ms,
    }


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _set(patches: list, owner: Any, attr: str, value: Any) -> None:
    patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
    setattr(owner, attr, value)


def _patch_function(patches: list, fn: Callable, wrapper: Callable) -> None:
    """Rebind ``fn`` in every repro module that imported it (its own module
    keeps the original, so internal recursion is not traced twice)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or name == fn.__module__:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                _set(patches, module, attr, wrapper)


def install(rec: SpanRecorder) -> list:
    """Wrap every traced layer boundary; returns the patches."""
    from repro.cache.fragments import FragmentCache
    from repro.cache.keys import canonical_fragment_key
    from repro.core import physical
    from repro.core.analyzer import Analyzer
    from repro.core.join_order import JoinOrderer
    from repro.core.mediator import GlobalInformationSystem
    from repro.core.planner import PlannedQuery, Planner
    from repro.core.prepared import PreparedPlan
    from repro.core.pushdown import PushdownPlanner
    from repro.core.rewriter import rewrite
    from repro.core.semijoin import SemijoinPlanner
    from repro.serve import protocol
    from repro.serve.server import QueryServer
    from repro.sources import (
        CsvSource, KeyValueSource, MemorySource, RestSource, SQLiteSource,
    )
    from repro.sources.network import SimulatedNetwork
    from repro.sql.parser import parse_select

    patches: list = []
    _patch_function(patches, parse_select, rec.call("sql.parse", parse_select))
    _patch_function(patches, rewrite, rec.call("plan.rewrite", rewrite))
    for owner, attr, name, info in (
        (Analyzer, "bind_statement", "plan.analyze", None),
        (JoinOrderer, "reorder", "plan.join_order", None),
        (PushdownPlanner, "apply", "plan.pushdown", None),
        (SemijoinPlanner, "apply", "plan.semijoin", None),
        (physical.PhysicalPlanner, "build", "plan.physical", None),
        (Planner, "plan_statement", "plan.self", None),
        (PlannedQuery, "explain", "plan.explain", None),
        (PreparedPlan, "bind", "plan_cache.bind", lambda planned: planned is not None),
        (SQLiteSource, "compile_fragment", "source.sqlite.compile", None),
        (GlobalInformationSystem, "notify_source_changed", "catalog.notify", None),
    ):
        _set(patches, owner, attr, rec.call(name, getattr(owner, attr), info))

    for cls, kind in (
        (SQLiteSource, "sqlite"), (CsvSource, "csv"), (RestSource, "rest"),
        (KeyValueSource, "kv"), (MemorySource, "memory"),
    ):
        _set(patches, cls, "execute_pages",
             rec.generator(f"source.{kind}.fetch", cls.execute_pages))

    for cls in _operator_classes(physical.PhysicalOperator):
        fn = vars(cls)["iterate_batches"]
        wrapped = (
            rec.generator(f"exec.op.{cls.__name__}", fn)
            if inspect.isgeneratorfunction(fn)
            else rec.call(f"exec.op.{cls.__name__}", fn)
        )
        _set(patches, cls, "iterate_batches", wrapped)

    _set(patches, FragmentCache, "begin",
         _traced_begin(rec, FragmentCache.begin, canonical_fragment_key))
    _set(patches, SimulatedNetwork, "record_transfer",
         _counted_transfer(rec, SimulatedNetwork.record_transfer))
    _set(patches, QueryServer, "_make_work",
         _traced_make_work(rec, QueryServer._make_work))
    _patch_function(patches, protocol.encode_result,
                    _traced_encode(rec, protocol.encode_result))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def _operator_classes(base) -> list:
    """Every operator class that defines its own ``iterate_batches``."""
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "iterate_batches" in vars(sub) and sub not in seen:
                seen.append(sub)
    return seen


def _traced_begin(rec: SpanRecorder, begin: Callable, key_of: Callable) -> Callable:
    """FragmentCache.begin in a span; tallies hits and misses, and the wire
    bytes of every filled fragment (the cache's working set)."""

    traced = rec.call("fragment_cache.begin", begin)

    def wrapper(self, exchange, ctx, allow_replay=True):
        decision = traced(self, exchange, ctx, allow_replay)
        if decision is None:
            return None
        if decision.replay is not None:
            rec.count("fragment_cache.hits", 1)
        else:
            if allow_replay:
                rec.count("fragment_cache.misses", 1)
            sizer = getattr(exchange, "_sizer", None)
            key = key_of(exchange.fragment)
            if sizer is not None and key is not None:
                fill = decision.fill

                def measured_fill(pages):
                    total = 0.0
                    for page in fill(pages):
                        total += sizer(page)
                        yield page
                    if total > rec.fragment_bytes.get(key, 0.0):
                        rec.fragment_bytes[key] = total

                decision.fill = measured_fill
        return decision

    return functools.wraps(begin)(wrapper)


def _counted_transfer(rec: SpanRecorder, record_transfer: Callable) -> Callable:
    """SimulatedNetwork.record_transfer tallied at the network boundary."""

    @functools.wraps(record_transfer)
    def wrapper(self, source_name, payload_bytes, rows, messages=1,
                extra_latency_ms=0.0):
        elapsed = record_transfer(
            self, source_name, payload_bytes, rows, messages, extra_latency_ms
        )
        rec.count("net.messages", messages)
        rec.count("net.rows", rows)
        rec.count("net.bytes", payload_bytes)
        rec.count("net.sim_ms", elapsed)
        return elapsed

    return wrapper


def _traced_make_work(rec: SpanRecorder, make_work: Callable) -> Callable:
    """Give each served query a root span on its worker thread. The id is
    ``tenant:n`` for the tenant's n-th query; each tenant's client keeps
    one request in flight, so the client numbers its queries the same."""
    sequence: Dict[str, int] = collections.defaultdict(int)

    @functools.wraps(make_work)
    def wrapper(self, session, request):
        sql, work = make_work(self, session, request)
        sequence[session.tenant] += 1
        request_id = f"{session.tenant}:{sequence[session.tenant]}"

        def traced_work():
            with rec.request(request_id, "serve.query"):
                result = work()
            rec.program[request_id] = dict(program_counts(result.metrics), sql=sql)
            rec._results[id(result)] = request_id
            return result

        return sql, traced_work

    return wrapper


def _traced_encode(rec: SpanRecorder, encode: Callable) -> Callable:
    """protocol.encode_result, attributed to the request whose result it
    encodes (it runs on the server's event-loop thread)."""
    ids = rec._ids

    @functools.wraps(encode)
    def wrapper(result, rows=None):
        request_id = rec._results.pop(id(result), None)
        start = time.perf_counter()
        payload = encode(result, rows)
        end = time.perf_counter()
        if request_id is not None:
            rec.spans.append(
                (request_id, next(ids), 0, "serve.encode", start, end, None)
            )
        return payload

    return wrapper


# ---------------------------------------------------------------------------
# deriving the per-layer split from the written spans
# ---------------------------------------------------------------------------


def load(path: str):
    spans, counters, program, fragments = [], collections.defaultdict(float), {}, {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            kind = record[0]
            if kind == "span":
                spans.append(tuple(record[1:]))
            elif kind == "count":
                counters[(record[1], record[2])] = record[3]
            elif kind == "program":
                program[record[1]] = record[2]
            else:
                fragments[record[1]] = record[2]
    return spans, counters, program, fragments


def derive(path: str) -> Dict[str, Any]:
    """Per-layer metrics and cross-checks from a written span file.

    Returns ``metrics`` (every ``*_ms`` one is mean self time per query
    over the requests with a query root), ``checks`` (the per-query
    cross-check) and ``totals`` (cache tallies to compare with the caches'
    own statistics).
    """
    spans, counters, program, fragments = load(path)
    name_of = {span[1]: span[3] for span in spans}
    child_time: Dict[int, float] = collections.defaultdict(float)
    for _request, _sid, parent, _name, start, end, _info in spans:
        if parent:
            child_time[parent] += end - start

    per_request: Dict[str, Dict[str, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float)
    )
    for request, sid, parent, name, start, end, info in spans:
        row = per_request[request]
        self_ms = (end - start - child_time.get(sid, 0.0)) * 1000.0
        if name in QUERY_ROOTS:
            row["wall_ms"] += (end - start) * 1000.0
            row["root_self_ms"] += self_ms
            row["is_query"] = 1
            continue
        if name in (CLIENT_ROOT, WRITE_ROOT, "serve.encode"):
            # Roots outside the query span: whole durations, not self time.
            row[name] += (end - start) * 1000.0
            continue
        row["self_sum_ms"] += self_ms
        row[name] += self_ms
        if info is None:
            continue
        if name == "plan_cache.bind":
            row["tally.plan_hit" if info else "tally.plan_fallback"] += 1
        elif name.startswith("source.") and name.endswith(".fetch"):
            first, size = info
            if size is not None:
                row["tally.pages"] += 1
                row["tally.rows"] += size
            if first:
                caller = name_of.get(parent, "")
                if caller == "exec.op.BindJoinExec":
                    row["tally.semijoin_batches"] += 1
                else:
                    row["tally.fragments"] += 1
        elif name == "exec.op.BindJoinExec" and info[0]:
            row["tally.fragments"] += 1

    queries = {r: row for r, row in per_request.items() if row.get("is_query")}
    n = max(len(queries), 1)

    def total(key: str) -> float:
        return sum(row.get(key, 0.0) for row in queries.values())

    wall = total("wall_ms")
    metrics: Dict[str, float] = {"trace.queries": len(queries)}
    for name in PLANNING:
        metrics[name + "_ms"] = total(name) / n
    metrics["plan.share"] = sum(total(name) for name in PLANNING) / wall if wall else 0.0
    fetch = 0.0
    for kind in SOURCE_KINDS:
        metrics[f"source.{kind}.fetch_ms"] = total(f"source.{kind}.fetch") / n
        fetch += total(f"source.{kind}.fetch")
    metrics["source.sqlite.compile_ms"] = total("source.sqlite.compile") / n
    fetch += total("source.sqlite.compile")
    metrics["source.fetch_share"] = fetch / wall if wall else 0.0
    metrics["source.pages"] = total("tally.pages") / n
    metrics["source.rows"] = total("tally.rows") / n

    op_total, other = 0.0, 0.0
    op_names = {
        name for row in queries.values() for name in row if name.startswith("exec.op.")
    }
    for name in op_names:
        op_total += total(name)
        if name[len("exec.op."):] not in REPORTED_OPS:
            other += total(name)
    for op in REPORTED_OPS:
        metrics[f"exec.op.{op}.self_ms"] = total(f"exec.op.{op}") / n
    metrics["exec.op.other.self_ms"] = other / n
    metrics["exec.self_ms"] = total("root_self_ms") / n
    metrics["exec.share"] = op_total / wall if wall else 0.0
    metrics["fragment_cache.begin_ms"] = total("fragment_cache.begin") / n
    metrics["trace.query_ms"] = wall / n

    # Network tallies at the network boundary and at the adapter boundary.
    def counted(request: str, key: str) -> float:
        return counters.get((request, key), 0.0)

    for key, metric in (
        ("net.messages", "net.messages"), ("net.rows", "net.rows_shipped"),
        ("net.bytes", "net.bytes_shipped"),
    ):
        metrics[metric] = sum(counted(r, key) for r in queries) / n
    metrics["net.fragments"] = total("tally.fragments") / n
    metrics["net.semijoin_batches"] = total("tally.semijoin_batches") / n

    # Serve tier: client latency minus the server's query span.
    clients = [row for row in per_request.values() if row.get(CLIENT_ROOT)]
    if clients:
        served = [row for row in clients if row.get("is_query")]
        metrics["serve.server_query_ms"] = wall / n
        metrics["serve.overhead_ms"] = (
            sum(row[CLIENT_ROOT] - row["wall_ms"] for row in served)
            / max(len(served), 1)
        )
        metrics["serve.encode_ms"] = total("serve.encode") / n
    writes = [row for row in per_request.values() if row.get(WRITE_ROOT)]
    metrics["catalog.writes"] = len(writes)
    metrics["catalog.notify_ms"] = (
        sum(row.get("catalog.notify", 0.0) for row in writes) / len(writes)
        if writes else 0.0
    )
    metrics["fragment_cache.working_set_bytes"] = sum(fragments.values())

    checks = _cross_check(queries, counters, program)
    checks["client_server_pairs"] = len(clients) - sum(
        1 for row in clients if row.get("is_query")
    )
    return {"metrics": metrics, "checks": checks, "totals": {
        "plan_hits": total("tally.plan_hit"),
        "plan_fallbacks": total("tally.plan_fallback"),
        "fragment_hits": sum(counted(r, "fragment_cache.hits") for r in queries),
        "fragment_misses": sum(counted(r, "fragment_cache.misses") for r in queries),
        "plan_statements": sum(1 for row in queries.values() if row.get("plan.self")),
    }}


def _cross_check(queries, counters, program) -> Dict[str, Any]:
    """Compare each query's traced tallies with the program's counters.

    Counts must agree exactly; each query's self times must sum to its
    root span within :data:`SELF_SUM_TOLERANCE_MS`.
    """
    mismatches: List[str] = []
    worst = 0.0
    for request, row in queries.items():
        error = abs(row["self_sum_ms"] + row["root_self_ms"] - row["wall_ms"])
        worst = max(worst, error)
        if error > SELF_SUM_TOLERANCE_MS:
            mismatches.append(f"{request}: self times sum off by {error:.3g} ms")
        own = program.get(request)
        if own is None:
            mismatches.append(f"{request}: no program counters recorded")
            continue

        def counted(key: str) -> float:
            return counters.get((request, key), 0.0)

        pairs = (
            ("net.messages", counted("net.messages"), own["messages"]),
            ("net.rows", counted("net.rows"), own["rows_shipped"]),
            ("net.bytes", counted("net.bytes"), own["bytes_shipped"]),
            ("net.sim_ms", counted("net.sim_ms"), own["network_ms"]),
            ("source.pages+key batches",
             row.get("tally.pages", 0) + row.get("tally.semijoin_batches", 0),
             own["messages"]),
            ("source.rows", row.get("tally.rows", 0), own["rows_shipped"]),
            ("fragments", row.get("tally.fragments", 0), own["fragments_executed"]),
            ("semijoin_batches", row.get("tally.semijoin_batches", 0),
             own["semijoin_batches"]),
            ("fragment_cache.hits", counted("fragment_cache.hits"),
             own["fragment_cache_hits"]),
            ("fragment_cache.misses", counted("fragment_cache.misses"),
             own["fragment_cache_misses"]),
            ("plan_cache.hit", row.get("tally.plan_hit", 0),
             1 if own["plan_cache_hit"] else 0),
        )
        for label, traced, reported in pairs:
            if traced != reported:
                mismatches.append(f"{request}: {label} traced {traced} != {reported}")
    return {
        "self_sum_max_err_ms": worst,
        "count_mismatches": len(mismatches),
        "mismatch_examples": mismatches[:5],
    }
