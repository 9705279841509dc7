"""Set-up, correctness gate and closed loops for one workload.

A :class:`Harness` owns one federation (built from the workload's scale
and the seed), its SQLite oracle, and - for the serve tier - an in-process
``QueryServer``. Callers time only ``gis.query()`` or
``ServeClient.query()``; ``QueryResult.metrics.wall_ms`` is never used as
a latency.
"""

from __future__ import annotations

import datetime
import gc
import json
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cache import FragmentCache
from repro.core.prepared import PlanCache
from repro.serve import QueryServer, ServeClient, ServerConfig
from repro.workloads import build_federation
from repro.workloads.tpch_lite import generate_rows

from .oracle import SqliteOracle, same_multiset
from .tracing import program_counts
from .workloads import WRITE, Workload, op_stream, query_texts, write_rows

#: Set up at least this many times, and until this much time was spent;
#: setup_s is the median (one small set-up alone is noisy).
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
#: At least this many timed queries per run, so that the 95th percentile
#: has at least ten samples beyond it.
MIN_QUERIES = 200
#: A window never runs longer than ``seconds + EXTEND_LIMIT_S``.
EXTEND_LIMIT_S = 60.0


@dataclass
class WindowResult:
    """What one timed window observed."""

    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    wall_gaps_ms: List[float] = field(default_factory=list)
    simulated_ms: List[float] = field(default_factory=list)
    bytes_shipped: List[float] = field(default_factory=list)
    queries: int = 0
    writes: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: serve tier: network ledger deltas over the window
    ledger_ms: float = 0.0
    ledger_bytes: float = 0.0

    @property
    def attempted(self) -> int:
        return self.queries + self.writes

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Harness:
    """One workload's federation, oracle and closed loops."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.texts = [sql for _shape, sql in query_texts(workload, seed)]
        self.fed = None
        self.server: Optional[QueryServer] = None
        self.clients: List[ServeClient] = []
        self.setup_seconds: List[float] = []
        self.oracle: Optional[SqliteOracle] = None
        self.oracle_version = 0
        self.verified: Dict[int, list] = {}
        self._write_lock = threading.Lock()
        self.writes_started = 0
        self.writes_done = 0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Build the federation (load, analyze, caches, server) several
        times, keeping the last; ``setup_seconds`` holds every timing."""
        while (
            len(self.setup_seconds) < SETUP_MIN_REPEATS
            or sum(self.setup_seconds) < SETUP_MIN_SECONDS
        ):
            self.close_server()
            self.fed = None
            csv_dir = self.work_dir / f"csv{len(self.setup_seconds)}"
            csv_dir.mkdir(parents=True)
            gc.collect()  # free the previous build outside the timing
            started = time.perf_counter()
            self._build(str(csv_dir))
            self.setup_seconds.append(time.perf_counter() - started)
        for tenant in range(self.workload.tenants):
            host, port = self.server.address
            self.clients.append(ServeClient(host, port, f"tenant{tenant}"))

    def _build(self, csv_dir: str) -> None:
        workload = self.workload
        self.fed = build_federation(workload.scale, self.seed, csv_dir=csv_dir)
        gis = self.fed.gis
        if workload.plan_cache_size:
            gis.plan_cache = PlanCache(workload.plan_cache_size)
        if workload.fragment_cache_bytes:
            gis.fragment_cache = FragmentCache(
                workload.fragment_cache_bytes, gis.catalog.versions
            )
        if workload.serve:
            self.server = QueryServer(
                gis, ServerConfig(max_workers=workload.server_workers)
            )
            self.server.start_background()

    def close_server(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop_background()
            self.server = None

    def close(self) -> None:
        self.close_server()
        if self.oracle is not None:
            self.oracle.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    @property
    def gis(self):
        return self.fed.gis

    # -- correctness gate ---------------------------------------------------

    def gate(self) -> List[str]:
        """Run every distinct query text once (outside any timed window)
        and compare it with the oracle; returns the mismatches."""
        self.oracle = SqliteOracle(
            self.fed.tables, generate_rows(self.workload.scale, self.seed)
        )
        problems = []
        for index, sql in enumerate(self.texts):
            try:
                rows = self._run_once(sql)
            except Exception as exc:  # any failure fails the gate
                problems.append(f"{sql}: {exc!r}")
                continue
            if same_multiset(rows, self.oracle.query(sql)):
                self.verified[index] = rows
            else:
                problems.append(f"{sql}: rows differ from the oracle")
        return problems

    def _run_once(self, sql: str) -> list:
        if self.clients:
            return self.clients[0].query(sql).rows
        return self.gis.query(sql).rows

    def _correct(self, index: int, rows: list) -> bool:
        """In-process check: identical to the gate's verified rows, or
        else equal to the oracle under the float tolerance."""
        verified = self.verified.get(index)
        if verified is not None and rows == verified:
            return True
        return same_multiset(rows, self.oracle.query(self.texts[index]))

    # -- in-process closed loop ---------------------------------------------

    def run_inprocess(
        self, seconds: float, min_queries: int = 0, rec=None
    ) -> WindowResult:
        """One client calling ``gis.query()`` back to back."""
        gis = self.gis
        texts = self.texts
        out = WindowResult()
        stream = op_stream(self.workload, self.seed, 0)
        clock = time.perf_counter
        started = clock()
        deadline, limit = started + seconds, started + seconds + EXTEND_LIMIT_S
        while True:
            now = clock()
            if (now >= deadline and out.queries >= min_queries) or now >= limit:
                break
            index = next(stream)
            sql = texts[index]
            out.queries += 1
            try:
                if rec is None:
                    t0 = clock()
                    result = gis.query(sql)
                    t1 = clock()
                else:
                    request = str(out.queries)
                    t0 = clock()
                    with rec.request(request, "query"):
                        result = gis.query(sql)
                    t1 = clock()
                    rec.program[request] = program_counts(result.metrics)
            except Exception as exc:  # a failed query is counted, not fatal
                out.fail(f"{sql}: {exc!r}")
                continue
            if not self._correct(index, result.rows):
                out.fail(f"{sql}: wrong rows")
                continue
            latency = (t1 - t0) * 1000.0
            metrics = result.metrics
            out.latencies_ms.append(latency)
            out.wall_gaps_ms.append(latency - metrics.wall_ms)
            out.simulated_ms.append(metrics.simulated_ms)
            out.bytes_shipped.append(metrics.bytes_shipped)
        out.seconds = clock() - started
        return out

    # -- serve-tier closed loop ----------------------------------------------

    def write(self) -> None:
        """Append one version's orders rows through the erp source's own
        connection, then tell the mediator the source changed."""
        erp = self.fed.sources["erp"]
        base = self.fed.row_counts["orders"]
        customers = self.fed.row_counts["customers"]
        with self._write_lock:
            version = self.writes_started + 1
            self.writes_started = version
            rows = [
                tuple(v.isoformat() if isinstance(v, datetime.date) else v for v in row)
                for row in write_rows(self.seed, version, base, customers)
            ]
            # The adapter serializes its connection with this lock.
            with erp._lock:
                erp.connection.executemany(
                    'INSERT INTO "orders" VALUES (?, ?, ?, ?, ?)', rows
                )
                erp.connection.commit()
            self.gis.notify_source_changed("erp")
            self.writes_done = version

    def run_serve(self, seconds: float, rec=None) -> Tuple[WindowResult, dict]:
        """Every tenant's client in its own thread, back to back. Returns
        the window and the replies to verify:
        ``(index, rows as JSON) -> Counter((lo, hi) -> replies)``."""
        ledger = self.gis.network.total
        ms0, bytes0 = ledger.simulated_ms, ledger.bytes
        results = [WindowResult() for _ in self.clients]
        replies: Dict[tuple, Counter] = {}
        lock = threading.Lock()
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=self._tenant_loop,
                args=(tenant, deadline, results[tenant], replies, lock, rec),
                name=f"perfbench-tenant{tenant}",
            )
            for tenant in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out = WindowResult(seconds=time.perf_counter() - started)
        for part in results:
            out.latencies_ms += part.latencies_ms
            out.wall_gaps_ms += part.wall_gaps_ms
            out.queries += part.queries
            out.writes += part.writes
            out.failed += part.failed
            out.errors += part.errors
        ledger = self.gis.network.total
        out.ledger_ms = ledger.simulated_ms - ms0
        out.ledger_bytes = ledger.bytes - bytes0
        return out, replies

    def _tenant_loop(self, tenant, deadline, out, replies, lock, rec) -> None:
        client = self.clients[tenant]
        texts = self.texts
        stream = op_stream(self.workload, self.seed, tenant)
        clock = time.perf_counter
        sent = 0
        while clock() < deadline:
            index = next(stream)
            if index == WRITE:
                out.writes += 1
                try:
                    if rec is None:
                        self.write()
                    else:
                        with rec.request(f"tenant{tenant}:w{out.writes}", "catalog.write"):
                            self.write()
                except Exception as exc:  # counted, not fatal
                    out.fail(f"write: {exc!r}")
                continue
            sql = texts[index]
            out.queries += 1
            lo = self.writes_done
            try:
                if rec is None:
                    t0 = clock()
                    reply = client.query(sql)
                    t1 = clock()
                else:
                    sent += 1
                    t0 = clock()
                    with rec.request(f"tenant{tenant}:{sent}", "client.query"):
                        reply = client.query(sql)
                    t1 = clock()
            except Exception as exc:  # failed or refused: counted
                out.fail(f"{sql}: {exc!r}")
                continue
            hi = self.writes_started
            latency = (t1 - t0) * 1000.0
            out.latencies_ms.append(latency)
            out.wall_gaps_ms.append(latency - reply.metrics.get("wall_ms", 0.0))
            # Identical replies share one compact JSON entry, so the
            # benchmark's own memory barely grows with throughput.
            key = (index, json.dumps(reply.rows, default=str))
            with lock:
                replies.setdefault(key, Counter())[(lo, hi)] += 1

    def verify_replies(self, replies: Dict[tuple, Counter]) -> int:
        """Count replies that match the oracle at no data version between
        their send and their reply. Versions are replayed in order into
        the oracle, holding one version's expected rows at a time."""
        by_version: Dict[int, list] = {}
        for key, windows in replies.items():
            for window in windows:
                for version in range(window[0], window[1] + 1):
                    by_version.setdefault(version, []).append((key, window))
        base = self.fed.row_counts["orders"]
        customers = self.fed.row_counts["customers"]
        matched = set()
        for version in sorted(by_version):
            if version < self.oracle_version:
                raise RuntimeError("replies must be verified in version order")
            while self.oracle_version < version:
                self.oracle_version += 1
                self.oracle.insert(
                    "orders",
                    write_rows(self.seed, self.oracle_version, base, customers),
                )
            expected: Dict[int, list] = {}
            for key, window in by_version[version]:
                if (key, window) in matched:
                    continue
                index, rows = key
                if index not in expected:
                    expected[index] = self.oracle.query(self.texts[index])
                if same_multiset(json.loads(rows), expected[index]):
                    matched.add((key, window))
        return sum(
            count
            for key, windows in replies.items()
            for window, count in windows.items()
            if (key, window) not in matched
        )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
