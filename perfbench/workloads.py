"""Workload definitions: federation scale, caches, query mix and the seeded
streams of query texts and source writes.

Every query template has one literal slot. For a seed, each slot draws
``LITERALS_PER_SLOT`` values, one from each equal stratum of the slot's
range, so the set of distinct SQL texts is small (and each can be checked
against an oracle) while its selectivity mix stays alike across seeds.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Any, Iterator, List, Tuple

LITERALS_PER_SLOT = 5

#: name -> (SQL template with one ``{x}`` slot, slot range [lo, hi)).
#: The first eight are the shapes of ``repro.workloads.WORKLOAD_QUERIES``
#: with a literal slot added; ORDER BY ... LIMIT shapes carry a tie-breaker
#: so the expected rows are unique.
TEMPLATES = {
    "selective_scan": (
        "SELECT o_id, o_total FROM orders WHERE o_total > {x}",
        (4700, 4950),
    ),
    "single_source_agg": (
        "SELECT o_status, COUNT(*), AVG(o_total) FROM orders "
        "WHERE o_total > {x} GROUP BY o_status",
        (0, 2000),
    ),
    "two_way_join": (
        "SELECT c.c_name, o.o_total FROM customers c "
        "JOIN orders o ON c.c_id = o.o_cust_id WHERE o.o_total > {x}",
        (4400, 4800),
    ),
    "three_way_join_agg": (
        "SELECT n.n_name, COUNT(*) AS cnt FROM nations n "
        "JOIN customers c ON n.n_id = c.c_nation_id "
        "JOIN orders o ON c.c_id = o.o_cust_id WHERE o.o_total > {x} "
        "GROUP BY n.n_name ORDER BY cnt DESC, n.n_name LIMIT 5",
        (0, 2000),
    ),
    "star_revenue": (
        "SELECT p.p_category, SUM(l.l_price * l.l_qty) AS rev FROM parts p "
        "JOIN lineitems l ON p.p_id = l.l_part_id WHERE l.l_qty > {x} "
        "GROUP BY p.p_category",
        (0, 12),
    ),
    "semi_join": (
        "SELECT c_name FROM customers WHERE c_id IN "
        "(SELECT o_cust_id FROM orders WHERE o_total > {x})",
        (4600, 4900),
    ),
    "kv_profile_join": (
        "SELECT c.c_name, p.u_tier FROM customers c "
        "JOIN profiles p ON c.c_id = p.u_cust_id WHERE c.c_balance > {x}",
        (8000, 8800),
    ),
    "top_n_orders": (
        "SELECT o_id, o_date, o_total FROM orders WHERE o_total < {x} "
        "ORDER BY o_total DESC, o_id LIMIT 10",
        (1000, 5000),
    ),
    "four_way_join": (
        "SELECT n.n_name, c.c_name, o.o_total, p.u_tier FROM nations n "
        "JOIN customers c ON n.n_id = c.c_nation_id "
        "JOIN orders o ON c.c_id = o.o_cust_id "
        "JOIN profiles p ON c.c_id = p.u_cust_id WHERE o.o_total > {x}",
        (4400, 4800),
    ),
}

ALL_SHAPES = tuple(TEMPLATES)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what is built and how it is driven."""

    name: str
    scale: float
    shapes: Tuple[str, ...]
    plan_cache_size: int = 0
    fragment_cache_bytes: int = 0
    #: > 0 runs the closed loop through an in-process QueryServer with
    #: this many tenants (one ServeClient connection each).
    tenants: int = 0
    server_workers: int = 0
    #: one erp write per this many operations of each tenant (0 = none).
    write_every: int = 0

    @property
    def serve(self) -> bool:
        return self.tenants > 0

    @property
    def clients(self) -> int:
        return max(self.tenants, 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("interactive", scale=1, shapes=ALL_SHAPES),
        Workload(
            "analytic",
            scale=20,
            # Seven equally weighted shapes: with an even number the median
            # falls in the gap between two shapes' latency clusters.
            shapes=(
                "star_revenue", "three_way_join_agg", "semi_join",
                "two_way_join", "single_source_agg", "four_way_join",
                "kv_profile_join",
            ),
            fragment_cache_bytes=1_000_000,
        ),
        Workload(
            "serve_cached",
            scale=2,
            shapes=ALL_SHAPES,
            plan_cache_size=64,
            fragment_cache_bytes=16_000_000,
            tenants=2,
            server_workers=2,
            write_every=100,
        ),
    )
}


def query_texts(workload: Workload, seed: int) -> List[Tuple[str, str]]:
    """The workload's distinct (shape, sql) pairs for ``seed``."""
    texts = []
    for shape in workload.shapes:
        template, (lo, hi) = TEMPLATES[shape]
        rng = random.Random(f"{seed}:literal:{shape}")
        width = (hi - lo) // LITERALS_PER_SLOT
        for stratum in range(LITERALS_PER_SLOT):
            value = lo + stratum * width + rng.randrange(width)
            texts.append((shape, template.format(x=value)))
    return texts


WRITE = -1  # stream marker for a source write


def op_stream(workload: Workload, seed: int, tenant: int) -> Iterator[int]:
    """Endless operation stream of one client: indexes into
    :func:`query_texts`, each deck a fresh seeded permutation, with
    :data:`WRITE` at every ``write_every``-th position (tenants offset)."""
    deck = len(workload.shapes) * LITERALS_PER_SLOT
    rng = random.Random(f"{seed}:stream:{tenant}")
    every = workload.write_every
    offset = (tenant * every) // max(workload.clients, 1)
    position = 0
    while True:
        for index in rng.sample(range(deck), deck):
            if every and position % every == every - 1 - offset:
                position += 1
                yield WRITE
            position += 1
            yield index


ROWS_PER_WRITE = 5
_STATUSES = ["OPEN", "SHIPPED", "DELIVERED", "RETURNED"]


def write_rows(
    seed: int, version: int, base_orders: int, customers: int
) -> List[Tuple[Any, ...]]:
    """The ``orders`` rows appended by write number ``version`` (1-based).

    Depends only on (seed, version), so the data at version k is the same
    whichever client performed which write.
    """
    rng = random.Random(f"{seed}:write:{version}")
    first = base_orders + (version - 1) * ROWS_PER_WRITE + 1
    day0 = datetime.date(1988, 1, 1)
    return [
        (
            first + i,
            rng.randint(1, customers),
            day0 + datetime.timedelta(days=rng.randrange(730)),
            round(rng.uniform(5.0, 5000.0), 2),
            rng.choice(_STATUSES),
        )
        for i in range(ROWS_PER_WRITE)
    ]
