"""Physical operators: join kinds, NULL-aware anti joins, exchanges, metrics."""

import pytest

from repro import Catalog, SimulatedNetwork
from repro.core.logical import RelColumn
from repro.core.physical import (
    DistinctExec,
    ExecutionContext,
    FilterExec,
    HashJoinExec,
    LimitExec,
    NestedLoopJoinExec,
    ProjectExec,
    SetDifferenceExec,
    SortExec,
    StaticRowsExec,
    UnionExec,
    _row_bytes,
)
from repro.datatypes import DataType
from repro.sql import ast

from .conftest import drain


def ctx(batch_size=1024):
    return ExecutionContext(Catalog(), SimulatedNetwork(), batch_size=batch_size)


def columns(*specs):
    return [RelColumn(name, dtype) for name, dtype in specs]


def static(rows, cols):
    return StaticRowsExec(rows, cols)


INT = DataType.INTEGER
TEXT = DataType.TEXT


class TestRowBytes:
    def test_value_widths(self):
        import datetime

        row = (None, True, 7, 1.5, "abc", datetime.date(1989, 1, 1))
        assert _row_bytes(row) == 1 + 1 + 8 + 8 + 3 + 4


class TestScalarOperators:
    def test_filter(self):
        cols = columns(("a", INT))
        op = FilterExec(
            static([(1,), (5,), (None,)], cols),
            ast.BinaryOp(">", cols[0].ref(), ast.Literal(2, INT)),
        )
        assert drain(op, ctx()) == [(5,)]

    def test_project(self):
        cols = columns(("a", INT))
        op = ProjectExec(
            static([(2,), (3,)], cols),
            [ast.BinaryOp("*", cols[0].ref(), ast.Literal(10, INT))],
            columns(("x", INT)),
        )
        assert drain(op, ctx()) == [(20,), (30,)]

    def test_limit_and_offset(self):
        cols = columns(("a", INT))
        op = LimitExec(static([(i,) for i in range(10)], cols), 3, 2)
        assert drain(op, ctx()) == [(2,), (3,), (4,)]

    def test_distinct(self):
        cols = columns(("a", INT))
        op = DistinctExec(static([(1,), (1,), (2,)], cols))
        assert drain(op, ctx()) == [(1,), (2,)]

    def test_sort(self):
        cols = columns(("a", INT))
        op = SortExec(
            static([(3,), (1,), (None,)], cols), [(cols[0].ref(), True)]
        )
        assert drain(op, ctx()) == [(1,), (3,), (None,)]

    def test_union(self):
        cols = columns(("a", INT))
        op = UnionExec(
            [static([(1,)], cols), static([(2,)], cols)], cols
        )
        assert drain(op, ctx()) == [(1,), (2,)]

    def test_set_difference_except_and_intersect(self):
        cols = columns(("a", INT))
        left = static([(1,), (2,), (2,), (3,)], cols)
        right = static([(2,)], cols)
        except_op = SetDifferenceExec(left, right, "EXCEPT", cols)
        assert drain(except_op, ctx()) == [(1,), (3,)]
        intersect_op = SetDifferenceExec(
            static([(1,), (2,), (2,)], cols), static([(2,), (9,)], cols),
            "INTERSECT", cols,
        )
        assert drain(intersect_op, ctx()) == [(2,)]


def make_join(kind, left_rows, right_rows, null_aware=False, residual=None):
    left_cols = columns(("lk", INT), ("lv", TEXT))
    right_cols = columns(("rk", INT), ("rv", TEXT))
    out = left_cols + right_cols if kind in ("INNER", "LEFT") else left_cols
    return HashJoinExec(
        static(left_rows, left_cols),
        static(right_rows, right_cols),
        kind,
        [left_cols[0].ref()],
        [right_cols[0].ref()],
        residual,
        out,
        null_aware,
    ), left_cols, right_cols


def make_wide_join(kind, left_rows, right_rows, key_count, null_aware, residual):
    """A hash join over ``(k1 INT, k2 TEXT, v INT)`` rows on both sides,
    joined on the first ``key_count`` columns; ``residual`` adds
    ``left.v < right.v``."""
    left_cols = columns(("lk1", INT), ("lk2", TEXT), ("lv", INT))
    right_cols = columns(("rk1", INT), ("rk2", TEXT), ("rv", INT))
    out = left_cols + right_cols if kind in ("INNER", "LEFT") else left_cols
    return HashJoinExec(
        static(left_rows, left_cols),
        static(right_rows, right_cols),
        kind,
        [column.ref() for column in left_cols[:key_count]],
        [column.ref() for column in right_cols[:key_count]],
        ast.BinaryOp("<", left_cols[2].ref(), right_cols[2].ref())
        if residual
        else None,
        out,
        null_aware,
    )


def nested_loop_join(kind, left_rows, right_rows, key_count, null_aware, residual):
    """The reference: every left row against every right row, in order."""

    def key(row):
        return row[:key_count]

    def matches(left, right):
        if None in key(left) or key(left) != key(right):
            return False
        if residual:
            return None not in (left[2], right[2]) and left[2] < right[2]
        return True

    if kind == "ANTI" and null_aware and any(None in key(r) for r in right_rows):
        return []  # NOT IN with a NULL on the right
    out = []
    for left in left_rows:
        matched = [right for right in right_rows if matches(left, right)]
        if kind == "INNER":
            out.extend(left + right for right in matched)
        elif kind == "LEFT":
            out.extend(left + right for right in matched)
            if not matched:
                out.append(left + (None, None, None))
        elif kind == "SEMI":
            if matched:
                out.append(left)
        elif not matched:  # ANTI
            if null_aware and right_rows and None in key(left):
                continue  # NULL NOT IN (non-empty) is never TRUE
            out.append(left)
    return out


WIDE_LEFT = [
    (1, "a", 10), (2, "b", 20), (None, "a", 30), (1, None, 40),
    (3, "c", None), (1, "a", 50), (4, "d", 60), (2, "b", 5), (1, "x", 0),
]
WIDE_RIGHT = [
    (1, "a", 15), (2, "b", 1), (1, "a", 45), (3, "c", 7), (1, "x", 99),
    (None, "a", 100), (2, "b", 25), (1, "a", None), (5, "e", 0), (1, None, 3),
]
WIDE_RIGHT_NO_NULL_KEYS = [
    row for row in WIDE_RIGHT if row[0] is not None and row[1] is not None
]


class TestHashJoin:
    LEFT = [(1, "a"), (2, "b"), (None, "n"), (3, "c")]
    RIGHT = [(1, "x"), (1, "y"), (3, "z"), (None, "w")]

    def test_inner(self):
        join, _, _ = make_join("INNER", self.LEFT, self.RIGHT)
        rows = drain(join, ctx())
        assert sorted(rows) == [
            (1, "a", 1, "x"), (1, "a", 1, "y"), (3, "c", 3, "z")
        ]

    def test_left_outer(self):
        join, _, _ = make_join("LEFT", self.LEFT, self.RIGHT)
        rows = drain(join, ctx())
        assert (2, "b", None, None) in rows
        assert (None, "n", None, None) in rows
        assert len(rows) == 5

    def test_semi(self):
        join, _, _ = make_join("SEMI", self.LEFT, self.RIGHT)
        assert sorted(drain(join, ctx())) == [(1, "a"), (3, "c")]

    def test_anti_not_exists_semantics(self):
        join, _, _ = make_join("ANTI", self.LEFT, self.RIGHT)
        rows = drain(join, ctx())
        # NULL probe key has no match → kept (NOT EXISTS semantics).
        assert sorted(rows, key=repr) == sorted(
            [(2, "b"), (None, "n")], key=repr
        )

    def test_anti_null_aware_right_null_kills_all(self):
        join, _, _ = make_join("ANTI", self.LEFT, self.RIGHT, null_aware=True)
        assert drain(join, ctx()) == []

    def test_anti_null_aware_without_right_nulls(self):
        right = [(1, "x"), (3, "z")]
        join, _, _ = make_join("ANTI", self.LEFT, right, null_aware=True)
        rows = drain(join, ctx())
        # NULL probe key: NULL NOT IN (1,3) is NULL → dropped.
        assert rows == [(2, "b")]

    def test_residual_predicate(self):
        left_cols = columns(("lk", INT), ("lv", INT))
        right_cols = columns(("rk", INT), ("rv", INT))
        residual = ast.BinaryOp("<", left_cols[1].ref(), right_cols[1].ref())
        join = HashJoinExec(
            static([(1, 10), (1, 99)], left_cols),
            static([(1, 50)], right_cols),
            "INNER",
            [left_cols[0].ref()],
            [right_cols[0].ref()],
            residual,
            left_cols + right_cols,
        )
        assert drain(join, ctx()) == [(1, 10, 1, 50)]

    def test_empty_right_left_join(self):
        join, _, _ = make_join("LEFT", [(1, "a")], [])
        assert drain(join, ctx()) == [(1, "a", None, None)]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 1024])
    @pytest.mark.parametrize("key_count", [1, 2])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize(
        "kind, null_aware",
        [("INNER", False), ("LEFT", False), ("SEMI", False),
         ("ANTI", False), ("ANTI", True)],
    )
    @pytest.mark.parametrize(
        "right_rows",
        [WIDE_RIGHT, WIDE_RIGHT_NO_NULL_KEYS, []],
        ids=["right-null-keys", "right-no-null-keys", "right-empty"],
    )
    def test_paged_build_matches_nested_loop(
        self, right_rows, kind, null_aware, residual, key_count, batch_size
    ):
        # Small batch sizes split the build side into several pages, so
        # the row positions the table holds must run on across pages.
        join = make_wide_join(
            kind, WIDE_LEFT, right_rows, key_count, null_aware, residual
        )
        expected = nested_loop_join(
            kind, WIDE_LEFT, right_rows, key_count, null_aware, residual
        )
        assert drain(join, ctx(batch_size)) == expected

    def test_reference_covers_duplicates_and_nulls(self):
        inner = nested_loop_join("INNER", WIDE_LEFT, WIDE_RIGHT, 2, False, False)
        # (1, "a") matches three build rows spread over several pages.
        assert [row[3:] for row in inner if row[:3] == (1, "a", 10)] == [
            (1, "a", 15), (1, "a", 45), (1, "a", None)
        ]
        assert all(None not in row[:2] for row in inner)


class TestNestedLoopJoin:
    def test_non_equi_inner(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        condition = ast.BinaryOp("<", left_cols[0].ref(), right_cols[0].ref())
        join = NestedLoopJoinExec(
            static([(1,), (5,)], left_cols),
            static([(3,), (6,)], right_cols),
            "INNER",
            condition,
            left_cols + right_cols,
        )
        assert sorted(drain(join, ctx())) == [(1, 3), (1, 6), (5, 6)]

    def test_exists_semi_with_no_condition(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        join = NestedLoopJoinExec(
            static([(1,), (2,)], left_cols),
            static([(9,)], right_cols),
            "SEMI",
            None,
            left_cols,
        )
        assert drain(join, ctx()) == [(1,), (2,)]

    def test_not_exists_with_empty_right(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        join = NestedLoopJoinExec(
            static([(1,)], left_cols),
            static([], right_cols),
            "ANTI",
            None,
            left_cols,
        )
        assert drain(join, ctx()) == [(1,)]

    def test_left_with_condition(self):
        left_cols = columns(("a", INT))
        right_cols = columns(("b", INT))
        condition = ast.BinaryOp("=", left_cols[0].ref(), right_cols[0].ref())
        join = NestedLoopJoinExec(
            static([(1,), (2,)], left_cols),
            static([(1,)], right_cols),
            "LEFT",
            condition,
            left_cols + right_cols,
        )
        assert sorted(drain(join, ctx()), key=repr) == sorted(
            [(1, 1), (2, None)], key=repr
        )


class TestExchangeMetrics:
    def test_exchange_pages_and_bytes(self, small_gis):
        result = small_gis.query("SELECT name FROM customers")
        metrics = result.metrics
        assert metrics.rows_shipped == 5
        assert metrics.messages >= 1
        assert metrics.bytes_shipped > 0
        assert metrics.network.fragments_executed == 1
        assert metrics.network.per_source_rows == {"crm": 5}

    def test_empty_result_still_costs_a_message(self, small_gis):
        result = small_gis.query("SELECT name FROM customers WHERE id > 999")
        assert result.rows == []
        assert result.metrics.messages >= 1

    def test_page_size_drives_message_count(self):
        from repro import GlobalInformationSystem, MemorySource
        from repro.catalog.schema import schema_from_pairs

        gis = GlobalInformationSystem()
        source = MemorySource("m")
        caps = source.capabilities().restricted(page_rows=10)
        source._capabilities = caps
        schema = schema_from_pairs("t", [("a", "INT")])
        source.add_table("t", schema, [(i,) for i in range(95)])
        gis.register_source("m", source)
        gis.register_table("t", source="m")
        result = gis.query("SELECT a FROM t")
        # 95 rows at 10/page → 9 full pages + final partial/empty page.
        assert result.metrics.messages == 10
