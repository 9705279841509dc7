"""The correctness gate: a SQLite oracle loaded from the generated rows, and
a multiset comparison with a stated float tolerance.

The oracle never goes through the mediator: it loads
``repro.workloads.tpch_lite.generate_rows(scale, seed)`` (plus any
benchmark writes) into one in-memory SQLite database and runs the same SQL
text there.
"""

from __future__ import annotations

import datetime
import math
import sqlite3
from typing import Any, Dict, List, Sequence, Tuple

#: Numbers match when ``math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)``
#: (aggregates sum floats in a different order than SQLite does).
REL_TOL = 1e-9
ABS_TOL = 1e-6

Row = Tuple[Any, ...]


def _norm(value: Any) -> Any:
    """One cell in the oracle's representation."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _sort_key(row: Row) -> tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, (int, float)):
            key.append((1, round(float(value), 3)))
        else:
            key.append((2, str(value)))
    return tuple(key)


def _cells_match(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _rows_match(a: Row, b: Row) -> bool:
    return len(a) == len(b) and all(map(_cells_match, a, b))


def same_multiset(got: Sequence[Row], want: Sequence[Row]) -> bool:
    """True when ``got`` and ``want`` hold the same rows, ignoring order,
    with numbers compared under the float tolerance."""
    if len(got) != len(want):
        return False
    left = sorted((tuple(map(_norm, row)) for row in got), key=_sort_key)
    right = sorted((tuple(map(_norm, row)) for row in want), key=_sort_key)
    if all(map(_rows_match, left, right)):
        return True
    # Rounding in the sort key can order near-equal rows differently;
    # fall back to matching each row against any unused one.
    unused = list(right)
    for row in left:
        for index, candidate in enumerate(unused):
            if _rows_match(row, candidate):
                del unused[index]
                break
        else:
            return False
    return True


class SqliteOracle:
    """The federation's tables in one SQLite database."""

    def __init__(self, tables: Dict[str, Any], rows: Dict[str, List[Row]]) -> None:
        """``tables`` maps table name -> TableSchema (column names in
        order); ``rows`` the generated rows of every table."""
        self._db = sqlite3.connect(":memory:")
        self._columns = {
            name: [column.name for column in schema.columns]
            for name, schema in tables.items()
        }
        for name, columns in self._columns.items():
            self._db.execute(f'CREATE TABLE "{name}" ({", ".join(columns)})')
            self.insert(name, rows[name])

    def insert(self, table: str, rows: Sequence[Row]) -> None:
        marks = ", ".join("?" for _ in self._columns[table])
        self._db.executemany(
            f'INSERT INTO "{table}" VALUES ({marks})',
            [tuple(map(_norm, row)) for row in rows],
        )
        self._db.commit()

    def query(self, sql: str) -> List[Row]:
        return self._db.execute(sql).fetchall()

    def close(self) -> None:
        self._db.close()
