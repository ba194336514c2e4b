"""Range conditions whose literal the column's values cannot order.

The legacy executor raises the typed ``ExpressionError`` for them.  The
planner path must too: the histogram gives such a literal the default
selectivity instead of raising ``TypeError`` while planning, and a
sorted-index range scan reports the bound it cannot order as an
``ExpressionError``.  ``execute_sql``, ``ask()`` and ``explain()`` all
plan, so each is pinned.
"""

import pytest

from repro.errors import ExpressionError
from repro.plan.stats import DEFAULT_SELECTIVITY, ColumnStats
from repro.relational.indexes import SortedIndex
from repro.sql import execute_select_legacy, execute_sql, parse_select
from repro.testbed import ship_database

HISTOGRAM_RANGE = ("SELECT CLASS.CLASS FROM CLASS "
                   "WHERE CLASS.DISPLACEMENT > 'big'")
INDEX_RANGE = "SELECT CLASS.CLASS FROM CLASS WHERE CLASS.TYPE < 5"

ENTRY_POINTS = {
    "execute_sql": lambda system, sql: execute_sql(system.database, sql),
    "ask": lambda system, sql: system.ask(sql),
    "explain": lambda system, sql: system.explain(sql),
}


@pytest.mark.parametrize("sql", [HISTOGRAM_RANGE, INDEX_RANGE])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_raise_the_typed_error(ship_system, entry, sql):
    with pytest.raises(ExpressionError, match="type error"):
        ENTRY_POINTS[entry](ship_system, sql)


@pytest.mark.parametrize("sql", [HISTOGRAM_RANGE, INDEX_RANGE])
def test_legacy_executor_raises_the_same_type(sql):
    database = ship_database()
    with pytest.raises(ExpressionError, match="type error"):
        execute_select_legacy(database, parse_select(sql))


def test_histogram_gives_an_unordered_literal_the_default_selectivity():
    from repro.rules.clause import Interval

    stats = ColumnStats("Displacement", list(range(0, 20_000, 7)))
    assert stats.histogram is not None
    fraction = stats.selectivity(Interval.from_comparison(">", "big"),
                                 row_count=len(range(0, 20_000, 7)))
    assert fraction == pytest.approx(DEFAULT_SELECTIVITY)


def test_sorted_index_names_the_bound_it_cannot_order():
    database = ship_database()
    index = SortedIndex(database.relation("CLASS"), "Type")
    with pytest.raises(ExpressionError, match=r"CLASS\.Type < 5"):
        index.range_positions(high=5, high_inclusive=False)
    assert index.count_range(low="SS", high="SSZ") > 0
