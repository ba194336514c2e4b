"""Unit tests for statistics snapshots and their invalidation."""

import pytest

from repro.plan.stats import (
    ColumnStats, Histogram, StatisticsCatalog, TableStats, statistics,
)
from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, char
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.rules.clause import Interval


def make_relation(name="T", rows=None):
    schema = RelationSchema(name, [Column("K", char(4)),
                                   Column("V", INTEGER)])
    if rows is None:
        rows = [("a", 1), ("b", 2), ("a", 3), ("c", None)]
    return Relation(schema, rows)


class TestHistogram:
    def test_uniform_fraction(self):
        histogram = Histogram.build(list(range(100)))
        assert histogram is not None
        fraction = histogram.fraction(Interval.closed(0, 49))
        assert fraction == pytest.approx(0.5, abs=0.05)

    def test_out_of_range(self):
        histogram = Histogram.build(list(range(100)))
        assert histogram.fraction(Interval.at_least(1000)) == 0.0
        assert histogram.fraction(Interval.at_most(-5)) == 0.0

    def test_unbounded_covers_everything(self):
        histogram = Histogram.build(list(range(100)))
        assert histogram.fraction(Interval.everything()) == pytest.approx(1.0)

    def test_constant_column(self):
        histogram = Histogram.build([7, 7, 7])
        assert histogram.fraction(Interval.point(7)) == pytest.approx(1.0)
        assert histogram.fraction(Interval.at_least(8)) == 0.0

    def test_non_numeric_returns_none(self):
        assert Histogram.build(["a", "b"]) is None
        assert Histogram.build([]) is None
        assert Histogram.build([1, "a"]) is None


class TestColumnStats:
    def test_counts(self):
        stats = ColumnStats("V", [1, 2, 2, None, 3])
        assert stats.non_null == 4
        assert stats.nulls == 1
        assert stats.distinct == 3
        assert (stats.min, stats.max) == (1, 3)

    def test_point_selectivity_uses_distinct(self):
        stats = ColumnStats("V", [1, 2, 3, 4])
        assert stats.selectivity(Interval.point(2), 4) == pytest.approx(1 / 4)

    def test_point_outside_range_is_zero(self):
        stats = ColumnStats("V", [1, 2, 3, 4])
        assert stats.selectivity(Interval.point(99), 4) == 0.0

    def test_range_uses_histogram(self):
        stats = ColumnStats("V", list(range(100)))
        fraction = stats.selectivity(Interval.closed(0, 9), 100)
        assert fraction == pytest.approx(0.1, abs=0.05)

    def test_nulls_never_match(self):
        stats = ColumnStats("V", [None, None])
        assert stats.selectivity(Interval.everything(), 2) == 0.0


class TestTableStats:
    def test_snapshot(self):
        stats = TableStats(make_relation())
        assert stats.row_count == 4
        assert stats.distinct_values("k") == 3
        assert stats.column("V").nulls == 1

    def test_distinct_floor_is_one(self):
        stats = TableStats(make_relation(rows=[]))
        assert stats.distinct_values("K") == 1


class TestStatisticsCatalog:
    def test_cache_hit_while_nothing_changes(self):
        database = Database()
        database.catalog.register(make_relation())
        stats_catalog = StatisticsCatalog(database)
        first = stats_catalog.table_stats("T")
        assert stats_catalog.table_stats("T") is first
        assert stats_catalog.recomputes == 1

    def test_mutation_invalidates(self):
        database = Database()
        relation = make_relation()
        database.catalog.register(relation)
        stats_catalog = StatisticsCatalog(database)
        assert stats_catalog.table_stats("T").row_count == 4
        relation.insert(("d", 9))
        assert stats_catalog.table_stats("T").row_count == 5
        assert stats_catalog.recomputes == 2

    def test_other_relation_mutation_revalidates_without_recompute(self):
        database = Database()
        relation = make_relation("T")
        other = make_relation("U")
        database.catalog.register(relation)
        database.catalog.register(other)
        stats_catalog = StatisticsCatalog(database)
        first = stats_catalog.table_stats("T")
        other.insert(("x", 1))
        assert stats_catalog.table_stats("T") is first
        assert stats_catalog.recomputes == 1

    def test_reregister_replaces_snapshot(self):
        database = Database()
        database.catalog.register(make_relation())
        stats_catalog = StatisticsCatalog(database)
        assert stats_catalog.table_stats("T").row_count == 4
        database.catalog.register(make_relation(rows=[("z", 0)]),
                                  replace=True)
        assert stats_catalog.table_stats("T").row_count == 1

    def test_statistics_accessor_is_per_database(self):
        database = Database()
        database.catalog.register(make_relation())
        assert statistics(database) is statistics(database)
        assert statistics(Database()) is not statistics(database)


class TestGroupedOutputEstimate:
    """``ProjectPlan.records_output`` for aggregates follows the
    ``records_output``/``distinct_values`` contract: one row for a
    global aggregate, the product of the group columns' distinct
    values (capped at the input's rows) for GROUP BY."""

    @pytest.fixture()
    def database(self):
        database = Database()
        rows = [(f"k{i % 3}", i % 5, i) for i in range(60)]
        database.create("G", [("K", char(4)), ("M", INTEGER),
                              ("Id", INTEGER)], rows)
        database.create("H", [("K", char(4)), ("W", INTEGER)],
                        [(f"k{i}", i) for i in range(3)])
        return database

    def estimate(self, database, sql):
        from repro.plan.planner import plan_select
        from repro.sql.parser import parse_select
        return plan_select(database, parse_select(sql)).root \
            .records_output()

    def test_group_by_uses_distinct_values(self, database):
        assert self.estimate(
            database, "SELECT G.K, COUNT(*) FROM G GROUP BY G.K") == 3.0
        assert self.estimate(
            database, "SELECT G.K, G.M, COUNT(*) FROM G "
                      "GROUP BY G.K, G.M") == 15.0

    def test_group_by_is_capped_at_input_rows(self, database):
        assert self.estimate(
            database, "SELECT G.Id, COUNT(*) FROM G GROUP BY G.Id") == 60.0
        filtered = self.estimate(
            database, "SELECT G.Id, COUNT(*) FROM G WHERE G.M = 1 "
                      "GROUP BY G.Id")
        assert filtered <= 60.0 / 5 + 1e-9

    def test_group_key_on_the_other_side_of_a_join(self, database):
        assert self.estimate(
            database, "SELECT H.W, COUNT(*) FROM G, H WHERE G.K = H.K "
                      "GROUP BY H.W") == 3.0

    def test_global_aggregate_is_one_row(self, database):
        assert self.estimate(database, "SELECT COUNT(*) FROM G") == 1.0
        assert self.estimate(
            database, "SELECT MAX(G.M) FROM G WHERE G.M > 100") == 1.0

    def test_plain_select_keeps_input_rows(self, database):
        assert self.estimate(database, "SELECT G.K FROM G") == 60.0
