"""Unit tests for hash and sorted indexes."""

import pytest

from repro.relational.datatypes import INTEGER, char
from repro.relational.indexes import HashIndex, SortedIndex
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


@pytest.fixture()
def rel():
    schema = RelationSchema("T", [Column("K", char(4)),
                                  Column("V", INTEGER)])
    return Relation(schema, [
        ("a", 5), ("b", 3), ("a", 7), ("c", None), ("d", 1)])


class TestHashIndex:
    def test_lookup(self, rel):
        index = HashIndex(rel, "K")
        assert len(index.lookup("a")) == 2
        assert index.lookup("zz") == []

    def test_contains_and_len(self, rel):
        index = HashIndex(rel, "K")
        assert "b" in index
        assert len(index) == 4

    def test_null_is_indexable(self, rel):
        index = HashIndex(rel, "V")
        assert len(index.lookup(None)) == 1

    def test_distinct_values(self, rel):
        index = HashIndex(rel, "K")
        assert set(index.distinct_values()) == {"a", "b", "c", "d"}


class TestSortedIndex:
    def test_range_inclusive(self, rel):
        index = SortedIndex(rel, "V")
        values = [row[1] for row in index.range(3, 7)]
        assert values == [3, 5, 7]

    def test_range_exclusive(self, rel):
        index = SortedIndex(rel, "V")
        values = [row[1] for row in index.range(3, 7, low_inclusive=False,
                                                high_inclusive=False)]
        assert values == [5]

    def test_open_ended(self, rel):
        index = SortedIndex(rel, "V")
        assert [row[1] for row in index.range(low=5)] == [5, 7]
        assert [row[1] for row in index.range(high=3)] == [1, 3]

    def test_nulls_excluded(self, rel):
        index = SortedIndex(rel, "V")
        assert len(index) == 4

    def test_count_range(self, rel):
        index = SortedIndex(rel, "V")
        assert index.count_range(2, 6) == 2
        assert index.count_range() == 4

    def test_min_max(self, rel):
        index = SortedIndex(rel, "V")
        assert index.min() == 1
        assert index.max() == 7

    def test_empty(self):
        schema = RelationSchema("E", [Column("V", INTEGER)])
        index = SortedIndex(Relation(schema), "V")
        assert index.min() is None
        assert list(index.range(0, 10)) == []

    def test_string_ranges(self, rel):
        index = SortedIndex(rel, "K")
        assert [row[0] for row in index.range("b", "d")] == ["b", "c", "d"]


class TestPositions:
    """Both index kinds hold row positions into their snapshot; the
    row-returning probes are gathers over those positions."""

    @pytest.fixture()
    def dup(self):
        schema = RelationSchema("D", [Column("K", char(4)),
                                      Column("V", INTEGER)])
        return Relation(schema, [
            ("a", 5), ("b", 3), ("a", 3), ("c", None), ("d", 5),
            ("a", 1), ("b", 3)])

    def test_hash_positions_in_storage_order(self, dup):
        index = HashIndex(dup, "K")
        assert list(index.positions("a")) == [0, 2, 5]
        assert list(index.positions("zz")) == []
        assert index.lookup("a") == [dup.rows[i] for i in (0, 2, 5)]

    def test_sorted_positions_are_stable(self, dup):
        index = SortedIndex(dup, "V")
        # Equal keys keep storage order; NULL is in no range.
        assert list(index.range_positions()) == [5, 1, 2, 6, 0, 4]
        assert list(index.range_positions(3, 5, low_inclusive=False)) \
            == [0, 4]
        assert list(index.range_positions(3, 5, high_inclusive=False)) \
            == [1, 2, 6]
        assert list(index.range_positions(low=4)) == [0, 4]
        assert list(index.range_positions(high=3)) == [5, 1, 2, 6]
        assert list(index.range_positions(6, 2)) == []
        assert list(index.range(3, 5)) == [
            dup.rows[i] for i in index.range_positions(3, 5)]

    def test_probes_serve_the_build_snapshot(self, dup):
        hashed, ordered = HashIndex(dup, "K"), SortedIndex(dup, "V")
        before_hash = hashed.lookup("a")
        before_range = list(ordered.range(3, 5))
        dup.delete_where(lambda row: row[0] == "a")
        dup.insert(("a", 4))
        assert hashed.is_stale and ordered.is_stale
        assert hashed.lookup("a") == before_hash
        assert list(ordered.range(3, 5)) == before_range

    def test_positions_address_the_column_store(self, dup):
        store = dup.column_store()
        index = SortedIndex(dup, "V")
        assert index.built_version == store.version == dup.version
        values = store.values(1)
        assert [values[i] for i in index.range_positions(3, 5)] == \
            [3, 3, 3, 5, 5]
