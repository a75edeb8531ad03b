"""Tests for the database layer: schemas, storage, generators."""

import random

import pytest

from repro.core import ColumnFD
from repro.db import (
    ProbabilisticDatabase,
    Schema,
    TableSchema,
    constant_probabilities,
    populate_random_table,
    random_table_rows,
    uniform_probabilities,
)


class TestTableSchema:
    def test_default_columns(self):
        s = TableSchema("R", 3)
        assert s.columns == ("c0", "c1", "c2")

    def test_explicit_columns(self):
        s = TableSchema("R", 2, ("a", "b"))
        assert s.columns == ("a", "b")

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            TableSchema("R", 2, ("only_one",))

    def test_duplicate_columns(self):
        with pytest.raises(ValueError):
            TableSchema("R", 2, ("a", "a"))

    def test_fd_out_of_range(self):
        with pytest.raises(ValueError):
            TableSchema("R", 2, fds=(ColumnFD((0,), (9,)),))


class TestSchema:
    def test_deterministic_relations(self):
        s = Schema(
            [
                TableSchema("R", 1, deterministic=True),
                TableSchema("S", 2),
            ]
        )
        assert s.deterministic_relations == {"R"}

    def test_fds_by_relation(self):
        s = Schema([TableSchema("S", 2, fds=(ColumnFD((0,), (1,)),))])
        assert "S" in s.fds_by_relation

    def test_duplicate_rejected(self):
        s = Schema([TableSchema("R", 1)])
        with pytest.raises(ValueError):
            s.add(TableSchema("R", 2))

    def test_container_protocol(self):
        s = Schema([TableSchema("R", 1)])
        assert "R" in s and "X" not in s
        assert len(s) == 1
        assert s["R"].arity == 1


class TestProbabilisticDatabase:
    def test_add_with_probabilities(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.3), ((2,), 0.7)])
        assert db.table("R").probability((1,)) == 0.3
        assert len(db.table("R")) == 2

    def test_add_bare_tuples_default_prob_one(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1, 2), (3, 4)])
        assert db.table("R").probability((1, 2)) == 1.0

    def test_deterministic_rejects_fractional(self):
        db = ProbabilisticDatabase()
        with pytest.raises(ValueError):
            db.add_table("R", [((1,), 0.5)], deterministic=True)

    def test_probability_bounds_enforced(self):
        db = ProbabilisticDatabase()
        with pytest.raises(ValueError):
            db.add_table("R", [((1,), 1.5)])

    def test_arity_mismatch(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.5)])
        with pytest.raises(ValueError):
            db.insert("R", (1, 2, 3), 0.5)

    def test_duplicate_table(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,)])
        with pytest.raises(ValueError):
            db.add_table("R", [(2,)])

    def test_empty_table_needs_arity(self):
        db = ProbabilisticDatabase()
        with pytest.raises(ValueError):
            db.add_table("R", [])
        db.add_table("S", [], arity=2)
        assert len(db.table("S")) == 0

    def test_missing_table(self):
        db = ProbabilisticDatabase()
        with pytest.raises(KeyError):
            db.table("nope")

    def test_schema_property(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,)], deterministic=True)
        db.add_table("S", [((1, 2), 0.4)])
        assert db.schema.deterministic_relations == {"R"}

    def test_average_probability_skips_deterministic(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,)], deterministic=True)
        db.add_table("S", [((1,), 0.2), ((2,), 0.4)])
        assert abs(db.average_probability() - 0.3) < 1e-12

    def test_total_rows(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,), (2,)])
        db.add_table("S", [(3,)])
        assert db.total_rows() == 3


class TestScaling:
    def test_scaled_probabilities(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.8)])
        scaled = db.scaled(0.5)
        assert scaled.table("R").probability((1,)) == 0.4
        # original unchanged
        assert db.table("R").probability((1,)) == 0.8

    def test_deterministic_kept_by_default(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,)], deterministic=True)
        assert db.scaled(0.5).table("R").probability((1,)) == 1.0

    def test_deterministic_scaled_on_request(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,)], deterministic=True)
        scaled = db.scaled(0.5, include_deterministic=True)
        assert scaled.table("R").probability((1,)) == 0.5
        assert not scaled.table("R").schema.deterministic

    def test_factor_validated(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,)])
        with pytest.raises(ValueError):
            db.scaled(1.5)


class TestGenerators:
    def test_rows_distinct(self):
        rng = random.Random(0)
        rows = random_table_rows(rng, 50, 2, 10)
        assert len(rows) == len(set(rows)) == 50

    def test_rows_capped_by_domain(self):
        rng = random.Random(0)
        rows = random_table_rows(rng, 100, 1, 5)
        assert sorted(rows) == [(1,), (2,), (3,), (4,), (5,)]

    def test_values_in_domain(self):
        rng = random.Random(1)
        for row in random_table_rows(rng, 30, 3, 4):
            assert all(1 <= v <= 4 for v in row)

    def test_uniform_probabilities_bounded(self):
        rng = random.Random(2)
        rows = random_table_rows(rng, 20, 1, 100)
        for _, p in uniform_probabilities(rng, rows, 0.3):
            assert 0.0 <= p <= 0.3

    def test_constant_probabilities(self):
        rows = [(1,), (2,)]
        assert constant_probabilities(rows, 0.1) == [((1,), 0.1), ((2,), 0.1)]

    def test_populate_random_table(self):
        db = ProbabilisticDatabase()
        populate_random_table(db, "R", random.Random(3), 10, 2, 5, p_max=0.5)
        assert len(db.table("R")) == 10
        populate_random_table(
            db, "D", random.Random(3), 4, 1, 9, deterministic=True
        )
        assert db.schema.deterministic_relations == {"D"}
