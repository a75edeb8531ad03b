"""SQLite runs the join order the engine's cost model picks (ISSUE 19).

SQLite has no statistics for temp views and, to spare a ``GROUP BY``
sorter, walks a whole materialized view in group-key index order and
probes the few rows a selection produced. The compiler therefore emits
every join in nested-loop order — smallest estimated input outermost,
every next part connected (``greedy_order``) — and pins it with
``CROSS JOIN``. These tests read the plan SQLite actually runs, and
the order the one join emitter actually writes; both fail when the
largest estimated part is pinned outermost instead.
"""

from __future__ import annotations

import re

from repro.api import EngineConfig
from repro.core import parse_query
from repro.core.plans import Join
from repro.db import ProbabilisticDatabase
from repro.engine import (
    DissociationEngine,
    Optimizations,
    SQLCompiler,
)
from repro.workloads import chain_database

from .helpers import assert_scores_close


def _chain5(constant) -> str:
    return (
        f"q(x5) :- R1({constant},x1), R2(x1,x2), R3(x2,x3), "
        "R4(x3,x4), R5(x4,x5)"
    )


def _warmed_engine(rows: int = 2000, seed: int = 3):
    """A SQLite engine whose constant-free chain-5 views have converged
    (they take the shape's first two requests), and unused constants."""
    db = chain_database(5, rows, seed=seed)
    engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
    constants = sorted(db.table("R1").column_values(0))
    for constant in constants[:2]:
        engine.evaluate(parse_query(_chain5(constant)))
    return db, engine, constants[2:]


class TestExecutedPlan:
    def test_selective_outer_reaches_every_table_by_index(self):
        db, engine, constants = _warmed_engine()
        result = engine.evaluate(parse_query(_chain5(constants[0])))
        assert result.scores
        # one statement: nothing was materialized for this constant
        assert ";" not in result.sql
        details = [
            row[3]
            for row in engine.sqlite.connection.execute(
                "EXPLAIN QUERY PLAN " + result.sql
            )
        ]
        stored = re.compile(r"\b(ix_|dissoc_|R[1-5]\b)")
        scans = [d for d in details if d.startswith("SCAN") and stored.search(d)]
        assert scans == [], (
            "a stored table is walked end to end while the selection's "
            f"few rows are probed: {scans}"
        )
        searches = [d for d in details if d.startswith("SEARCH")]
        assert all(re.search(r"USING INDEX \S+ \(\S+=\?\)", d) for d in searches)
        # the materialized constant-free views are among the probed
        assert sum("ix_dissoc_" in d for d in searches) >= 5
        assert sum("ix_R1_c0" in d for d in searches) >= 1
        want = DissociationEngine(db).propagation_score(
            parse_query(_chain5(constants[0]))
        )
        assert_scores_close(result.scores, want, tolerance=1e-12)
        engine.release()

    def test_every_multi_part_from_is_pinned(self):
        _, engine, constants = _warmed_engine(rows=300)
        for opts in (Optimizations(), Optimizations(single_plan=False)):
            sql = engine.evaluate(parse_query(_chain5(constants[0])), opts).sql
            assert sql.count("CROSS JOIN") > 0
            # a comma join would put "t0," at a line end
            assert not re.search(r"\bt\d+,\n", sql)
        engine.release()


class TestEmittedOrder:
    def _joins(self, engine, query):
        plans = engine.minimal_plans(query) + [engine.single_plan(query)]
        seen = []
        for plan in plans:
            for node in plan.walk():
                if isinstance(node, Join) and node not in seen:
                    seen.append(node)
        return seen

    def test_first_part_has_the_smallest_estimate(self):
        db, engine, constants = _warmed_engine(rows=400)
        query = parse_query(_chain5(constants[0]))
        estimator = engine.sqlite_executor.plan_estimator()
        compiler = SQLCompiler(db.schema, estimator=estimator)
        largest_first_disagrees = 0
        for node in self._joins(engine, query):
            marker = {part: f"part_{i}" for i, part in enumerate(node.parts)}
            sql = compiler._join_sql(node, marker.__getitem__)
            emitted = re.findall(r"(part_\d+) t\d+", sql)
            assert sorted(emitted) == sorted(marker.values())
            estimates = [estimator(part) for part in node.parts]
            rows = [e.rows for e in estimates]
            assert emitted[0] == f"part_{rows.index(min(rows))}"
            # every next part shares a variable with the ones before it
            # (a chain's joins are connected, so no cross product)
            bound = set(estimates[int(emitted[0][5:])].profile.variables)
            for name in emitted[1:]:
                variables = estimates[int(name[5:])].profile.variables
                assert bound & variables
                bound |= variables
            # the trap: largest estimated part first
            largest_first_disagrees += max(rows) > min(rows)
        assert largest_first_disagrees, (
            "no join of this plan set tells the two orders apart — the "
            "test would pass with the largest part pinned first"
        )
        engine.release()

    def test_connected_parts_first_cross_product_last(self):
        """A 4-part join whose fourth part shares no variable: the arms
        follow the smallest arm (they connect through ``x0``) although
        the loose part is smaller than two of them — unless the loose
        part is the smallest of all, which leaves nothing to connect to
        and falls back to the smallest remaining part."""
        def emitted_relations(loose_rows: int) -> list[str]:
            db = ProbabilisticDatabase()
            # each arm enters the join projected onto x0: 2, 40, 20 rows
            for name, n in (("A", 2), ("B", 40), ("C", 20)):
                db.add_table(name, [((i, i), 0.5) for i in range(n)])
            db.add_table("L", [((i,), 0.5) for i in range(loose_rows)])
            engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
            query = parse_query(
                "q(x0,y) :- B(x0,x1), L(y), A(x0,x2), C(x0,x3)"
            )
            [join] = [
                node
                for node in engine.single_plan(query).walk()
                if isinstance(node, Join) and len(node.parts) == 4
            ]
            compiler = SQLCompiler(
                db.schema, estimator=engine.sqlite_executor.plan_estimator()
            )
            marker = {
                part: "_".join(sorted(a.relation for a in part.atoms()))
                for part in join.parts
            }
            sql = compiler._join_sql(join, marker.__getitem__)
            assert sql.count("CROSS JOIN") == 3
            engine.release()
            return re.findall(r"\b([ABCL]) t\d", sql)

        assert emitted_relations(loose_rows=12) == ["A", "C", "B", "L"]
        assert emitted_relations(loose_rows=1) == ["L", "A", "C", "B"]

    def test_no_estimator_keeps_the_comma_join(self):
        db, engine, constants = _warmed_engine(rows=100)
        query = parse_query(_chain5(constants[0]))
        compiler = SQLCompiler(db.schema, native_ior=True)
        sql = compiler.compile(engine.single_plan(query), query)
        assert "CROSS JOIN" not in sql and re.search(r"\bt0,\n", sql)
        want = engine.evaluate(query).scores
        width = len(query.head_order)
        got = {row[:width]: row[width] for row in engine.sqlite.execute(sql)}
        assert_scores_close(got, want, tolerance=1e-12)
        engine.release()

    def test_part_without_statistics_keeps_the_comma_join(self):
        db, engine, constants = _warmed_engine(rows=100)
        query = parse_query(_chain5(constants[0]))

        def no_stats(plan):
            raise KeyError("R1")

        compiler = SQLCompiler(db.schema, estimator=no_stats)
        sql = compiler.compile(engine.single_plan(query), query)
        assert "CROSS JOIN" not in sql and re.search(r"\bt0,\n", sql)
        engine.release()
