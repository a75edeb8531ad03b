"""Statement templates (ISSUE 20): the SQL of a parameterised request is
compiled once per query shape and frequency class, and every later
request of it binds its constants into the stored statement.

The reference everything is diffed against is an engine with
``plan_memo_size=0``: it has no shape identity, so it compiles every
request. The lockstep property over generated streams lives in
``tests/test_properties_engine.py``.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro.core.canonical as canonical_module
import repro.engine.evaluator as evaluator_module
import repro.engine.executors as executors_module
from repro import connect
from repro.api import EngineConfig
from repro.core import Atom, ConjunctiveQuery, Constant, Variable, parse_query
from repro.db import ProbabilisticDatabase
from repro.engine import DissociationEngine, Optimizations, SQLCompiler
from repro.engine.sql import Parameters, Statement, bindable
from repro.obs import Observer
from repro.workloads import chain_database

from .helpers import assert_scores_close

ALL_PLANS = Optimizations(single_plan=False)
SQLITE = EngineConfig(backend="sqlite")
REFERENCE = EngineConfig(backend="sqlite", plan_memo_size=0)


def chain(k: int, constant, names: str = "x") -> str:
    tail = ", ".join(
        f"R{t}({names}{t - 1},{names}{t})" for t in range(2, k + 1)
    )
    return f"q({names}{k}) :- R1({constant},{names}1), {tail}"


def frequency_classes(engine, relation: str, column: int) -> dict:
    """The constants of ``relation``'s column grouped by the frequency
    the SQL catalog gives them (largest class first)."""
    snapshot = engine.sqlite_executor.snapshot()
    stats = snapshot.catalog.table_stats(
        relation, snapshot.backend.table_epoch(relation)
    )
    classes: dict[float, list] = {}
    for value in sorted(engine.db.table(relation).column_values(column)):
        frequency = stats.columns[column].frequency(value)
        classes.setdefault(frequency, []).append(value)
    return dict(sorted(classes.items(), key=lambda kv: -len(kv[1])))


def temp_objects(engine) -> int:
    [(count,)] = engine.sqlite.execute(
        "SELECT count(*) FROM sqlite_temp_master"
    )
    return count


def statements(engine) -> dict:
    return engine.statement_stats()


def warmed(db, k: int, constants, config=SQLITE, opts=None):
    """An engine that has served ``constants`` (three of one frequency
    class store the shape's template)."""
    engine = DissociationEngine(db, config)
    for constant in constants:
        engine.evaluate(parse_query(chain(k, constant)), opts)
    return engine


# ----------------------------------------------------------------------
# one canonical scan per request
# ----------------------------------------------------------------------
class TestOneCanonicalScan:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_a_session_miss_scans_its_query_once(self, backend, monkeypatch):
        db = chain_database(4, 60, seed=2)
        constants = sorted(db.table("R1").column_values(0))
        scans = []
        original = canonical_module._scan
        monkeypatch.setattr(
            canonical_module,
            "_scan",
            lambda query: scans.append(query) or original(query),
        )
        # the parse memo keeps queries (scans included) across sessions:
        # start from texts it does not hold
        parse_query.cache_clear()
        with connect(db, EngineConfig(backend=backend)) as session:
            for constant in constants[:6]:
                scans.clear()
                result = session.evaluate(chain(4, constant))
                assert not result.cached
                # result key, store key, both plan-memo flavours and (on
                # SQLite) the statement key: one scan serves them all
                assert len(scans) == 1, len(scans)
            scans.clear()
            assert session.evaluate(chain(4, constants[0])).cached
            assert not scans  # the parse memo's query, already scanned

    def test_the_scan_is_kept_on_the_query(self):
        query = parse_query("q(y) :- S(x,y), R(3,x)")
        first = canonical_module.canonical_shape(query)
        assert canonical_module.canonical_shape(query) is first
        assert first[1] == (3,)
        # an equal query object has its own (equal) scan
        twin = parse_query("q(y) :- S(x,y),  R(3,x)")
        assert twin is not query
        assert canonical_module.canonical_shape(twin) == first


# ----------------------------------------------------------------------
# the emitter: slots, parameters, literals
# ----------------------------------------------------------------------
class TestEmitter:
    def test_bindable_is_exact_about_types(self):
        assert bindable(5) and bindable(-(2**63)) and bindable(2**63 - 1)
        assert bindable(1.5) and bindable("a'b") and bindable("")
        for value in (2**63, -(2**63) - 1, True, False, None, b"x", (1,)):
            assert not bindable(value), value

    def test_slots_follow_the_canonical_scan_not_the_spelling(self):
        one = parse_query("q(z) :- S(y,7,z), R('a',y,2)")
        other = parse_query("q(c) :- R('b',b,5), S(b,9,c)")
        for query, constants in ((one, ("a", 2, 7)), (other, ("b", 5, 9))):
            parameters = Parameters(query)
            assert parameters.constants == constants
            assert parameters.slots == {("R", 0): 0, ("R", 2): 1, ("S", 1): 2}
            assert parameters.values == dict(
                zip(("k0", "k1", "k2"), constants)
            )

    def test_statement_spells_parameters_and_literals(self):
        statement = Statement('SELECT "x" FROM t WHERE a = \x001\x00 AND b = \x000\x00')
        assert statement.text == 'SELECT "x" FROM t WHERE a = :k1 AND b = :k0'
        assert (
            statement.literal(("it's", 4))
            == "SELECT \"x\" FROM t WHERE a = 4 AND b = 'it''s'"
        )
        plain = Statement("SELECT 1")
        assert plain.text == plain.literal(()) == "SELECT 1"

    def test_identifiers_that_look_like_parameters_are_left_alone(self):
        db = ProbabilisticDatabase()
        db.add_table(
            ":k0", [((1, 2), 0.5), ((3, 2), 0.25)], columns=(":k1", "b")
        )
        db.add_table("S", [((2,), 0.5)])
        query = ConjunctiveQuery(
            [
                Atom(":k0", (Constant(1), Variable("y"))),
                Atom("S", (Variable("y"),)),
            ],
            [Variable("y")],
        )
        engine = DissociationEngine(db, SQLITE)
        result = engine.evaluate(query)
        want = DissociationEngine(db).evaluate(query).scores
        assert_scores_close(result.scores, want, tolerance=1e-12)
        assert '":k0"' in result.sql and '":k1" = 1' in result.sql
        # the reported text runs as it reads
        rows = engine.sqlite.execute(result.sql)
        assert {row[:1]: row[1] for row in rows} == result.scores
        engine.release()

    def test_public_compile_returns_literal_text(self):
        db = chain_database(3, 40, seed=4)
        constant = sorted(db.table("R1").column_values(0))[0]
        query = parse_query(chain(3, constant))
        engine = DissociationEngine(db, SQLITE)
        sql = SQLCompiler(db.schema, native_ior=True).compile(
            engine.single_plan(query), query
        )
        assert f'"c0" = {constant}' in sql and ":k" not in sql
        assert "\x00" not in sql
        got = {row[:1]: row[1] for row in engine.sqlite.execute(sql)}
        assert_scores_close(got, engine.evaluate(query).scores, 1e-12)
        engine.release()

    def test_every_executed_text_binds_all_its_placeholders(self):
        """DDL included: the same constant under the merged plan, then
        under all plans, materializes constant-free subplans of the
        all-plans set; a view binds nothing."""
        db = chain_database(5, 300, seed=3)
        constants = sorted(db.table("R1").column_values(0))
        engine = warmed(db, 5, constants[:3])
        executed = []
        connection = engine.sqlite.connection
        connection.set_trace_callback(executed.append)
        query = parse_query(chain(5, constants[3]))
        merged = engine.evaluate(query)
        all_plans = engine.evaluate(query, ALL_PLANS)
        connection.set_trace_callback(None)
        assert "CREATE TEMP TABLE" in all_plans.sql
        # the trace shows statements with their parameters expanded
        ddl = [text for text in executed if text.startswith("CREATE TEMP")]
        assert ddl and all(":k" not in text for text in executed)
        for result in (merged, all_plans):
            assert ":k" not in result.sql and "\x00" not in result.sql
        want = DissociationEngine(db).evaluate(query).scores
        assert_scores_close(all_plans.scores, want, tolerance=1e-12)
        engine.release()


# ----------------------------------------------------------------------
# unbindable and odd constants keep their answers
# ----------------------------------------------------------------------
def _odd_database() -> ProbabilisticDatabase:
    rng = random.Random(7)
    db = ProbabilisticDatabase()
    firsts = [1, 1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    db.add_table(
        "R1",
        [((a, i % 5), rng.uniform(0.1, 0.9)) for i, a in enumerate(firsts)],
    )
    db.add_table(
        "R2",
        [((i % 5, i % 3), rng.uniform(0.1, 0.9)) for i in range(12)],
    )
    db.add_table(
        "W",
        [
            (("a'b", 1), 0.5),
            (("plain", 2), 0.25),
            ((True, 3), 0.75),
            ((None, 4), 0.6),
        ],
    )
    return db


def _both_backends(db, query, opts=None, cross: bool = True):
    """``query`` four times (compile, converge, store, hit or repeat) on
    each backend, in lockstep with that backend's compile-per-request
    reference; the backends agree with each other unless ``cross`` is
    off. Returns the last SQLite result and the memory scores."""
    out = {}
    for backend in ("memory", "sqlite"):
        engine = DissociationEngine(db, EngineConfig(backend=backend))
        reference = DissociationEngine(
            db, EngineConfig(backend=backend, plan_memo_size=0)
        )
        try:
            for _ in range(4):
                got = engine.evaluate(query, opts)
                want = reference.evaluate(query, opts)
                assert got.scores == want.scores
                assert got.sql == want.sql
            out[backend] = got
        finally:
            engine.release()
            reference.release()
    memory = out["memory"].scores
    if cross:
        assert_scores_close(out["sqlite"].scores, memory, tolerance=1e-12)
    return out["sqlite"], memory


class TestOddConstants:
    def test_an_int_beyond_int64_answers_with_the_empty_set(self):
        db = _odd_database()
        query = parse_query("q(x1) :- R1(9223372036854775808,x1), R2(x1,x2)")
        [constant] = Parameters(query).constants
        assert type(constant) is int and not bindable(constant)
        got, memory = _both_backends(db, query)
        assert got.scores == memory == {}
        assert "9223372036854775808" in got.sql

    def test_a_float_selects_the_equal_integer(self):
        db = _odd_database()
        as_float, _ = _both_backends(
            db, parse_query("q(x1) :- R1(1.0,x1), R2(x1,x2)")
        )
        as_int, _ = _both_backends(
            db, parse_query("q(x1) :- R1(1,x1), R2(x1,x2)")
        )
        assert as_float.scores and as_float.scores == as_int.scores

    @pytest.mark.parametrize(
        "value, answers",
        [(True, {(3,)}), ("a'b", {(1,)}), (None, set()), ("absent", set())],
    )
    def test_built_constants(self, value, answers):
        db = _odd_database()
        query = ConjunctiveQuery(
            [Atom("W", (Constant(value), Variable("y")))], [Variable("y")]
        )
        # ``= NULL`` selects nothing in SQL while the memory executor
        # compares ``None == None``: the backends differed before, and
        # each keeps its answer
        got, memory = _both_backends(db, query, cross=value is not None)
        assert set(got.scores) == answers
        if value is None:
            assert set(memory) == {(4,)}

    def test_unbindable_requests_are_not_templated(self):
        db = _odd_database()
        engine = DissociationEngine(db, SQLITE)
        query = ConjunctiveQuery(
            [Atom("W", (Constant(True), Variable("y")))], [Variable("y")]
        )
        for _ in range(4):
            engine.evaluate(query)
        assert statements(engine) == dict(
            hits=0, misses=0, evictions=0, size=0, max_size=256
        )
        engine.release()

    def test_an_absent_constant_is_priced_as_the_uniform_remainder(self):
        db = chain_database(4, 200, seed=8)
        engine = DissociationEngine(db, SQLITE)
        [rare, *_] = frequency_classes(engine, "R1", 0).values()
        for constant in rare[:3]:
            engine.evaluate(parse_query(chain(4, constant)))
        before = statements(engine)
        absent = max(db.table("R1").column_values(0)) + 1000
        result = engine.evaluate(parse_query(chain(4, absent)))
        assert result.scores == {}
        after = statements(engine)
        # same frequency class as the rare constants: their template
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        engine.release()

    def test_an_mcv_constant_has_its_own_template_and_join_order(self):
        """A hot constant next to rare ones of the same shape: keyed on
        the shape alone, it would run in the order priced for them."""
        rng = random.Random(1)
        db = ProbabilisticDatabase()
        # value 1 fills 150 of R1's 190 rows; R2 and R3 are small
        db.add_table(
            "R1",
            [((1, i), rng.uniform(0.1, 0.6)) for i in range(150)]
            + [((v, v % 40), rng.uniform(0.1, 0.6)) for v in range(2, 42)],
        )
        db.add_table(
            "R2", [((i, i % 6), rng.uniform(0.1, 0.6)) for i in range(60)]
        )
        db.add_table(
            "R3", [((i, i % 4), rng.uniform(0.1, 0.6)) for i in range(6)]
        )
        engine = DissociationEngine(db, SQLITE)
        reference = DissociationEngine(db, REFERENCE)
        memory = DissociationEngine(db)
        classes = frequency_classes(engine, "R1", 0)
        assert classes[150.0] == [1] and len(classes) == 2
        rare = classes[1.0]
        texts = {}

        def serve(*constants):
            for constant in constants:
                query = parse_query(chain(3, constant))
                got, want = engine.evaluate(query), reference.evaluate(query)
                assert got.scores == want.scores and got.sql == want.sql
                assert_scores_close(
                    got.scores, memory.evaluate(query).scores, tolerance=1e-12
                )
                texts[constant] = got.sql

        serve(*rare[:4])
        stored = statements(engine)
        assert stored["size"] == 1 and stored["hits"] == 1
        serve(1, rare[4])
        # the hot constant compiled its own statement and left the rare
        # ones' alone
        assert statements(engine) == dict(
            stored, size=2, hits=2, misses=stored["misses"] + 1
        )
        # repeated, it is a hit like any constant, in lockstep
        serve(1, 1, rare[5], 1)
        # the two classes really are compiled differently: the rare
        # constant's scan leads its join, the hot one's does not
        def normalised(constant):
            return texts[constant].replace(f'"c0" = {constant}', '"c0" = ?')

        assert normalised(rare[3]) == normalised(rare[4])
        assert normalised(rare[3]) != normalised(1)
        for engine_ in (engine, reference):
            engine_.release()

    def test_two_constants_in_one_atom_and_in_two_atoms(self):
        rng = random.Random(3)
        db = ProbabilisticDatabase()
        db.add_table(
            "A",
            [((i % 4, i % 3, i), rng.uniform(0.1, 0.9)) for i in range(24)],
        )
        db.add_table(
            "B", [((i, i % 5), rng.uniform(0.1, 0.9)) for i in range(24)]
        )
        db.add_table(
            "C", [((i % 5, i % 2), rng.uniform(0.1, 0.9)) for i in range(10)]
        )
        engine = DissociationEngine(db, SQLITE)
        memory = DissociationEngine(db)
        first = ((0, 0), (1, 2), (2, 1), (3, 0), (1, 1), (0, 1))
        fresh = ((3, 1), (2, 2), (0, 2), (1, 0), (2, 0), (3, 2))
        spellings = (
            ("q(z) :- A({0},{1},x), B(x,y), C(y,z)", first),
            # the atoms written the other way round, other names: the
            # same shape and slots, so new constants hit its template
            ("q(w) :- C(v,w), B(u,v), A({0},{1},u)", fresh),
            ("q(x) :- A({0},u,x), B(x,y), C(y,{1})", first),
            ("q(b) :- C(c,{1}), A({0},a,b), B(b,c)", fresh),
        )
        outcomes = []
        for text, pairs in spellings:
            for pair in pairs:
                query = parse_query(text.format(*pair))
                assert Parameters(query).constants == pair
                before = statements(engine)["hits"]
                got = engine.evaluate(query)
                outcomes.append(statements(engine)["hits"] - before)
                want = memory.evaluate(query).scores
                assert_scores_close(got.scores, want, tolerance=1e-12)
                assert ":k" not in got.sql
        # each shape converges within its first spelling's first three
        # requests; its second spelling is served from the template
        assert outcomes[3:12] == [1] * 9 and outcomes[15:] == [1] * 9, outcomes
        engine.release()


# ----------------------------------------------------------------------
# counting: a hit derives nothing again
# ----------------------------------------------------------------------
class TestCounting:
    def test_200_constants_compile_estimate_and_bind_nothing(
        self, monkeypatch
    ):
        db = chain_database(5, 800, seed=5)
        engine = DissociationEngine(db, SQLITE)
        [constants, *_] = frequency_classes(engine, "R1", 0).values()
        assert len(constants) >= 203
        for constant in constants[:3]:
            engine.evaluate(parse_query(chain(5, constant)))
        calls = {"join": 0, "estimate": 0, "bind": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            SQLCompiler, "_join_sql", counting("join", SQLCompiler._join_sql)
        )
        monkeypatch.setattr(
            executors_module,
            "estimate_plan",
            counting("estimate", executors_module.estimate_plan),
        )
        monkeypatch.setattr(
            evaluator_module,
            "bind_plans",
            counting("bind", evaluator_module.bind_plans),
        )
        before = statements(engine)
        views = engine.cache_stats()
        objects = temp_objects(engine)
        requests = len(engine.sqlite.view_registry._requests)
        for constant in constants[3:203]:
            result = engine.evaluate(parse_query(chain(5, constant)))
            assert ";" not in result.sql and ":k" not in result.sql
            assert f'"c0" = {constant}\n' in result.sql
        after = statements(engine)
        assert calls == {"join": 0, "estimate": 0, "bind": 0}
        assert after["hits"] == before["hits"] + 200
        assert after["misses"] == before["misses"]
        # the registry was touched as a compile touches it, and nothing
        # was left on the connection
        now = engine.cache_stats()
        assert now["hits"] > views["hits"] and now["misses"] == views["misses"]
        assert now["size"] == views["size"]
        assert temp_objects(engine) == objects
        # a hit notes nothing in the request history
        registry = engine.sqlite.view_registry
        assert len(registry._requests) == requests
        engine.release()

    def test_a_constant_sent_n_times_is_n_minus_1_hits(self):
        """Once the shape's constant-free views exist, the first request
        of a constant stores the template and every repeat of it is a
        hit: no recompile, no ``CREATE TEMP TABLE``, no new view."""
        db = chain_database(5, 400, seed=3)
        engine = DissociationEngine(db, SQLITE)
        reference = DissociationEngine(db, REFERENCE)
        [constants, *_] = frequency_classes(engine, "R1", 0).values()
        for constant in constants[:2]:  # the constant-free views converge
            for engine_ in (engine, reference):
                engine_.evaluate(parse_query(chain(5, constant)))
        query = parse_query(chain(5, constants[2]))
        stats, views = statements(engine), engine.cache_stats()
        n = 6
        for _ in range(n):
            got, want = engine.evaluate(query), reference.evaluate(query)
            assert got.scores == want.scores and got.sql == want.sql
            assert "CREATE TEMP TABLE" not in got.sql
        assert statements(engine) == dict(
            stats,
            hits=stats["hits"] + n - 1,
            misses=stats["misses"] + 1,
            size=stats["size"] + 1,
        )
        assert engine.cache_stats()["size"] == views["size"]
        assert temp_objects(engine) == temp_objects(reference)
        # the next constant of the class is a hit at once
        engine.evaluate(parse_query(chain(5, constants[3])))
        assert statements(engine)["hits"] == stats["hits"] + n
        for engine_ in (engine, reference):
            engine_.release()

    def test_explain_says_whether_a_template_would_serve(self):
        db = chain_database(4, 200, seed=6)
        constants = sorted(db.table("R1").column_values(0))
        engine = warmed(db, 4, constants[:2])
        query = parse_query(chain(4, constants[4]))
        assert engine.explain(query)["statement_template"] is False
        engine.evaluate(parse_query(chain(4, constants[2])))  # stores
        assert engine.explain(query)["statement_template"] is True
        assert engine.explain(query, ALL_PLANS)["statement_template"] is False
        engine.evaluate(query)
        # it came before: the template serves it like any other constant
        report = engine.explain(query)
        assert report["statement_template"] is True
        selective = [
            d
            for d in report["materialization"]
            if f"R1({constants[4]}, x1)" in d["subplan"]
        ]
        assert selective and not any(d["materialize"] for d in selective)
        assert "statement_template" not in DissociationEngine(db).explain(query)
        engine.release()


# ----------------------------------------------------------------------
# respelled queries and head orders
# ----------------------------------------------------------------------
class TestSpellings:
    def test_a_respelled_request_is_a_hit_on_the_first_spellings_text(self):
        db = chain_database(4, 200, seed=6)
        engine = DissociationEngine(db, SQLITE)
        memory = DissociationEngine(db)
        [constants, *_] = frequency_classes(engine, "R1", 0).values()
        for constant in constants[:3]:
            engine.evaluate(parse_query(chain(4, constant)))
        before = statements(engine)
        head, body = chain(4, constants[3], names="hop").split(" :- ")
        respelled = parse_query(
            f"{head} :- " + ", ".join(reversed(body.split(", ")))
        )
        result = engine.evaluate(respelled)
        after = statements(engine)
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == before["size"]
        # rows are positional: the stored text names the first
        # spelling's variables and selects this request's constant
        assert '"hop1"' not in result.sql and '"x1"' in result.sql
        assert f'"c0" = {constants[3]}\n' in result.sql
        assert_scores_close(
            result.scores, memory.evaluate(respelled).scores, tolerance=1e-12
        )
        engine.release()

    def test_a_permuted_head_is_another_shape_with_its_own_template(self):
        db = chain_database(3, 400, domain_size=40, seed=12)
        engine = DissociationEngine(db, SQLITE)
        memory = DissociationEngine(db)
        [constants, *_] = frequency_classes(engine, "R1", 0).values()
        body = "R1({0},x1), R2(x1,x2), R3(x2,x3)"
        for head in ("q(x2,x3)", "q(x3,x2)"):
            for constant in constants[:5]:
                query = parse_query(f"{head} :- " + body.format(constant))
                got = engine.evaluate(query)
                want = memory.evaluate(query).scores
                assert_scores_close(got.scores, want, tolerance=1e-12)
        assert statements(engine)["hits"] >= 3
        # the second head's views moved the registry under the first
        # head's template: one compile each, then both are stored, and
        # the same constant under both heads gives mirrored tuples
        for constant in constants[5:7]:
            stats = statements(engine)
            ab, ba = (
                engine.evaluate(
                    parse_query(f"{head} :- " + body.format(constant))
                )
                for head in ("q(x2,x3)", "q(x3,x2)")
            )
            assert ab.scores and ba.scores == {
                (b, a): score for (a, b), score in ab.scores.items()
            }
        assert statements(engine)["hits"] == stats["hits"] + 2
        assert ab.sql != ba.sql
        engine.release()

    def test_chain7_all_plans_runs_two_stored_statements(self):
        db = chain_database(7, 60, seed=9)
        engine = DissociationEngine(db, SQLITE)
        reference = DissociationEngine(db, REFERENCE)
        [constants, *_] = frequency_classes(engine, "R1", 0).values()
        hits = []
        for constant in constants[:6]:
            query = parse_query(chain(7, constant))
            got = engine.evaluate(query, ALL_PLANS)
            want = reference.evaluate(query, ALL_PLANS)
            assert got.plan_count == 132
            assert got.scores == want.scores and got.sql == want.sql
            assert temp_objects(engine) == temp_objects(reference)
            hits.append(statements(engine)["hits"])
        assert hits[-1] >= 2 and got.sql.count(";\n\n") == 1  # 100 + 32 plans
        [template] = [
            engine.sqlite_executor.snapshot().statements.peek(key)
            for key in engine.sqlite_executor.snapshot().statements
        ]
        assert len(template.statements) == 2
        for engine_ in (engine, reference):
            engine_.release()


# ----------------------------------------------------------------------
# invalidation: every edge is a miss, then hits again
# ----------------------------------------------------------------------
class TestInvalidation:
    K = 4

    def _engine(self, rows=200, seed=6, config=SQLITE):
        db = chain_database(self.K, rows, seed=seed)
        engine = DissociationEngine(db, config)
        [constants, *_] = frequency_classes(engine, "R1", 0).values()
        supply = iter(constants)
        for _ in range(3):
            engine.evaluate(parse_query(chain(self.K, next(supply))))
        assert statements(engine)["size"] == 1
        return db, engine, supply

    def _serve(self, db, engine, constant, expect: str):
        """One request; ``expect`` says how the template store took it."""
        before = statements(engine)
        query = parse_query(chain(self.K, constant))
        result = engine.evaluate(query)
        after = statements(engine)
        delta = (
            after["hits"] - before["hits"],
            after["misses"] - before["misses"],
        )
        assert delta == {"hit": (1, 0), "miss": (0, 1)}[expect], (expect, delta)
        cold = DissociationEngine(db, REFERENCE)
        assert_scores_close(
            result.scores, cold.evaluate(query).scores, tolerance=1e-12
        )
        cold.release()
        assert_scores_close(
            result.scores,
            DissociationEngine(db).evaluate(query).scores,
            tolerance=1e-12,
        )
        return result

    def _recovers(self, db, engine, supply):
        """Within three more requests the shape is served by a template
        again, and stays so."""
        outcomes = []
        for _ in range(4):
            before = statements(engine)["hits"]
            self._serve_any(db, engine, next(supply))
            outcomes.append(statements(engine)["hits"] - before)
        assert outcomes[-1] == 1 and sum(outcomes) >= 1, outcomes

    def _serve_any(self, db, engine, constant):
        query = parse_query(chain(self.K, constant))
        result = engine.evaluate(query)
        assert_scores_close(
            result.scores,
            DissociationEngine(db).evaluate(query).scores,
            tolerance=1e-12,
        )

    def test_a_mutated_scanned_table_misses_and_reprices(self):
        db, engine, supply = self._engine()
        self._serve(db, engine, next(supply), "hit")
        # R3 is scanned but carries no constant: its epoch moves, the
        # views over it drop, its statistics are read again
        db.insert("R3", (10_001, 10_002), 0.5)
        self._serve(db, engine, next(supply), "miss")
        self._recovers(db, engine, supply)
        # inserts that make the next two constants most common values of
        # one count: their frequency class is new, whatever the other
        # keys say
        hot, twin = next(supply), next(supply)
        count = {v: 0 for v in (hot, twin)}
        for row, _ in db.table("R1"):
            if row[0] in count:
                count[row[0]] += 1
        for value, extra in ((hot, 40), (twin, 40 + count[hot] - count[twin])):
            for i in range(extra):
                db.insert("R1", (value, 20_000 + i), 0.5)
        self._serve(db, engine, hot, "miss")
        classes = frequency_classes(engine, "R1", 0)
        assert [hot, twin] in classes.values()
        self._recovers(db, engine, supply)
        # and the hot constants' own template serves a new one by value
        self._serve(db, engine, twin, "hit")
        engine.release()

    def test_the_epoch_alone_is_a_miss(self):
        """One more row for ``R1``'s most common value: no view scans
        ``R1`` (nothing drops, the registry does not move) and the rare
        constants keep their frequency — only the epoch says the
        table's statistics moved."""
        db, engine, supply = self._engine()
        constant = next(supply)
        self._serve(db, engine, constant, "hit")
        registry = engine.sqlite.view_registry
        generation = registry.generation
        classes = frequency_classes(engine, "R1", 0)
        [frequency] = [f for f, values in classes.items() if constant in values]
        [common] = classes[max(classes)]
        db.insert("R1", (common, 30_001), 0.5)
        probe = next(supply)
        self._serve(db, engine, probe, "miss")
        assert registry.generation == generation
        assert probe in frequency_classes(engine, "R1", 0)[frequency]
        self._serve(db, engine, next(supply), "hit")
        engine.release()

    def test_a_mutated_unscanned_table_stays_a_hit(self):
        db, engine, supply = self._engine()
        db.add_table("Z", [((1,), 0.5)])
        self._serve(db, engine, next(supply), "hit")
        db.insert("Z", (2,), 0.5)
        self._serve(db, engine, next(supply), "hit")
        engine.release()

    def test_an_evicted_view_is_a_miss(self):
        """``cache_size=4``: another shape's traffic pushes the view the
        template reads out of the registry."""
        self.K = 3  # one constant-free view; chain-4 alone needs five
        db, engine, supply = self._engine(
            config=EngineConfig(backend="sqlite", cache_size=4)
        )
        self._serve(db, engine, next(supply), "hit")
        registry = engine.sqlite.view_registry
        [mine] = [key for key, _ in registry._views.items()]
        generation = registry.generation
        body = "R1(x0,x1), R2(x1,x2), R3(x2,x3)"
        for head in ("q(x0)", "q(x3)", "q(x0,x3)", "q()"):
            for _ in range(2):  # the repeat promotes its subplans
                engine.evaluate(parse_query(f"{head} :- {body}"))
        assert engine.cache_stats()["evictions"] > 0
        assert mine not in registry and registry.generation > generation
        self._serve(db, engine, next(supply), "miss")
        self._recovers(db, engine, supply)
        assert engine.cache_stats()["size"] <= 4
        engine.release()

    def test_a_recalibrated_write_factor_is_a_miss(self):
        db, engine, supply = self._engine()
        self._serve(db, engine, next(supply), "hit")
        factor = engine.calibrate_write_factor(sample_rows=256, repeats=1)
        assert engine.write_factor == factor
        self._serve(db, engine, next(supply), "miss")
        self._recovers(db, engine, supply)
        engine.release()

    def test_a_relation_declared_deterministic_is_a_miss(self):
        db, engine, supply = self._engine()
        self._serve(db, engine, next(supply), "hit")
        rows = [row for row, _ in db.table("R2")]
        db.drop_table("R2")
        db.add_table("R2", rows, deterministic=True)
        before = engine.plan_memo_stats()["misses"]
        self._serve(db, engine, next(supply), "miss")
        assert engine.plan_memo_stats()["misses"] > before  # other flags
        self._recovers(db, engine, supply)
        engine.release()

    def test_release_and_reuse_from_the_same_thread(self):
        db, engine, supply = self._engine()
        self._serve(db, engine, next(supply), "hit")
        held = statements(engine)
        engine.release()
        # the released snapshot's counters are kept, its templates not
        assert statements(engine) == dict(held, size=0)
        self._serve(db, engine, next(supply), "miss")
        self._recovers(db, engine, supply)
        assert statements(engine)["hits"] > held["hits"]
        engine.release()

    def test_two_threads_share_one_template_store(self):
        """Two threads are served by the template the main thread
        stored: one snapshot per engine, whichever thread asks, and its
        counters fold on release()."""
        db, engine, supply = self._engine()
        constants = [next(supply) for _ in range(16)]
        want = {
            c: DissociationEngine(db).evaluate(
                parse_query(chain(self.K, c))
            ).scores
            for c in constants
        }
        before = statements(engine)
        views = engine.cache_stats()
        snapshot = engine.sqlite_executor.snapshot()
        errors: list = []

        def work(mine):
            try:
                for constant in mine:
                    got = engine.evaluate(parse_query(chain(self.K, constant)))
                    assert_scores_close(
                        got.scores, want[constant], tolerance=1e-12
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                raise

        threads = [
            threading.Thread(target=work, args=(constants[i::2],), name=f"t{i}")
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors, errors
        # every request of the stored frequency class was a hit, and no
        # thread built a view or a snapshot of its own
        after = statements(engine)
        assert after["hits"] - before["hits"] == len(constants)
        assert after["misses"] == before["misses"]
        assert engine.cache_stats()["misses"] == views["misses"]
        assert engine.sqlite_executor.snapshot() is snapshot
        engine.release()
        assert statements(engine) == dict(after, size=0)


# ----------------------------------------------------------------------
# the template store is capped
# ----------------------------------------------------------------------
class TestTemplateCap:
    def test_300_shapes_keep_at_most_256_templates(self):
        rng = random.Random(5)
        db = ProbabilisticDatabase()
        for t in range(1, 7):
            db.add_table(
                f"R{t}",
                [
                    ((rng.randrange(12), rng.randrange(12)), rng.uniform(0.1, 0.7))
                    for _ in range(30)
                ],
            )
        # sub-chains × a constant on either end or inside × head choices
        shapes = []
        for first in range(1, 7):
            for last in range(first, 7):
                variables = [f"x{i}" for i in range(first - 1, last + 1)]
                for slot in range(len(variables)):
                    free = variables[:slot] + variables[slot + 1 :]
                    for head in ([], free[:1], free[-1:], free[:2], free[::-1][:2]):
                        terms = list(variables)
                        terms[slot] = "{0}"
                        body = ", ".join(
                            f"R{t}({terms[t - first]},{terms[t - first + 1]})"
                            for t in range(first, last + 1)
                        )
                        shapes.append(f"q({','.join(head)}) :- {body}")
        shapes = list(dict.fromkeys(shapes))
        rng.shuffle(shapes)
        shapes = shapes[:300]
        assert len(shapes) == 300
        engine = DissociationEngine(db, SQLITE)
        memory = DissociationEngine(db)
        stored = 0
        for number, text in enumerate(shapes, start=1):
            # constants absent from the data: one frequency class (the
            # uniform remainder), so a shape stores one template
            for constant in range(100, 104):
                engine.evaluate(parse_query(text.format(constant)))
            query = parse_query(text.format(rng.randrange(12)))
            assert_scores_close(
                engine.evaluate(query).scores,
                memory.evaluate(query).scores,
                tolerance=1e-12,
            )
            stats = statements(engine)
            assert stats["size"] <= 256
            stored = max(stored, stats["size"] + stats["evictions"])
        assert stats["size"] == 256 and stats["evictions"] > 0, stats
        assert stored >= 257
        engine.release()


# ----------------------------------------------------------------------
# what the cache says about itself
# ----------------------------------------------------------------------
class TestObservability:
    def test_session_stats_block_counters_and_span_note(self):
        db = chain_database(4, 200, seed=6)
        constants = sorted(db.table("R1").column_values(0))
        observer = Observer()
        config = EngineConfig(backend="sqlite", observer=observer)
        with connect(db, config) as session:
            results = [
                session.evaluate(chain(4, constant))
                for constant in constants[:8]
            ]
            block = session.stats()["engine"]["statements"]
            assert set(block) == {
                "hits", "misses", "evictions", "size", "max_size"
            }
            assert block["max_size"] == 256
            assert block["hits"] + block["misses"] == 8 and block["hits"] >= 3
            snap = observer.snapshot()
            assert snap["counters"]["sql.template.hits"] == block["hits"]
            assert snap["counters"]["sql.template.misses"] == block["misses"]
            assert snap["collected"]["engine"]["statements"] == block
            text = observer.render_prometheus()
            assert f"repro_sql_template_hits {block['hits']}" in text
            assert f"repro_sql_template_misses {block['misses']}" in text

            def statement_spans(node, found):
                if node["name"] == "sqlite.statement":
                    found.append(node)
                for child in node.get("children", ()):
                    statement_spans(child, found)
                return found

            notes = []
            for result in results:
                tree = session.trace(result)
                for root in tree["roots"]:
                    for span in statement_spans(root, []):
                        # (the catalog's own aggregates carry no note)
                        notes.append(span["meta"].get("template"))
                        # the span shows text that runs as it reads
                        assert ":k" not in span["meta"]["sql"]
            assert notes.count("hit") == block["hits"]
            assert notes.count("miss") == block["misses"]

    def test_memory_sessions_report_an_idle_block(self):
        db = chain_database(3, 40, seed=1)
        with connect(db) as session:
            session.evaluate("q(x3) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)")
            assert session.stats()["engine"]["statements"] == dict(
                hits=0, misses=0, evictions=0, size=0, max_size=256
            )

    def test_the_statement_hook_sees_literal_text_on_a_hit(self):
        from repro.service.faults import FaultInjector

        db = chain_database(4, 200, seed=6)
        constants = sorted(db.table("R1").column_values(0))
        faults = FaultInjector()
        seen: list[str] = []
        faults.always("statement", action=seen.append)
        engine = DissociationEngine(db, SQLITE, faults=faults)
        hits = 0
        for constant in constants[:6]:
            del seen[:]
            before = statements(engine)["hits"]
            result = engine.evaluate(parse_query(chain(4, constant)))
            if statements(engine)["hits"] > before:
                hits += 1
                assert seen == [result.sql]
            assert all(":k" not in sql for sql in seen)
            assert any(f'"c0" = {constant}\n' in sql for sql in seen)
        assert hits >= 2
        engine.release()
