"""Property-based tests for evaluation: bounds, agreement, monotonicity.

These check the paper's semantic guarantees on random (query, database)
pairs:

* Corollary 19 — every plan's score upper-bounds the exact probability;
* conservativity — safe queries are computed exactly;
* backend agreement — memory and SQLite produce identical scores;
* Optimization 3 — semi-join reduction never changes scores;
* Proposition 21 — the relative error of ρ vanishes as probabilities
  are scaled down;
* plan templates — a query served from the plans of another query of
  its shape gets exactly what a memo-less engine computes;
* join order — the nested-loop order the SQL compiler pins from the
  cost model's estimates never changes an answer, however wrong the
  estimates are;
* statement templates — an engine that serves requests from stored
  statements stays in lockstep with one that compiles every request:
  same floats, same text, same objects left on the connection.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.api import EngineConfig
from repro.core import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    is_hierarchical,
    minimal_plans,
    parse_query,
)
from repro.core.fds import ColumnFD
from repro.core.plans import Join, Scan
from repro.core.singleplan import single_plan
from repro.db import ProbabilisticDatabase
from repro.engine import (
    DissociationEngine,
    Optimizations,
    plan_scores,
)
from repro.lineage import DNF, exact_probability, lineage_of

from .helpers import (
    ALL_OPTIMIZATION_COMBOS,
    assert_backends_agree,
    masked_database,
    random_database_for,
    random_query,
)
from .test_properties_core import VARIABLES, queries


@st.composite
def query_and_database(draw, max_atoms: int = 3):
    q = draw(queries(max_atoms=max_atoms))
    seed = draw(st.integers(0, 10_000))
    db = random_database_for(q, random.Random(seed), domain_size=2)
    return q, db


@settings(max_examples=60, deadline=None)
@given(query_and_database())
def test_every_plan_upper_bounds_exact(pair):
    q, db = pair
    engine = DissociationEngine(db)
    exact = engine.exact(q)
    for plan in minimal_plans(q):
        scores = plan_scores(plan, q, db)
        assert set(scores) == set(exact)
        for answer in exact:
            assert scores[answer] >= exact[answer] - 1e-9


@settings(max_examples=60, deadline=None)
@given(query_and_database())
def test_safe_queries_computed_exactly(pair):
    q, db = pair
    if not is_hierarchical(q):
        return
    engine = DissociationEngine(db)
    exact = engine.exact(q)
    rho = engine.propagation_score(q)
    for answer in exact:
        assert abs(rho[answer] - exact[answer]) < 1e-9


@settings(max_examples=40, deadline=None)
@given(query_and_database())
def test_backends_agree(pair):
    q, db = pair
    memory = DissociationEngine(db).propagation_score(q)
    sqlite = DissociationEngine(db, EngineConfig(backend="sqlite")).propagation_score(q)
    assert set(memory) == set(sqlite)
    for answer in memory:
        assert abs(memory[answer] - sqlite[answer]) < 1e-9


@settings(max_examples=40, deadline=None)
@given(query_and_database())
def test_semijoin_reduction_preserves_scores(pair):
    q, db = pair
    engine = DissociationEngine(db)
    plain = engine.propagation_score(q)
    reduced = engine.propagation_score(q, Optimizations(semijoin=True))
    assert plain == reduced


@settings(max_examples=40, deadline=None)
@given(query_and_database())
def test_reduction_preserves_answers(pair):
    q, db = pair
    assert set(lineage_of(q, db).by_answer) == set(
        lineage_of(q, masked_database(q, db)).by_answer
    )


@settings(max_examples=40, deadline=None)
@given(query_and_database())
def test_scores_within_unit_interval(pair):
    q, db = pair
    for score in DissociationEngine(db).propagation_score(q).values():
        assert -1e-12 <= score <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(query_and_database(), st.sampled_from([0.5, 0.2, 0.05]))
def test_proposition_21_error_shrinks_with_scale(pair, factor):
    """Scaling all probabilities down shrinks ρ's relative error."""
    q, db = pair
    engine = DissociationEngine(db)
    exact = engine.exact(q)
    rho = engine.propagation_score(q)
    answers = [a for a in exact if exact[a] > 1e-9]
    if not answers:
        return
    base_error = max(
        (rho[a] - exact[a]) / exact[a] for a in answers
    )

    scaled = db.scaled(factor, include_deterministic=True)
    scaled_engine = DissociationEngine(scaled)
    scaled_exact = scaled_engine.exact(q)
    scaled_rho = scaled_engine.propagation_score(q)
    scaled_answers = [a for a in scaled_exact if scaled_exact[a] > 1e-12]
    if not scaled_answers:
        return
    scaled_error = max(
        (scaled_rho[a] - scaled_exact[a]) / scaled_exact[a]
        for a in scaled_answers
    )
    assert scaled_error <= base_error + 1e-9


@settings(max_examples=30, deadline=None)
@given(query_and_database(max_atoms=2), st.integers(0, 1000))
def test_monte_carlo_unbiasedness_envelope(pair, seed):
    """MC estimates stay within a generous CLT envelope of exact."""
    q, db = pair
    engine = DissociationEngine(db)
    exact = engine.exact(q)
    if not exact:
        return
    estimates = engine.monte_carlo(q, samples=4000, seed=seed)
    for answer, p in exact.items():
        sigma = (p * (1 - p) / 4000) ** 0.5
        assert abs(estimates[answer] - p) <= 6 * sigma + 1e-9


@settings(max_examples=60, deadline=None)
@given(query_and_database(max_atoms=3))
def test_lineage_probability_equals_exact(pair):
    """P(q) = P(F_{q,D}) — grounding then counting matches the engine."""
    q, db = pair
    lineage = lineage_of(q, db)
    engine = DissociationEngine(db)
    exact = engine.exact(q)
    for answer, formula in lineage.by_answer.items():
        assert abs(
            exact_probability(formula, lineage.probabilities)
            - exact[answer]
        ) < 1e-9


# ----------------------------------------------------------------------
# plan templates ≡ no memo
# ----------------------------------------------------------------------
DOMAIN = (1, 2, 3)
#: ``queries()`` alone is unsafe one time in five; these always are
#: (several minimal plans to rebuild, a ``min`` in the merged one).
UNSAFE_BODIES = st.sampled_from(
    [
        parse_query("q() :- R0(x0), R1(x0,x1), R2(x1)"),
        parse_query("q() :- R0(x0,x1), R1(x1,x2), R2(x2,x3)"),
        parse_query("q() :- R0(x0,x1), R1(x1,x2), R2(x2,x3), R3(x3,x0)"),
    ]
)


@st.composite
def same_shape_queries(draw):
    """``(db, first, second, respelled)``: a schema with optional
    deterministic relations and key FDs, a query with constants anywhere
    (repeated across atoms, several in one atom, on determined
    positions, whole atoms of them), and a second query of its shape —
    other constants and, when ``respelled``, renamed variables and
    shuffled atoms."""
    constants = st.sampled_from(DOMAIN).map(Constant)
    atoms = []
    # constants are inserted, not substituted, so the variable structure
    # (and with it the share of unsafe queries) is that of ``queries()``
    for atom in draw(st.one_of(queries(head=False), UNSAFE_BODIES)).atoms:
        terms = list(atom.terms)
        for _ in range(draw(st.integers(0, 4 - len(terms)))):
            terms.insert(draw(st.integers(0, len(terms))), draw(constants))
        atoms.append(Atom(atom.relation, terms))
    if draw(st.integers(0, 3)) == 0:
        all_constant = draw(st.lists(constants, min_size=1, max_size=2))
        atoms.append(Atom(f"R{len(atoms)}", all_constant))
    used = sorted(frozenset().union(*(a.own_variables for a in atoms)))
    head = draw(st.permutations(used))[: draw(st.integers(0, 2))]
    first = ConjunctiveQuery(atoms, head)

    deterministic = frozenset(
        a.relation for a in atoms if draw(st.integers(0, 5)) == 0
    )
    fds = {}
    for atom in atoms:
        if atom.arity >= 2 and draw(st.booleans()):
            key = draw(st.integers(0, atom.arity - 1))
            rest = tuple(i for i in range(atom.arity) if i != key)
            fds[atom.relation] = (ColumnFD((key,), rest),)
    db = random_database_for(
        first,
        random.Random(draw(st.integers(0, 10_000))),
        domain_size=len(DOMAIN),
        deterministic=deterministic,
        fds=fds,
    )

    respelled = draw(st.booleans())
    renaming = {v: v for v in VARIABLES}
    if respelled:
        names = draw(st.sampled_from(["x", "y"]))
        slots = draw(st.permutations(range(len(VARIABLES))))
        renaming = {
            v: Variable(f"{names}{slot}") for v, slot in zip(VARIABLES, slots)
        }
        atoms = draw(st.permutations(atoms))
    second = ConjunctiveQuery(
        [
            Atom(
                atom.relation,
                [
                    renaming[t]
                    if isinstance(t, Variable)
                    else Constant(draw(st.sampled_from(DOMAIN)))
                    for t in atom.terms
                ],
            )
            for atom in atoms
        ],
        [renaming[v] for v in head],
    )
    return db, first, second, respelled


@settings(max_examples=40, deadline=None)
@given(same_shape_queries())
def test_plan_templates_equal_no_memo(case):
    """An engine that has enumerated only ``first`` serves ``second`` —
    same shape — with the plans, counts and scores of an engine that
    memoizes nothing.

    Memory scores are bit-identical when only the constants differ: the
    bound plans then equal a fresh enumeration down to every part and
    branch order. A respelling (other names, other atom order) is served
    in the *first* spelling's orders, as a renamed repeat always was;
    float products taken in another order agree to the last ulp or two.
    """
    db, first, second, respelled = case
    memory_tolerance = 1e-12 if respelled else 0.0
    schema = db.schema
    knowledge = dict(
        deterministic=schema.deterministic_relations,
        fds=schema.fds_by_relation,
    )
    fresh_minimal = minimal_plans(second, **knowledge)
    fresh_single = single_plan(second, **knowledge)
    # what binding by relation name rests on: a scan reads the query's
    # own atom of that relation, nothing else
    for query in (first, second):
        plans = minimal_plans(query, **knowledge)
        for plan in plans + [single_plan(query, **knowledge)]:
            for node in plan.walk():
                if isinstance(node, Scan):
                    own = query.atom(node.atom.relation)
                    assert node.atom == own.without_dissociation()

    for backend, tolerance in (
        ("memory", memory_tolerance),
        ("sqlite", 1e-12),
    ):
        seen = DissociationEngine(db, EngineConfig(backend=backend))
        plain = DissociationEngine(
            db, EngineConfig(backend=backend, plan_memo_size=0)
        )
        try:
            seen.minimal_plans(first)
            seen.single_plan(first)
            assert set(seen.minimal_plans(second)) == set(fresh_minimal)
            assert seen.single_plan(second) == fresh_single
            for opts in ALL_OPTIMIZATION_COMBOS:
                got = seen.evaluate(second, opts)
                want = plain.evaluate(second, opts)
                assert got.plan_count == want.plan_count == len(fresh_minimal)
                assert got.scores.keys() == want.scores.keys()
                for answer, score in want.scores.items():
                    assert abs(got.scores[answer] - score) <= tolerance
            bounds = plain.probability_bounds(second)
            for answer, (low, high) in seen.probability_bounds(second).items():
                assert abs(low - bounds[answer][0]) <= tolerance
                assert abs(high - bounds[answer][1]) <= tolerance
            assert seen.plan_memo_stats()["misses"] == 2
        finally:
            seen.release()
            plain.release()
    # and against the row-at-a-time reference, both backends primed
    assert_backends_agree(second, db, primed_with=first)


# ----------------------------------------------------------------------
# a pinned join order never changes an answer
# ----------------------------------------------------------------------
#: Values of the generated columns stay below these two.
RARE, ABSENT = 7, 99


def _join_body(shape: str, k: int) -> list[Atom]:
    """``k`` atoms: a chain, a star, or a star whose last part shares no
    variable with the rest (a k-ary join that needs a cross product)."""
    x = [Variable(f"x{i}") for i in range(k + 1)]
    if shape == "chain":
        return [Atom(f"R{i}", (x[i - 1], x[i])) for i in range(1, k + 1)]
    atoms = [Atom(f"R{i}", (x[0], x[i])) for i in range(1, k + 1)]
    if shape == "kary":
        atoms[-1] = Atom(f"R{k}", (Variable("y"),))
    return atoms


def _overwrite(rows: list[tuple], column: int, value_of) -> list[tuple]:
    """``rows`` with ``column`` rewritten by ``value_of(i, old)``, deduped."""
    return list(
        dict.fromkeys(
            row[:column] + (value_of(i, row[column]),) + row[column + 1 :]
            for i, row in enumerate(rows)
        )
    )


def skewed_pair(skew: str) -> tuple[list[tuple], list[tuple]]:
    """Two binary tables joining on ``left[1] = right[0]`` whose join the
    containment estimate ``|L|·|R| / max(d)`` misses by more than 10×:
    ``heavy`` puts one value in 50 of 80 rows on both sides (under-
    estimate), ``disjoint`` leaves one shared value (over-estimate)."""
    if skew == "heavy":
        column = [1] * 50 + list(range(50, 80))
        left = [(i + 1, v) for i, v in enumerate(column)]
        right = [(v, i + 1) for i, v in enumerate(column)]
    else:
        left = [(i % 5 + 1, i // 5 + 1) for i in range(25)]
        right = [(i // 5 + 1 + (50 if i else 0), i % 5 + 1) for i in range(25)]
    return left, right


@st.composite
def selective_joins(draw):
    """``(db, query, primer)``: a 3–5 part chain / star / k-ary join with
    a selection constant that is selective, unselective (most rows of
    its column), absent from the database, or one of two in its atom;
    optionally two tables skewed so the estimate is off by ≥ 10×; a
    Boolean, single- or two-variable head. ``primer`` is the same shape
    with other constants."""
    shape = draw(st.sampled_from(["chain", "star", "kary"]))
    kind = draw(st.sampled_from(["selective", "unselective", "absent", "two"]))
    skew = draw(st.sampled_from([None, None, "disjoint", "heavy"]))
    k = 3 if skew == "heavy" else draw(st.integers(3, 5))
    atoms = _join_body(shape, k)
    rng = random.Random(draw(st.integers(0, 10_000)))
    domain = draw(st.integers(3, 6))
    rows = {
        a.relation: sorted(
            {
                tuple(rng.randint(1, domain) for _ in a.terms)
                for _ in range(draw(st.integers(4, 24)))
            }
        )
        for a in atoms
    }
    if skew is not None:
        # R1 and R2 share x1 (chain: R1[1] = R2[0]) or x0 (star: the
        # first column of both, so R1 is the pair's left side mirrored)
        left, right = skewed_pair(skew)
        if shape != "chain":
            left = [row[::-1] for row in left]
        rows["R1"], rows["R2"] = left, right

    anchor = draw(st.integers(0, len(atoms) - 1))
    position = draw(st.integers(0, atoms[anchor].arity - 1))
    relation = atoms[anchor].relation
    value = {"unselective": 1, "absent": ABSENT}.get(kind, RARE)
    if kind == "unselective":
        # every row but the first (which a one-row table cannot spare)
        spare = len(rows[relation]) > 1
        rows[relation] = _overwrite(
            rows[relation],
            position,
            lambda i, old: old + 1 if spare and i == 0 else 1,
        )
        carrying = sum(r[position] == 1 for r in rows[relation])
        assert 2 * carrying >= len(rows[relation])
    elif kind != "absent":
        rows[relation] = _overwrite(
            rows[relation], position, lambda i, old: RARE if i < 2 else old
        )

    def bind(first, second) -> ConjunctiveQuery:
        terms = list(atoms[anchor].terms)
        terms[position] = Constant(first)
        if kind == "two":
            terms.insert(0, Constant(second))
        body = atoms[:anchor] + [Atom(relation, terms)] + atoms[anchor + 1 :]
        used = sorted(frozenset().union(*(a.own_variables for a in body)))
        return ConjunctiveQuery(body, (used[-1:] + used[:-1])[:head_width])

    if kind == "two":
        rows[relation] = [
            ((RARE if i < 3 else rng.randint(1, domain)),) + row
            for i, row in enumerate(rows[relation])
        ]
    head_width = draw(st.integers(0, 2))
    db = ProbabilisticDatabase()
    for name, table in rows.items():
        db.add_table(name, [(row, rng.uniform(0.05, 0.8)) for row in table])
    return db, bind(value, RARE), bind(2, 1)


def test_skewed_pairs_fool_the_estimator():
    """The ``heavy`` / ``disjoint`` tables of :func:`selective_joins`
    really are ≥ 10× off — in one direction each."""
    for skew, direction in (("heavy", 1), ("disjoint", -1)):
        left, right = skewed_pair(skew)
        db = ProbabilisticDatabase()
        db.add_table("R1", [(row, 0.5) for row in left])
        db.add_table("R2", [(row, 0.5) for row in right])
        actual = sum(a[1] == b[0] for a in left for b in right)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        query = parse_query("q(x0,x2) :- R1(x0,x1), R2(x1,x2)")
        [join] = [
            node
            for node in engine.single_plan(query).walk()
            if isinstance(node, Join)
        ]
        estimate = engine.sqlite_executor.plan_estimator()(join).rows
        assert actual >= 1
        assert (actual / estimate) ** direction >= 10, (skew, actual, estimate)
        engine.release()


@settings(max_examples=30, deadline=None)
@given(selective_joins())
def test_pinned_join_order_never_changes_an_answer(case):
    """SQLite — its joins emitted in the estimator's nested-loop order
    and pinned — returns the memory executor's and the row-at-a-time
    reference's answers: same answer sets, scores within 1e-12, under
    all eight optimisation combinations (semi-join mode orders the
    reduced copies by the base tables' statistics), on cold engines and
    on engines that just served another constant of the shape (the
    constant-free views then exist, so joins mix views, CTEs and
    selective scans)."""
    db, query, primer = case
    assert_backends_agree(query, db, tolerance=1e-12)
    assert_backends_agree(query, db, tolerance=1e-12, primed_with=primer)


# ----------------------------------------------------------------------
# Opt. 3 on SQLite ≡ no reduction
# ----------------------------------------------------------------------
@st.composite
def reducible_joins(draw):
    """``(db, query, nulls)``: a :func:`selective_joins` case, optionally
    with two of one atom's variables merged (a repeated variable) and
    with ``NULL`` written into a join column of a few rows."""
    db, query, _ = draw(selective_joins())
    atoms = list(query.atoms)
    if draw(st.booleans()):
        atom = draw(st.sampled_from(atoms))
        own = sorted(atom.own_variables)
        if len(own) >= 2:
            keep, merge = own[0], own[1]
            rename = lambda t: keep if t == merge else t  # noqa: E731
            atoms = [Atom(a.relation, [rename(t) for t in a.terms]) for a in atoms]
            head = dict.fromkeys(rename(v) for v in query.head_order)
            query = ConjunctiveQuery(atoms, list(head))
    nulls = draw(st.booleans())
    if nulls:
        shared = [
            (atom, position)
            for atom in atoms
            for position, term in enumerate(atom.terms)
            if isinstance(term, Variable)
            and any(term in other.own_variables for other in atoms if other != atom)
        ]
        if shared:
            atom, position = draw(st.sampled_from(shared))
            rows = list(db.table(atom.relation))[: draw(st.integers(1, 3))]
            for row, p in rows:
                db.insert(
                    atom.relation, row[:position] + (None,) + row[position + 1 :], p
                )
    return db, query, nulls


@settings(max_examples=30, deadline=None)
@given(reducible_joins())
def test_sqlite_semijoin_equals_no_reduction(case):
    """The reduction changes no score under every optimisation
    combination. The reduced copies change no float beyond 1e-12 against
    SQLite without the reduction and, where no ``NULL`` is stored,
    against the memory executor (which joins ``None`` to ``None``; SQL
    never joins ``NULL``, and neither the reducer's ``NOT EXISTS``
    sweeps). The memory masks change no bit, ``NULL``s included: they
    match rows by code, as the memory join does."""
    db, query, nulls = case
    sqlite = DissociationEngine(db, EngineConfig(backend="sqlite"))
    memory = DissociationEngine(db)
    try:
        for opts in ALL_OPTIMIZATION_COMBOS:
            if not opts.semijoin:
                continue
            got = sqlite.propagation_score(query, opts)
            plain = Optimizations(opts.single_plan, opts.reuse_views)
            _assert_close(got, sqlite.propagation_score(query, plain), 1e-12)
            reduced = memory.propagation_score(query, opts)
            assert reduced == memory.propagation_score(query, plain)
            if not nulls:
                _assert_close(got, reduced, 1e-12)
    finally:
        sqlite.release()


# ----------------------------------------------------------------------
# statement templates ≡ compile per request
# ----------------------------------------------------------------------
MERGED, ALL_PLANS = Optimizations(), Optimizations(single_plan=False)


@st.composite
def request_streams(draw):
    """``(db, requests, respelled)`` over one chain / star / k-ary body
    of 3–5 atoms: one to three *groups* — a choice of one or two
    constant positions, a head (Boolean, one variable, or two in either
    order) and merged-plan or all-plans ``Optimizations`` — and a stream
    of ``(query, opts)`` requests drawn from them, constants repeating
    freely within and across groups (so requests come back, and
    different requests share selection-bearing subplans). ``respelled``
    is a tail of further requests, some under other variable names with
    the atoms reversed."""
    shape = draw(st.sampled_from(["chain", "star", "kary"]))
    atoms = _join_body(shape, draw(st.integers(3, 5)))
    rng = random.Random(draw(st.integers(0, 10_000)))
    # more than eight values a column, so most of them — and every
    # absent one — share the MCV sketch's uniform remainder: requests
    # of one frequency class, which is what a template serves
    domain = draw(st.integers(10, 16))
    db = ProbabilisticDatabase()
    for atom in atoms:
        rows = sorted(
            {
                tuple(rng.randint(1, domain) for _ in atom.terms)
                for _ in range(draw(st.integers(12, 48)))
            }
        )
        db.add_table(
            atom.relation, [(row, rng.uniform(0.05, 0.8)) for row in rows]
        )

    positions = [
        (index, column)
        for index, atom in enumerate(atoms)
        for column in range(atom.arity)
    ]
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        slots = draw(
            st.lists(
                st.sampled_from(positions), min_size=1, max_size=2, unique=True
            )
        )
        body = []
        for index, atom in enumerate(atoms):
            terms = [
                None if (index, column) in slots else term
                for column, term in enumerate(atom.terms)
            ]
            body.append((atom.relation, terms))
        used = sorted(
            {t for _, terms in body for t in terms if t is not None}
        )
        head = draw(st.permutations(used))[: draw(st.integers(0, 2))]
        opts = draw(st.sampled_from([MERGED, MERGED, ALL_PLANS]))
        groups.append((body, head, opts))
    # values 1..domain occur (most of them), the sixteen above do not
    values = range(1, domain + 17)

    def request(spelling: str):
        body, head, opts = draw(st.sampled_from(groups))
        rename = (
            (lambda v: v)
            if spelling == "first"
            else (lambda v: Variable("other_" + v.name))
        )
        # the seed's choice, not hypothesis's: it would send the same
        # few constants again and again
        atoms_ = [
            Atom(
                relation,
                [
                    Constant(rng.choice(values))
                    if term is None
                    else rename(term)
                    for term in terms
                ],
            )
            for relation, terms in body
        ]
        if spelling != "first":
            atoms_.reverse()
        return ConjunctiveQuery(atoms_, [rename(v) for v in head]), opts

    requests = [
        request("first") for _ in range(draw(st.integers(8, 40)))
    ]
    respelled = [
        request(draw(st.sampled_from(["first", "other"])))
        for _ in range(draw(st.integers(0, 8)))
    ]
    return db, requests, respelled


def _connection_state(engine) -> tuple:
    [(objects,)] = engine.sqlite.execute(
        "SELECT count(*) FROM sqlite_temp_master"
    )
    views = engine.cache_stats()
    return objects, views["size"], views["hits"], views["misses"]


@settings(max_examples=40, deadline=None)
@given(request_streams())
def test_statement_templates_equal_compile_per_request(case):
    """A templated SQLite engine and one with ``plan_memo_size=0`` (no
    shape identity, so every request is compiled) over one stream.

    While every request is in its shape's first spelling the two agree
    to the bit and to the byte — scores, ``result.sql`` (DDL included) —
    leave the same objects on their connections and touch their view
    registries alike after every request, repeated and shared constants
    included: no selection-bearing subplan is ever materialized.
    Respelled requests are served by the text of whichever spelling
    filled the template and agree within 1e-12, like everything after
    them. No executed or reported text ever holds an unbound
    placeholder.
    """
    db, requests, respelled = case
    templated = DissociationEngine(db, EngineConfig(backend="sqlite"))
    plain = DissociationEngine(
        db, EngineConfig(backend="sqlite", plan_memo_size=0)
    )
    memory = DissociationEngine(db)
    executed: list[str] = []
    templated.sqlite.connection.set_trace_callback(executed.append)
    try:
        for query, opts in requests:
            got = templated.evaluate(query, opts)
            want = plain.evaluate(query, opts)
            assert got.plan_count == want.plan_count
            assert got.scores == want.scores, (query, opts)
            assert got.sql == want.sql, (query, opts)
            assert _connection_state(templated) == _connection_state(
                plain
            ), (query, opts)
            _assert_close(got.scores, memory.evaluate(query, opts).scores, 1e-12)
            assert ":k" not in got.sql and "\x00" not in got.sql
        for query, opts in respelled:
            got = templated.evaluate(query, opts)
            _assert_close(got.scores, plain.evaluate(query, opts).scores, 1e-12)
            _assert_close(got.scores, memory.evaluate(query, opts).scores, 1e-12)
        # sqlite3 traces statements with their parameters expanded: a
        # placeholder left in one was never bound
        assert not [text for text in executed if ":k" in text]
        stats = templated.statement_stats()
        assert stats["hits"] + stats["misses"] == len(requests) + len(respelled)
        assert plain.statement_stats()["misses"] == 0
    finally:
        templated.sqlite.connection.set_trace_callback(None)
        templated.release()
        plain.release()


def _assert_close(got: dict, want: dict, tolerance: float) -> None:
    assert got.keys() == want.keys()
    for answer, score in want.items():
        assert abs(got[answer] - score) <= tolerance, (answer, got[answer], score)
