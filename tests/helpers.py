"""Shared test utilities: random queries, random databases, comparisons,
and the cross-backend differential harness.

Used both by plain unit tests and by the hypothesis strategies in the
property-based suites.
"""

from __future__ import annotations

import itertools
import os
import random
from typing import Mapping, Sequence

from repro.api import EngineConfig, Session
from repro.core import Atom, ConjunctiveQuery, Variable
from repro.core.fds import ColumnFD
from repro.core.minplans import minimal_plans
from repro.core.singleplan import single_plan
from repro.db import ProbabilisticDatabase
from repro.engine import (
    DissociationEngine,
    EvaluationCache,
    Optimizations,
    plan_scores_reference,
    semijoin_masks,
)

__all__ = [
    "ALL_OPTIMIZATION_COMBOS",
    "random_query",
    "random_database_for",
    "boolean",
    "close",
    "assert_scores_close",
    "reference_scores",
    "masked_database",
    "assert_backends_agree",
]

#: Every combination of the three Sec. 4 optimizations.
ALL_OPTIMIZATION_COMBOS = tuple(
    Optimizations(single_plan=sp, reuse_views=rv, semijoin=sj)
    for sp, rv, sj in itertools.product((False, True), repeat=3)
)


def boolean(query: ConjunctiveQuery) -> ConjunctiveQuery:
    return query.with_head(())


def random_query(
    rng: random.Random,
    max_atoms: int = 4,
    max_vars: int = 4,
    max_arity: int = 3,
    head_vars: int = 0,
) -> ConjunctiveQuery:
    """A random connected-or-not self-join-free query.

    Every variable is used at least once; atoms draw 1..max_arity variables
    with replacement (repeated variables within an atom are allowed).
    """
    n_atoms = rng.randint(1, max_atoms)
    n_vars = rng.randint(1, max_vars)
    variables = [Variable(f"x{i}") for i in range(n_vars)]
    atoms = []
    for i in range(n_atoms):
        arity = rng.randint(1, max_arity)
        terms = tuple(rng.choice(variables) for _ in range(arity))
        atoms.append(Atom(f"R{i}", terms))
    # ensure every variable occurs somewhere: retarget unused ones
    used = set().union(*(a.own_variables for a in atoms))
    variables = [v for v in variables if v in used]
    if not variables:
        variables = sorted(used) or [Variable("x0")]
    head = tuple(
        rng.sample(variables, min(head_vars, len(variables)))
        if head_vars
        else ()
    )
    return ConjunctiveQuery(atoms, head)


def random_database_for(
    query: ConjunctiveQuery,
    rng: random.Random,
    domain_size: int = 3,
    fill: float = 0.7,
    p_max: float = 0.8,
    deterministic: frozenset[str] = frozenset(),
    fds: Mapping[str, Sequence[ColumnFD]] | None = None,
) -> ProbabilisticDatabase:
    """A small random instance covering the query's relations.

    Each relation gets each tuple of ``{1..domain}^arity`` independently
    with probability ``fill``, carrying a random marginal in
    ``(0, p_max]``. Relations named in ``fds`` declare those FDs and
    keep only rows that satisfy them (the first row per left-hand side).
    """
    fds = fds or {}
    db = ProbabilisticDatabase()
    for atom in query.atoms:
        arity = atom.arity
        rows = []
        for idx in range(domain_size**arity):
            if rng.random() > fill:
                continue
            digits = []
            x = idx
            for _ in range(arity):
                x, d = divmod(x, domain_size)
                digits.append(d + 1)
            rows.append(tuple(digits))
        if not rows:
            rows = [tuple(1 for _ in range(arity))]
        table_fds = tuple(fds.get(atom.relation, ()))
        for fd in table_fds:
            kept: dict[tuple, tuple] = {}
            for row in rows:
                kept.setdefault(tuple(row[i] for i in fd.lhs), row)
            rows = list(kept.values())
        if atom.relation in deterministic:
            db.add_table(
                atom.relation,
                rows,
                deterministic=True,
                fds=table_fds,
                arity=arity,
            )
        else:
            db.add_table(
                atom.relation,
                [(r, rng.uniform(0.05, p_max)) for r in rows],
                fds=table_fds,
                arity=arity,
            )
    return db


def reference_scores(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    opts: Optimizations,
    use_schema_knowledge: bool = True,
) -> dict[tuple, float]:
    """The seed row-at-a-time evaluator run through the engine pipeline.

    Mirrors ``DissociationEngine.evaluate`` (plan enumeration, Opt. 1
    merging, min-combining in "all plans" mode) but scores every plan
    with :func:`plan_scores_reference` — the oracle the differential
    harness compares both real backends against. Opt.-3 requests are
    scored on the *unreduced* database: the oracle checks that the
    reduction changes no score instead of running the reducer under test.
    """
    if use_schema_knowledge:
        schema = db.schema
        deterministic = schema.deterministic_relations
        fds = schema.fds_by_relation
    else:
        deterministic, fds = frozenset(), {}
    if opts.single_plan:
        merged = single_plan(query, deterministic=deterministic, fds=fds)
        return plan_scores_reference(merged, query, db)
    combined: dict[tuple, float] = {}
    for plan in minimal_plans(query, deterministic=deterministic, fds=fds):
        scored = plan_scores_reference(plan, query, db)
        for answer, score in scored.items():
            if answer not in combined or score < combined[answer]:
                combined[answer] = score
    return combined


def masked_database(
    query: ConjunctiveQuery, db: ProbabilisticDatabase
) -> ProbabilisticDatabase:
    """The relations of ``query`` cut to the rows its Opt.-3 masks keep."""
    masks = semijoin_masks(query, EvaluationCache(db))
    out = ProbabilisticDatabase()
    for relation, mask in masks.items():
        table = db.table(relation)
        schema = table.schema
        out.add_table(
            relation,
            [pair for pair, keep in zip(table, mask) if keep],
            deterministic=schema.deterministic,
            columns=schema.columns,
            fds=schema.fds,
            arity=schema.arity,
        )
    return out


def assert_backends_agree(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    combos: tuple[Optimizations, ...] = ALL_OPTIMIZATION_COMBOS,
    tolerance: float = 1e-9,
    use_schema_knowledge: bool = True,
    cache_size: int | None = EngineConfig().cache_size,
    compare_facade: bool = False,
    primed_with: ConjunctiveQuery | None = None,
) -> dict[tuple, float]:
    """Differential harness: reference vs columnar vs SQLite.

    Runs the seed reference pipeline, the columnar memory engine, and
    the SQLite engine on ``(query, db)`` under every ``Optimizations``
    combination in ``combos`` and asserts that all scores agree within
    ``tolerance``. The two engines persist across combinations, so
    cross-query cache and temp-view-registry reuse is exercised too.
    Returns the reference scores of the last combination.

    With ``compare_facade`` a ``repro.connect()`` :class:`Session` per
    backend (same config) evaluates every combination too, and its
    scores must be **bit identical** to the direct engine's — the
    facade adds routing and a result cache, never arithmetic. Each
    combo is queried twice, so the second call exercises the result
    cache's snapshot path as well.

    With ``primed_with`` both engines enumerate that query's plans
    first and evaluate it ahead of ``query`` under every combination —
    when it has ``query``'s shape, ``query`` is then served from its
    plan templates and joins the views, statistics and request history
    the primer left behind, while the reference enumerates afresh.
    """
    memory_config = EngineConfig(
        use_schema_knowledge=use_schema_knowledge, cache_size=cache_size
    )
    sqlite_config = EngineConfig(
        backend="sqlite",
        use_schema_knowledge=use_schema_knowledge,
        cache_size=cache_size,
    )
    memory = DissociationEngine(db, memory_config)
    sqlite = DissociationEngine(db, sqlite_config)
    if primed_with is not None:
        for engine in (memory, sqlite):
            engine.minimal_plans(primed_with)
            engine.single_plan(primed_with)
    sessions: list[Session] = []
    if compare_facade:
        sessions = [
            Session(db, memory_config),
            Session(db, sqlite_config),
        ]
    reference: dict[tuple, float] = {}
    try:
        for opts in combos:
            reference = reference_scores(
                query, db, opts, use_schema_knowledge=use_schema_knowledge
            )
            direct_scores: dict[str, dict[tuple, float]] = {}
            for engine in (memory, sqlite):
                if primed_with is not None:
                    engine.propagation_score(primed_with, opts)
                got = engine.propagation_score(query, opts)
                direct_scores[engine.backend] = got
                context = f"{engine.backend} backend, {opts}, {query}"
                assert set(got) == set(reference), (
                    f"{context}: answer sets differ: "
                    f"{set(got) ^ set(reference)}"
                )
                for answer in reference:
                    assert close(got[answer], reference[answer], tolerance), (
                        f"{context}: {answer}: "
                        f"{got[answer]} != {reference[answer]}"
                    )
            for answer, score in direct_scores["memory"].items():
                assert close(direct_scores["sqlite"][answer], score, tolerance), (
                    f"sqlite vs memory, {opts}, {query}: {answer}: "
                    f"{direct_scores['sqlite'][answer]} != {score}"
                )
            for engine, session in zip((memory, sqlite), sessions):
                direct = direct_scores[engine.backend]
                context = f"{engine.backend} facade, {opts}, {query}"
                for via in (
                    session.query(query, opts).scores(),  # cache miss
                    session.query(query, opts).scores(),  # cache hit
                ):
                    assert via == direct, (
                        f"facade diverges from the direct engine "
                        f"(must be bit-identical): {context}: "
                        f"{ {k: (via.get(k), direct.get(k)) for k in set(via) | set(direct) if via.get(k) != direct.get(k)} }"
                    )
    finally:
        for session in sessions:
            session.close()
    return reference


def shm_segments() -> set[str]:
    """Names of this package's shared-memory segments alive right now."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}


def close(a: float, b: float, tolerance: float = 1e-9) -> bool:
    return abs(a - b) <= tolerance


def assert_scores_close(
    left: dict[tuple, float],
    right: dict[tuple, float],
    tolerance: float = 1e-9,
) -> None:
    assert set(left) == set(right), (
        f"answer sets differ: {set(left) ^ set(right)}"
    )
    for answer in left:
        assert close(left[answer], right[answer], tolerance), (
            f"{answer}: {left[answer]} != {right[answer]}"
        )
