"""Canonical structural keys for conjunctive queries.

Two queries that differ only by a bijective variable renaming and/or a
reordering of their body atoms compute the same answers over the same
database. One scan (:func:`canonical_shape`) sorts the atoms on their
(unique, self-join-free) relation names, numbers variables by first
occurrence in that order, and splits what it finds in two:

* the **shape** — relations, variable pattern, dissociation sets and
  head order, with every constant replaced by its index into
* the **constants** — the constant values in scan order.

:func:`query_key` is the pair ``(shape, constants)``: one hashable value
for all spellings of a query. It is what the session API caches on — the
result cache is keyed by ``(query_key, optimizations, config, epoch)``.
The engine's plan memo keys on ``(shape, schema flags)`` alone: plan
enumeration never looks at a constant's value, so all queries of a
shape share one enumeration.

The key deliberately *does* distinguish the declared head order
(``q(x, y)`` vs ``q(y, x)`` produce differently ordered answer tuples)
and ignores the query's display name.

The scan also returns the variable numbering it assigned, which makes
the shape *constructive*: when two queries share a shape, composing one
numbering with the inverse of the other is a variable bijection between
them. :func:`bind_plans` applies such a bijection to plan DAGs and
re-reads the scanned atoms from the target query — the engine uses it
to serve any query of a memoized shape with rebuilt (not re-enumerated)
plans; :func:`rename_plan` is the constants-preserving special case.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .atoms import Atom
from .plans import Join, MinPlan, Plan, Project, Scan
from .query import ConjunctiveQuery
from .symbols import Variable

__all__ = [
    "bind_plans",
    "canonical_form",
    "canonical_shape",
    "query_key",
    "rename_query",
    "rename_plan",
    "schema_flags",
]


def canonical_shape(
    query: ConjunctiveQuery,
) -> tuple[tuple, tuple, dict[Variable, int]]:
    """The one canonical scan: ``(shape, constants, numbering)``.

    ``shape`` is the structural key with every constant replaced by its
    index into ``constants`` (the values in scan order); ``numbering``
    maps every variable of the query to its canonical index. The
    numbering is injective, and it is *rename-invariant by
    construction*: indices are assigned by first occurrence while
    scanning the atoms in relation-name order (relation names are
    unique — the queries are self-join-free — so the scan order itself
    never depends on variable names). Variables that occur only in
    dissociation sets are numbered afterwards, ordered by their
    occurrence signature; variables with equal signatures are mutually
    interchangeable (dissociation sets carry no positions), so the name
    tie-break below cannot make the shape depend on names.

    A query is immutable, so it is scanned once: the result is kept on
    the query object and every later call — result key, plan memo,
    statement template — returns that very tuple (the numbering is
    shared with it: read it, never change it).
    """
    if query._canonical is None:
        query._canonical = _scan(query)
    return query._canonical


def _scan(
    query: ConjunctiveQuery,
) -> tuple[tuple, tuple, dict[Variable, int]]:
    atoms = sorted(query.atoms, key=lambda a: a.relation)
    numbering: dict[Variable, int] = {}
    constants: list = []
    terms_per_atom = []
    for atom in atoms:
        terms = []
        for term in atom.terms:
            if isinstance(term, Variable):
                index = numbering.get(term)
                if index is None:
                    index = numbering[term] = len(numbering)
                terms.append(("v", index))
            else:
                terms.append(("c", len(constants)))
                constants.append(term.value)
        terms_per_atom.append(tuple(terms))
    pending = {
        v for atom in atoms for v in atom.dissociated if v not in numbering
    }
    if pending:

        def signature(v: Variable) -> tuple:
            return tuple(a.relation for a in atoms if v in a.dissociated)

        for v in sorted(pending, key=lambda v: (signature(v), v.name)):
            numbering[v] = len(numbering)
    shape = (
        tuple(
            (
                atom.relation,
                terms,
                tuple(sorted(numbering[v] for v in atom.dissociated)),
            )
            for atom, terms in zip(atoms, terms_per_atom)
        ),
        tuple(numbering[v] for v in query.head_order),
    )
    return shape, tuple(constants), numbering


def canonical_form(
    query: ConjunctiveQuery,
) -> tuple[tuple, dict[Variable, int]]:
    """The canonical key of ``query`` plus the variable numbering behind it.

    ``(key, numbering)`` with ``key = (shape, constants)`` of
    :func:`canonical_shape`: two queries share a key exactly when they
    share a shape *and* carry equal constants in equal positions.
    """
    shape, constants, numbering = canonical_shape(query)
    return (shape, constants), numbering


def query_key(query: ConjunctiveQuery) -> tuple:
    """The canonical structural key of ``query`` (hashable).

    Stable under variable renaming and atom reordering; sensitive to the
    declared head order (answer-column order) and to constants.
    """
    return canonical_form(query)[0]


def _rename_atom(atom: Atom, mapping: Mapping[Variable, Variable]) -> Atom:
    terms = tuple(
        mapping[t] if isinstance(t, Variable) else t for t in atom.terms
    )
    dissociated = frozenset(mapping[v] for v in atom.dissociated)
    return Atom(atom.relation, terms, dissociated)


def rename_query(
    query: ConjunctiveQuery, mapping: Mapping[Variable, Variable]
) -> ConjunctiveQuery:
    """Apply a variable bijection to a query (atom order preserved)."""
    return ConjunctiveQuery(
        tuple(_rename_atom(a, mapping) for a in query.atoms),
        tuple(mapping[v] for v in query.head_order),
        query.name,
    )


def bind_plans(
    plans: Sequence[Plan],
    mapping: Mapping[Variable, Variable],
    query: ConjunctiveQuery | None = None,
) -> list[Plan]:
    """Rebuild plan DAGs over other variables and, given ``query``, over
    its atoms — the one DAG rebuilder.

    ``mapping`` is a variable bijection. With ``query`` every scan reads
    that query's atom of the same relation: queries are self-join-free,
    so the relation name identifies the atom, and a plan enumerated for
    one query of a shape binds to any other query of the shape with no
    placeholder term in between. Without it the scanned atoms are
    renamed in place (a rename is a bind that keeps the constants).

    A node is rebuilt only when something beneath it changed; otherwise
    **the very node passed in is returned**. Every constant-free,
    identically named subplan is therefore one object in the original
    and in each rebuilt plan, and structural caches find it by identity.
    Shared nodes stay shared (one memo on node identity for the whole
    call), and every tuple order inside a plan — join part order, min
    branch order — is preserved, so a rebuilt plan evaluates in exactly
    the same schedule as the original.
    """
    memo: dict[int, Plan] = {}
    renamed = {v for v, to in mapping.items() if v != to}

    def rebuild(node: Plan) -> Plan:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        out = node
        if isinstance(node, Scan):
            if query is None:
                atom = _rename_atom(node.atom, mapping)
            else:
                atom = query.atom(node.atom.relation).without_dissociation()
            if atom != node.atom:
                out = Scan(atom)
        elif isinstance(node, Project):
            # an unchanged child fixes every variable it produces, and
            # the head is a subset of those
            child = rebuild(node.child)
            if child is not node.child:
                head = node.head
                if not renamed.isdisjoint(head):
                    head = frozenset(mapping[v] for v in head)
                out = Project(head, child)
        elif isinstance(node, (Join, MinPlan)):
            parts = [rebuild(p) for p in node.parts]
            if any(new is not old for new, old in zip(parts, node.parts)):
                out = type(node)(parts)
        else:  # pragma: no cover - sealed hierarchy
            raise TypeError(f"unknown plan node {node!r}")
        memo[id(node)] = out
        return out

    return [rebuild(plan) for plan in plans]


def rename_plan(plan: Plan, mapping: Mapping[Variable, Variable]) -> Plan:
    """Apply a variable bijection to a plan DAG (see :func:`bind_plans`)."""
    return bind_plans((plan,), mapping)[0]


def schema_flags(
    query: ConjunctiveQuery,
    deterministic: frozenset[str] | frozenset,
    fds: Mapping,
) -> tuple:
    """A hashable digest of the schema knowledge *relevant to* ``query``.

    Plan enumeration depends only on which of the query's relations are
    deterministic and on their FDs; restricting the memo key to those
    keeps unrelated schema growth from invalidating memoized plans.
    """
    relations = frozenset(a.relation for a in query.atoms)
    return (
        frozenset(relations & frozenset(deterministic)),
        tuple(
            (name, tuple(fds[name]))
            for name in sorted(relations)
            if name in fds and fds[name]
        ),
    )
