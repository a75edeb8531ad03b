"""Optimization 3: deterministic semi-join reduction (Sec. 4.3).

Before any probabilistic evaluation, each input relation is reduced to the
tuples that can possibly contribute to an answer: a *full reducer* of
pairwise semi-joins iterated to fixpoint (two passes over a join tree
suffice for acyclic queries such as chains, stars and the TPC-H query; the
fixpoint loop also covers cyclic shapes). The expensive probabilistic
group-bys then run over far fewer tuples when the query is selective —
at the price of a constant overhead that does not pay off for
non-selective queries (the trade-off visible in Figs. 5e–5g).

Both backends are served. In memory the reduction only selects rows, so
:func:`semijoin_masks` computes one boolean mask per relation over the
persistent cache's code columns, and the request evaluates in a
:class:`~repro.engine.extensional.Scope` whose scans apply them and
whose memo belongs to the request: nothing is copied or re-encoded.
Rows match by code equality, the columnar join's own semantics (``None``
joins ``None``), so reducing changes no score. On SQLite
:func:`semijoin_statements` produces the SQL script creating reduced
``TEMP`` tables, plus the scan redirection map for the compiler. Either
reduction belongs to one request: nothing derived from it is cached or
reused by another.
"""

from __future__ import annotations

import numpy as np

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.symbols import Constant, Variable
from ..db.sqlite_backend import index_statements, sql_literal
from .extensional import EvaluationCache, _atom_selection, _row_keys

__all__ = ["semijoin_masks", "semijoin_statements", "reduced_name"]


def reduced_name(relation: str) -> str:
    """Physical name of the reduced TEMP copy of ``relation``."""
    return f"_red_{relation}"


# ----------------------------------------------------------------------
# in-memory reducer
# ----------------------------------------------------------------------
def semijoin_masks(
    query: ConjunctiveQuery, cache: EvaluationCache
) -> dict[str, np.ndarray]:
    """One boolean row mask per relation of ``query``, fully reduced.

    The masks index ``cache``'s encoded relations. Constants and repeated
    variables of the query are applied first; then pairwise semi-joins on
    shared variables run until no mask shrinks.
    """
    masks: dict[str, np.ndarray] = {}
    columns: dict[str, dict[Variable, np.ndarray]] = {}
    for atom in query.atoms:
        positions, codes, scores, mask = _atom_selection(atom, cache)
        keep_all = np.ones(len(scores), dtype=bool)
        masks[atom.relation] = keep_all if mask is None else mask
        columns[atom.relation] = {v: codes[i] for v, i in positions.items()}
    pairs = [
        (a.relation, b.relation, sorted(a.own_variables & b.own_variables))
        for a in query.atoms
        for b in query.atoms
        if a is not b and a.own_variables & b.own_variables
    ]
    # Semi-naive fixpoint: a pair only needs re-running when its source
    # relation shrank in the previous round.
    shrunk = set(masks)
    while shrunk:
        previous, shrunk = shrunk, set()
        for target, source, shared in pairs:
            if source not in previous:
                continue
            rows = np.flatnonzero(masks[target])
            matches = np.flatnonzero(masks[source])
            keys, probes = _row_keys(
                cache,
                [
                    (tuple(columns[target][v][rows] for v in shared), rows.size),
                    (tuple(columns[source][v][matches] for v in shared), matches.size),
                ],
            )
            keep = np.isin(keys, probes)
            if not keep.all():
                masks[target] = np.zeros_like(masks[target])
                masks[target][rows[keep]] = True
                shrunk.add(target)
    return masks


# ----------------------------------------------------------------------
# SQL reducer
# ----------------------------------------------------------------------
def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def semijoin_statements(
    query: ConjunctiveQuery,
    schema,
    passes: int = 2,
) -> tuple[list[str], dict[str, str]]:
    """SQL statements creating reduced TEMP tables, and the rename map.

    Each ``_red_<R>`` copy is indexed like a base table right after it
    is created (:func:`~repro.db.sqlite_backend.index_statements`), so
    the ``NOT EXISTS`` probes and the plan's joins over the copies are
    index searches — unindexed, both made Opt. 3 quadratic.

    ``passes`` controls how many rounds of pairwise ``DELETE ... WHERE NOT
    EXISTS`` semi-joins run; two passes fully reduce acyclic queries when
    the pair list is swept forward then backward, which the statement order
    below implements.
    """
    statements: list[str] = []
    names: dict[str, str] = {}
    columns: dict[str, tuple[str, ...]] = {}

    for atom in query.atoms:
        table_schema = schema[atom.relation]
        columns[atom.relation] = table_schema.columns
        target = reduced_name(atom.relation)
        names[atom.relation] = target
        conditions: list[str] = []
        seen: dict[Variable, str] = {}
        for column, term in zip(table_schema.columns, atom.terms):
            if isinstance(term, Constant):
                conditions.append(f"{_q(column)} = {sql_literal(term.value)}")
            elif term in seen:
                conditions.append(f"{_q(column)} = {_q(seen[term])}")
            else:
                seen[term] = column
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        statements.append(f"DROP TABLE IF EXISTS {_q(target)}")
        statements.append(
            f"CREATE TEMP TABLE {_q(target)} AS "
            f"SELECT * FROM {_q(atom.relation)}{where}"
        )
        statements.extend(index_statements(target, table_schema.columns))

    var_columns: dict[str, dict[Variable, str]] = {}
    for atom in query.atoms:
        mapping: dict[Variable, str] = {}
        for column, term in zip(columns[atom.relation], atom.terms):
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = column
        var_columns[atom.relation] = mapping

    pairs: list[tuple[Atom, Atom, list[Variable]]] = []
    atoms = list(query.atoms)
    for i, a in enumerate(atoms):
        for b in atoms[i + 1 :]:
            shared = sorted(a.own_variables & b.own_variables)
            if shared:
                pairs.append((a, b, shared))

    def delete_stmt(target_atom: Atom, source_atom: Atom, shared) -> str:
        target = reduced_name(target_atom.relation)
        source = reduced_name(source_atom.relation)
        conds = " AND ".join(
            f"s.{_q(var_columns[source_atom.relation][v])} = "
            f"{_q(target)}.{_q(var_columns[target_atom.relation][v])}"
            for v in shared
        )
        return (
            f"DELETE FROM {_q(target)} WHERE NOT EXISTS "
            f"(SELECT 1 FROM {_q(source)} s WHERE {conds})"
        )

    for _ in range(passes):
        # forward sweep: reduce b by a; backward sweep: reduce a by b
        for a, b, shared in pairs:
            statements.append(delete_stmt(b, a, shared))
        for a, b, shared in reversed(pairs):
            statements.append(delete_stmt(a, b, shared))
    return statements, names
