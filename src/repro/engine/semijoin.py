"""Optimization 3: deterministic semi-join reduction (Sec. 4.3).

Before any probabilistic evaluation, each input relation is reduced to the
tuples that can possibly contribute to an answer: a *full reducer* of
pairwise semi-joins iterated to fixpoint (two passes over a join tree
suffice for acyclic queries such as chains, stars and the TPC-H query; the
fixpoint loop also covers cyclic shapes). The expensive probabilistic
group-bys then run over far fewer tuples when the query is selective —
at the price of a constant overhead that does not pay off for
non-selective queries (the trade-off visible in Figs. 5e–5g).

Both backends are served: :func:`reduce_database` produces a reduced
in-memory database; :func:`semijoin_statements` produces the SQL script
creating reduced ``TEMP`` tables, plus the scan redirection map for the
compiler. Either reduction belongs to one request: nothing derived from
it is cached or reused by another.
"""

from __future__ import annotations

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.symbols import Constant, Variable
from ..db.database import ProbabilisticDatabase, Table
from ..db.schema import TableSchema
from ..db.sqlite_backend import index_statements, sql_literal

__all__ = ["reduce_database", "semijoin_statements", "reduced_name"]


def reduced_name(relation: str) -> str:
    """Physical name of the reduced TEMP copy of ``relation``."""
    return f"_red_{relation}"


def _atom_filters(atom: Atom):
    """Constant checks and repeated-variable groups for one atom."""
    constant_checks: list[tuple[int, object]] = []
    positions: dict[Variable, list[int]] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constant_checks.append((i, term.value))
        else:
            positions.setdefault(term, []).append(i)
    repeat_groups = [ps for ps in positions.values() if len(ps) > 1]
    first_position = {v: ps[0] for v, ps in positions.items()}
    return constant_checks, repeat_groups, first_position


# ----------------------------------------------------------------------
# in-memory reducer
# ----------------------------------------------------------------------
def reduce_database(
    query: ConjunctiveQuery, db: ProbabilisticDatabase
) -> ProbabilisticDatabase:
    """A database containing only the query's relations, fully reduced.

    Constants of the query are applied first; then pairwise semi-joins on
    shared variables run until no table shrinks.
    """
    working: dict[str, dict[tuple, float]] = {}
    filters: dict[str, dict] = {}
    for atom in query.atoms:
        table = db.table(atom.relation)
        checks, repeats, first = _atom_filters(atom)
        rows = {}
        for row, p in table:
            if any(row[i] != value for i, value in checks):
                continue
            if any(row[ps[0]] != row[j] for ps in repeats for j in ps[1:]):
                continue
            rows[row] = p
        working[atom.relation] = rows
        filters[atom.relation] = first

    # Precompute, per ordered pair (a reduced by b), the column positions
    # of the shared variables on both sides — no per-row dict lookups.
    pairs: list[tuple[str, str, tuple[int, ...], tuple[int, ...]]] = []
    for a in query.atoms:
        for b in query.atoms:
            if a.relation == b.relation:
                continue
            shared = sorted(a.own_variables & b.own_variables)
            if shared:
                first_a = filters[a.relation]
                first_b = filters[b.relation]
                pairs.append(
                    (
                        a.relation,
                        b.relation,
                        tuple(first_a[v] for v in shared),
                        tuple(first_b[v] for v in shared),
                    )
                )

    # Semi-naive fixpoint: a pair only needs re-running when its source
    # relation shrank in the previous round.
    shrunk = {atom.relation for atom in query.atoms}
    while shrunk:
        previous, shrunk = shrunk, set()
        for target, source, key_a, key_b in pairs:
            if source not in previous:
                continue
            rows = working[target]
            if len(key_b) == 1:
                (jb,) = key_b
                (ja,) = key_a
                keys = {row[jb] for row in working[source]}
                reduced = {
                    row: p for row, p in rows.items() if row[ja] in keys
                }
            else:
                keys = {
                    tuple(row[j] for j in key_b)
                    for row in working[source]
                }
                reduced = {
                    row: p
                    for row, p in rows.items()
                    if tuple(row[j] for j in key_a) in keys
                }
            if len(reduced) != len(rows):
                working[target] = reduced
                shrunk.add(target)

    reduced = ProbabilisticDatabase()
    for atom in query.atoms:
        original = db.table(atom.relation)
        schema = original.schema
        new_schema = TableSchema(
            schema.name,
            schema.arity,
            schema.columns,
            schema.deterministic,
            schema.fds,
        )
        table = Table(new_schema)
        for row, p in working[atom.relation].items():
            table.insert(row, p)
        reduced._tables[atom.relation] = table  # noqa: SLF001 - same package
    return reduced


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
