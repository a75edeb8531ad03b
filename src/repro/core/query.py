"""Self-join-free conjunctive queries.

A :class:`ConjunctiveQuery` is a set of atoms over distinct relation symbols
plus a set of head (free) variables. All structural notions the paper relies
on live here:

* ``EVar(q)`` — existential variables,
* ``at(x)`` — the set of atoms containing variable ``x``,
* connectivity / connected components with head variables treated as
  constants (the convention of Algorithm 1),
* ``q − x`` — removing a set of variables,
* separator (root) variables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .atoms import Atom
from .symbols import Variable

__all__ = ["ConjunctiveQuery"]


class ConjunctiveQuery:
    """A self-join-free conjunctive query ``q(y) :- a1, ..., am``.

    Parameters
    ----------
    atoms:
        The query body. Relation names must be pairwise distinct
        (self-join-freeness).
    head:
        The head (free) variables. Each must occur in some atom.
    name:
        Optional query name, used only for display.
    """

    __slots__ = (
        "atoms",
        "head",
        "head_order",
        "name",
        "_atom_by_relation",
        "_canonical",
    )

    def __init__(
        self,
        atoms: Sequence[Atom],
        head: Iterable[Variable] = (),
        name: str = "q",
    ) -> None:
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        names = [a.relation for a in atoms]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"self-join detected: repeated relations {dupes}")
        self.atoms: tuple[Atom, ...] = atoms
        ordered: list[Variable] = []
        for v in head:
            if v not in ordered:
                ordered.append(v)
        #: Head variables in user-declared order (answer-tuple column order).
        self.head_order: tuple[Variable, ...] = tuple(ordered)
        self.head: frozenset[Variable] = frozenset(ordered)
        self.name = name
        all_vars = frozenset().union(*(a.variables for a in atoms))
        missing = self.head - all_vars
        if missing:
            raise ValueError(
                f"head variables {sorted(v.name for v in missing)} "
                "do not occur in the body"
            )
        self._atom_by_relation: Mapping[str, Atom] = {
            a.relation: a for a in atoms
        }
        #: :func:`repro.core.canonical.canonical_shape`'s scan of this
        #: (immutable) query, filled by its first call.
        self._canonical: tuple | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def variables(self) -> frozenset[Variable]:
        """``Var(q)``: all variables of the query."""
        return frozenset().union(*(a.variables for a in self.atoms))

    @property
    def existential_variables(self) -> frozenset[Variable]:
        """``EVar(q)``: variables not in the head."""
        return self.variables - self.head

    @property
    def relations(self) -> frozenset[str]:
        """The relation names the query touches.

        The footprint used for per-table epoch vectors: a cached
        result for this query stays valid exactly while none of these
        relations' epochs move.
        """
        return frozenset(self._atom_by_relation)

    def atom(self, relation: str) -> Atom:
        """The unique atom over ``relation`` (KeyError if absent)."""
        return self._atom_by_relation[relation]

    def atoms_containing(self, x: Variable) -> tuple[Atom, ...]:
        """``at(x)``: the atoms whose structural variables include ``x``."""
        return tuple(a for a in self.atoms if x in a.variables)

    def is_boolean(self) -> bool:
        return not self.head

    # ------------------------------------------------------------------
    # structural transformations
    # ------------------------------------------------------------------
    def with_head(self, head: Iterable[Variable]) -> "ConjunctiveQuery":
        """Same body, different head variables."""
        return ConjunctiveQuery(self.atoms, head, self.name)

    def minus(self, drop: Iterable[Variable]) -> "ConjunctiveQuery":
        """``q − x``: remove variables, shrinking atom arities (Sec. 2)."""
        drop = frozenset(drop)
        keep = self.variables - drop
        atoms = tuple(a.restrict(keep) for a in self.atoms)
        head = tuple(v for v in self.head_order if v not in drop)
        return ConjunctiveQuery(atoms, head, self.name)

    def subquery(self, atoms: Sequence[Atom], head: Iterable[Variable]) -> "ConjunctiveQuery":
        """A query over a subset of this query's atoms."""
        return ConjunctiveQuery(atoms, head, self.name)

    # ------------------------------------------------------------------
    # connectivity (head variables treated as constants)
    # ------------------------------------------------------------------
    def connected_components(self) -> list["ConjunctiveQuery"]:
        """Connected components of the body, linked by *existential* vars.

        Two atoms are connected when they share an existential variable;
        head variables act as constants (Algorithm 1's convention). Each
        returned component keeps the head variables it mentions.
        """
        evar = self.existential_variables
        parent: dict[int, int] = {i: i for i in range(len(self.atoms))}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        by_var: dict[Variable, int] = {}
        for i, a in enumerate(self.atoms):
            for v in a.variables:
                if v not in evar:
                    continue
                if v in by_var:
                    union(by_var[v], i)
                else:
                    by_var[v] = i

        groups: dict[int, list[Atom]] = {}
        for i, a in enumerate(self.atoms):
            groups.setdefault(find(i), []).append(a)
        components = []
        for group in groups.values():
            comp_vars = frozenset().union(*(a.variables for a in group))
            head = tuple(v for v in self.head_order if v in comp_vars)
            components.append(ConjunctiveQuery(group, head, self.name))
        # Deterministic order: by first relation name.
        components.sort(key=lambda c: min(a.relation for a in c.atoms))
        return components

    def is_connected(self) -> bool:
        """True iff the body forms one component via existential variables."""
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # separator variables
    # ------------------------------------------------------------------
    def separator_variables(self) -> frozenset[Variable]:
        """``SVar(q)``: existential variables occurring in *every* atom."""
        evar = self.existential_variables
        if not evar:
            return frozenset()
        common = frozenset.intersection(*(a.variables for a in self.atoms))
        return common & evar

    # ------------------------------------------------------------------
    # dissociation helpers
    # ------------------------------------------------------------------
    def dissociate(
        self, delta: Mapping[str, frozenset[Variable]]
    ) -> "ConjunctiveQuery":
        """Apply a dissociation ``∆ = {relation: extra vars}`` (Def. 10).

        Relations absent from ``delta`` keep their current dissociation.
        """
        atoms = tuple(
            a.dissociate(delta.get(a.relation, frozenset())) for a in self.atoms
        )
        return ConjunctiveQuery(atoms, self.head, self.name)

    def without_dissociation(self) -> "ConjunctiveQuery":
        """Drop every atom's dissociation variables."""
        return ConjunctiveQuery(
            tuple(a.without_dissociation() for a in self.atoms),
            self.head,
            self.name,
        )

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and frozenset(self.atoms) == frozenset(other.atoms)
            and self.head == other.head
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.atoms), self.head))

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self!s})"

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head_order)
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.name}({head}) :- {body}"
