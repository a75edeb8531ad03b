"""Relational atoms of conjunctive queries.

An :class:`Atom` is a relation symbol applied to a tuple of terms, e.g.
``S(x, y)`` or ``R1('a', x1)``. Queries in this package are self-join-free,
so every atom in a query has a distinct relation name; the name therefore
doubles as the atom's identity within a query.

Atoms may additionally carry *dissociation variables* — extra existential
variables virtually appended to the relation (the ``y_i`` of Definition 10
in the paper). A dissociated atom ``R^{y}(x, y)`` behaves, for all structural
purposes (hierarchies, connectivity, cut-sets), as if the relation contained
the extra variables, while scans still read the original relation ``R(x)``;
Theorem 18 guarantees the plan score equals the dissociated probability
without materializing the dissociated table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .symbols import Constant, Term, Variable

__all__ = ["Atom"]


class Atom:
    """A relational atom ``R(t1, ..., tn)`` with optional dissociation vars.

    Parameters
    ----------
    relation:
        Name of the relation symbol (unique within a query).
    terms:
        The terms in the relation's positions; variables or constants.
    dissociated:
        Extra variables the atom is (virtually) dissociated on. They must be
        disjoint from the atom's own variables.
    """

    __slots__ = ("relation", "terms", "dissociated", "_own", "_vars")

    def __init__(
        self,
        relation: str,
        terms: Sequence[Term],
        dissociated: Iterable[Variable] = (),
    ) -> None:
        if not relation:
            raise ValueError("relation name must be non-empty")
        self.relation = relation
        self.terms: tuple[Term, ...] = tuple(terms)
        for t in self.terms:
            if not isinstance(t, (Variable, Constant)):
                raise TypeError(f"atom term must be Variable or Constant, got {t!r}")
        own = frozenset(t for t in self.terms if isinstance(t, Variable))
        diss = frozenset(dissociated)
        for v in diss:
            if not isinstance(v, Variable):
                raise TypeError(f"dissociated entries must be Variables, got {v!r}")
        overlap = own & diss
        if overlap:
            raise ValueError(
                f"dissociation variables {sorted(v.name for v in overlap)} "
                f"already occur in atom {relation}"
            )
        self.dissociated: frozenset[Variable] = diss
        self._own: frozenset[Variable] = own
        # All variables the atom *structurally* contains (own + dissociated).
        self._vars: frozenset[Variable] = own | diss

    # ------------------------------------------------------------------
    # variable accessors
    # ------------------------------------------------------------------
    @property
    def own_variables(self) -> frozenset[Variable]:
        """Variables genuinely occurring in the stored relation's columns."""
        return self._own

    @property
    def variables(self) -> frozenset[Variable]:
        """All structural variables: own variables plus dissociated ones."""
        return self._vars

    @property
    def arity(self) -> int:
        return len(self.terms)

    def has_constants(self) -> bool:
        return any(isinstance(t, Constant) for t in self.terms)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def dissociate(self, extra: Iterable[Variable]) -> "Atom":
        """Return a copy of this atom dissociated on additional variables.

        Variables already present (own or dissociated) are ignored, matching
        the convention that ``y_i ⊆ Var(q) − Var(g_i)``.
        """
        new = frozenset(extra) - self._vars
        if not new:
            return self
        return Atom(self.relation, self.terms, self.dissociated | new)

    def without_dissociation(self) -> "Atom":
        """Return the underlying original atom (dissociation dropped)."""
        if not self.dissociated:
            return self
        return Atom(self.relation, self.terms)

    def restrict(self, keep: frozenset[Variable]) -> "Atom":
        """Project the atom's *structural* variable set onto ``keep``.

        Used by ``q − x`` (removing variables from a query): terms whose
        variable is dropped are removed, and the arity shrinks accordingly.
        Constants are always kept.
        """
        terms = tuple(
            t
            for t in self.terms
            if isinstance(t, Constant) or t in keep
        )
        diss = frozenset(v for v in self.dissociated if v in keep)
        return Atom(self.relation, terms, diss)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.relation == other.relation
            and self.terms == other.terms
            and self.dissociated == other.dissociated
        )

    def __hash__(self) -> int:
        return hash((self.relation, self.terms, self.dissociated))

    def __repr__(self) -> str:
        return f"Atom({self!s})"

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        if self.dissociated:
            extra = ",".join(sorted(v.name for v in self.dissociated))
            args_d = ", ".join(
                [str(t) for t in self.terms]
                + [v.name for v in sorted(self.dissociated)]
            )
            return f"{self.relation}^{{{extra}}}({args_d})"
        return f"{self.relation}({args})"
