"""Query plans with extensional (score) semantics (Definitions 4 and 5).

A plan is one of:

* :class:`Scan` — a relational atom ``R_i(x)``;
* :class:`Project` — ``π_x P`` with duplicate elimination; under the
  extensional semantics the scores of duplicate-eliminated tuples combine
  with *independent-or*: ``1 − ∏(1 − s_i)``;
* :class:`Join` — k-ary natural join ``⋈[P1, ..., Pk]``; scores multiply;
* :class:`MinPlan` — the ``min`` operator of Optimization 1 (Sec. 4.1): all
  children compute the same subquery (same atoms, same head variables) and
  per output tuple the minimum score is retained. ``min`` is not part of the
  paper's Definition 4 grammar but every min-free projection of the plan is,
  so the upper-bound guarantee (Cor. 19) carries over tuple-wise.

A plan is *safe* (Definition 5) iff for every join all children have the
same head variables. Safe plans compute the exact query probability
(Proposition 6); unsafe plans compute an upper bound (Corollary 19).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .atoms import Atom
from .query import ConjunctiveQuery
from .symbols import Constant, Variable

__all__ = ["Plan", "Scan", "Project", "Join", "MinPlan", "plan_signature"]


class Plan:
    """Abstract base class of plan nodes."""

    __slots__ = ()

    @property
    def head_variables(self) -> frozenset[Variable]:
        """``HVar(P)``: the variables of the tuples this plan produces."""
        raise NotImplementedError

    def children(self) -> tuple["Plan", ...]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def atoms(self) -> tuple[Atom, ...]:
        """All atoms mentioned in the plan, in scan order."""
        out: list[Atom] = []
        self._collect_atoms(out)
        return tuple(out)

    def _collect_atoms(self, out: list[Atom]) -> None:
        for child in self.children():
            child._collect_atoms(out)

    def relations(self) -> frozenset[str]:
        """The relation names the plan scans.

        The plan's epoch-vector footprint: a memoized result of this
        plan stays valid exactly while none of these relations' table
        epochs move. Composed from the children's and kept on the node
        (plans are immutable).
        """
        if self._relations is None:
            self._relations = frozenset().union(
                *(child.relations() for child in self.children())
            )
        return self._relations

    def selective(self) -> bool:
        """Whether a selection constant sits beneath this node.

        Algorithm 3's ``selective``: such a result belongs to one
        binding of the query's parameters, so no later request of
        another binding reads it. Composed from the children's and kept
        on the node.
        """
        if self._selective is None:
            self._selective = any(
                child.selective() for child in self.children()
            )
        return self._selective

    def query(self, name: str = "q") -> ConjunctiveQuery:
        """The query ``q_P`` this plan represents (Def. 4)."""
        return ConjunctiveQuery(self.atoms(), self.head_variables, name=name)

    def is_safe(self, head: "frozenset[Variable] | None" = None) -> bool:
        """Definition 5: every join's children share the same head variables.

        ``head`` — the query's head (free) variables — act as constants and
        are ignored in the comparison (the paper's safe plan for
        ``q1(z) :- R(z,x), S(x,y), K(x,y)`` joins ``R(z,x)`` with
        ``π_x(S ⋈ K)``, differing only on the head variable ``z``).
        Defaults to this plan's own head variables.
        """
        if head is None:
            head = self.head_variables
        for node in self.walk():
            if isinstance(node, Join):
                heads = {
                    child.head_variables - head for child in node.children()
                }
                if len(heads) > 1:
                    return False
        return True

    def walk(self) -> Iterator["Plan"]:
        """Pre-order traversal of all plan nodes."""
        yield self
        for child in self.children():
            yield from child.walk()

    def count_nodes(self) -> int:
        return sum(1 for _ in self.walk())

    def contains_min(self) -> bool:
        return any(isinstance(node, MinPlan) for node in self.walk())

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the plan tree."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s})"


def _varset_str(variables: frozenset[Variable]) -> str:
    return ",".join(sorted(v.name for v in variables))


class Scan(Plan):
    """Leaf node: read a relation ``R_i(x)``.

    The scan always reads the *original* relation (``atom.without_
    dissociation()``); dissociation variables on the atom are structural
    metadata only and never materialized (Theorem 18).
    """

    __slots__ = ("atom", "_hash", "_relations", "_selective")

    def __init__(self, atom: Atom) -> None:
        self.atom = atom
        self._hash: int | None = None
        self._relations: frozenset[str] | None = None
        self._selective: bool | None = None

    @property
    def head_variables(self) -> frozenset[Variable]:
        return self.atom.own_variables

    def children(self) -> tuple[Plan, ...]:
        return ()

    def _collect_atoms(self, out: list[Atom]) -> None:
        out.append(self.atom)

    def relations(self) -> frozenset[str]:
        if self._relations is None:
            self._relations = frozenset((self.atom.relation,))
        return self._relations

    def selective(self) -> bool:
        if self._selective is None:
            self._selective = any(
                isinstance(term, Constant) for term in self.atom.terms
            )
        return self._selective

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + str(self.atom.without_dissociation())

    def __str__(self) -> str:
        return str(self.atom.without_dissociation())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Scan)
            and hash(self) == hash(other)
            and self.atom == other.atom
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("Scan", self.atom))
        return self._hash


class Project(Plan):
    """Independent project ``π_x P`` (duplicate elimination).

    ``head`` is the set of variables *retained*. The extensional score of an
    output tuple with inputs ``s_1..s_n`` is ``1 − ∏(1 − s_i)``.
    """

    __slots__ = ("head", "child", "_hash", "_relations", "_selective")

    def __init__(self, head: Sequence[Variable] | frozenset[Variable], child: Plan) -> None:
        self.head = frozenset(head)
        self.child = child
        self._hash: int | None = None
        self._relations: frozenset[str] | None = None
        self._selective: bool | None = None
        extra = self.head - child.head_variables
        if extra:
            raise ValueError(
                f"projection keeps variables {sorted(v.name for v in extra)} "
                "not produced by its child"
            )

    @property
    def head_variables(self) -> frozenset[Variable]:
        return self.head

    @property
    def projected_away(self) -> frozenset[Variable]:
        """The variables removed by this projection (``−y`` notation)."""
        return self.child.head_variables - self.head

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        away = _varset_str(self.projected_away)
        return f"{pad}π[-{away}]\n{self.child.pretty(indent + 1)}"

    def __str__(self) -> str:
        away = _varset_str(self.projected_away)
        return f"π[-{away}]({self.child})"

    def __eq__(self, other: object) -> bool:
        # cached-hash short-circuit: deep structural comparison only runs
        # for equal hashes, keeping DAG-wide cache lookups near-linear
        if self is other:
            return True
        return (
            isinstance(other, Project)
            and hash(self) == hash(other)
            and self.head == other.head
            and self.child == other.child
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("Project", self.head, self.child))
        return self._hash


class Join(Plan):
    """k-ary natural join ``⋈[P1, ..., Pk]``; scores multiply.

    Join order is immaterial (Def. 4): equality and hashing treat children
    as a multiset.
    """

    __slots__ = ("parts", "_head", "_hash", "_relations", "_selective")

    def __init__(self, parts: Sequence[Plan]) -> None:
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("a join needs at least two children")
        self.parts = parts
        self._head = frozenset().union(*(p.head_variables for p in parts))
        self._hash: int | None = None
        self._relations: frozenset[str] | None = None
        self._selective: bool | None = None

    @property
    def head_variables(self) -> frozenset[Variable]:
        return self._head

    def children(self) -> tuple[Plan, ...]:
        return self.parts

    @property
    def join_variables(self) -> frozenset[Variable]:
        """``JVar``: the union of children's head variables (= own head)."""
        return self.head_variables

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        inner = "\n".join(p.pretty(indent + 1) for p in self.parts)
        return f"{pad}⋈\n{inner}"

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.parts)
        return f"⋈[{inner}]"

    def _key(self) -> frozenset:
        # children as a multiset: count duplicates (cannot occur for
        # self-join-free queries, but keep equality principled)
        counts: dict[Plan, int] = {}
        for p in self.parts:
            counts[p] = counts.get(p, 0) + 1
        return frozenset(counts.items())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Join)
            and hash(self) == hash(other)
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("Join", self._key()))
        return self._hash


class MinPlan(Plan):
    """Per-tuple minimum over alternative subplans (Optimization 1).

    All children compute the same logical subquery, so they produce the same
    set of tuples; only the scores differ. Per tuple the minimum score is
    kept, yielding the tightest of the children's upper bounds.
    """

    __slots__ = ("parts", "_hash", "_relations", "_selective")

    def __init__(self, parts: Sequence[Plan]) -> None:
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("min needs at least two children")
        heads = {p.head_variables for p in parts}
        if len(heads) != 1:
            raise ValueError("min children must share the same head variables")
        relations = {p.relations() for p in parts}
        if len(relations) != 1:
            raise ValueError("min children must cover the same relations")
        self.parts = parts
        self._hash: int | None = None
        self._relations: frozenset[str] = relations.pop()
        self._selective: bool | None = None

    @property
    def head_variables(self) -> frozenset[Variable]:
        return self.parts[0].head_variables

    def children(self) -> tuple[Plan, ...]:
        return self.parts

    def _collect_atoms(self, out: list[Atom]) -> None:
        # All children mention the same atoms; collect from the first only
        # so that Plan.query() remains well-formed (self-join-free).
        self.parts[0]._collect_atoms(out)

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        inner = "\n".join(p.pretty(indent + 1) for p in self.parts)
        return f"{pad}min\n{inner}"

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.parts)
        return f"min[{inner}]"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, MinPlan)
            and hash(self) == hash(other)
            and frozenset(self.parts) == frozenset(other.parts)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("MinPlan", frozenset(self.parts)))
        return self._hash


def strip_dissociation(plan: Plan) -> Plan:
    """Rebuild a plan with all atom-level dissociation metadata removed.

    Plans constructed from a dissociated query (the FD chase, or
    ``plan_for`` on an explicit dissociation) scan original relations
    anyway; stripping makes them structurally equal to plans built from
    the plain query. Shared nodes stay shared (memo on identity).
    """
    memo: dict[int, Plan] = {}

    def rebuild(node: Plan) -> Plan:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Scan):
            out: Plan = (
                node
                if not node.atom.dissociated
                else Scan(node.atom.without_dissociation())
            )
        elif isinstance(node, Project):
            out = Project(node.head, rebuild(node.child))
        elif isinstance(node, Join):
            out = Join([rebuild(p) for p in node.parts])
        elif isinstance(node, MinPlan):
            # stripping can make alternative branches coincide — deduplicate
            parts: list[Plan] = []
            seen: set[Plan] = set()
            for p in node.parts:
                rebuilt = rebuild(p)
                if rebuilt not in seen:
                    seen.add(rebuilt)
                    parts.append(rebuilt)
            out = parts[0] if len(parts) == 1 else MinPlan(parts)
        else:  # pragma: no cover - sealed hierarchy
            raise TypeError(f"unknown plan node {node!r}")
        memo[id(node)] = out
        return out

    return rebuild(plan)


def plan_signature(plan: Plan) -> tuple[frozenset[str], frozenset[Variable]]:
    """Identity of the *logical* subquery a plan computes.

    Two subplans with the same signature — same relations and same head
    variables — compute the same result table and may share a view
    (Optimization 2, Sec. 4.2).
    """
    return (plan.relations(), plan.head_variables)
