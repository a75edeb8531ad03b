"""Exact probability of monotone DNF formulas (the ground-truth engine).

This replaces the paper's use of SampleSearch for computing exact answer
probabilities. The algorithm is a standard weighted-model-counting
recursion specialized to monotone DNFs:

1. simplify (drop impossible variables, strip certain ones, absorb);
2. split into independent components (clauses sharing no variables):
   ``P(F) = 1 − ∏_c (1 − P(F_c))``;
3. otherwise Shannon-expand on the most frequent variable:
   ``P(F) = p·P(F|X=1) + (1−p)·P(F|X=0)``;
4. memoize on the clause set.

Products of three or more factors multiply in value order, so a result
is the same float whatever order a frozenset iterates in, and with it
under any ``PYTHONHASHSEED`` (two factors commute exactly).

Exact, so ground-truth rankings are identical to the paper's. Exponential
in the worst case (the problem is #P-hard), fine for the lineage sizes the
paper uses for ground truth.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from .formula import DNF

__all__ = ["exact_probability", "ExactEvaluator"]

# work-stack task kinds for the iterative Shannon expansion
_EVAL, _COMBINE_SHANNON, _COMBINE_IOR = 0, 1, 2


def exact_probability(
    formula: DNF,
    probabilities: Mapping[Hashable, float],
    use_components: bool = True,
    use_memo: bool = True,
) -> float:
    """``P(F)`` under independent variables with the given marginals.

    ``use_components`` / ``use_memo`` exist for the ablation benchmark.
    There is no separate read-once path. On a read-once formula (the
    tractable data-level cases of Sen et al. / Roy et al.) the component
    split is the factorization's independent-or, and a variable common
    to every clause is the most frequent one, so expanding on it leaves
    a false negative cofactor.
    """
    return ExactEvaluator(
        probabilities, use_components=use_components, use_memo=use_memo
    ).probability(formula)


class ExactEvaluator:
    """Reusable evaluator sharing a memo table across many formulas.

    Sharing pays off when evaluating all answers of one query: answers
    often share sub-formulas (common join partners).
    """

    def __init__(
        self,
        probabilities: Mapping[Hashable, float],
        use_components: bool = True,
        use_memo: bool = True,
    ) -> None:
        self._p = probabilities
        self._use_components = use_components
        self._use_memo = use_memo
        self._memo: dict[frozenset[frozenset], float] = {}
        # clause -> the product of its variables' marginals
        self._products: dict[frozenset, float] = {}

    def probability(self, formula: DNF) -> float:
        clauses = self._simplify(formula)
        if clauses is True:
            return 1.0
        if not clauses:
            return 0.0
        return self._prob(frozenset(clauses))

    # ------------------------------------------------------------------
    def _simplify(self, formula: DNF):
        """Apply certain/impossible variables, then absorption.

        Returns ``True`` for a tautology or a list of clauses.
        """
        out: list[frozenset] = []
        for clause in formula:
            stripped = []
            dead = False
            for v in clause:
                p = self._p.get(v, 0.0)
                if p >= 1.0:
                    continue  # certain variable: drop from clause
                if p <= 0.0:
                    dead = True  # impossible variable: clause never fires
                    break
                stripped.append(v)
            if dead:
                continue
            if not stripped:
                return True
            out.append(frozenset(stripped))
        return DNF(out).absorb().clauses

    # ------------------------------------------------------------------
    def _prob(self, root: frozenset[frozenset]) -> float:
        """Evaluate the expansion with an explicit work stack.

        The recursion depth of Shannon expansion grows with the number of
        distinct variables, which used to force a global (and never
        restored) ``sys.setrecursionlimit``; the explicit stack removes
        both the limit mutation and the Python call overhead per step.
        Each task is either an ``_EVAL`` of a clause set or a combine
        step that pops its children's values off ``values``.
        """
        memo = self._memo if self._use_memo else None
        tasks: list[tuple[int, frozenset[frozenset], float | int]] = [
            (_EVAL, root, 0)
        ]
        values: list[float] = []
        while tasks:
            kind, clauses, extra = tasks.pop()
            if kind == _EVAL:
                if not clauses:
                    values.append(0.0)
                    continue
                if any(not c for c in clauses):
                    values.append(1.0)
                    continue
                if len(clauses) == 1:
                    (clause,) = clauses
                    value = self._products.get(clause)
                    if value is None:
                        value = _product([self._p[v] for v in clause])
                        self._products[clause] = value
                    values.append(value)
                    continue
                if memo is not None:
                    cached = memo.get(clauses)
                    if cached is not None:
                        values.append(cached)
                        continue
                if self._use_components:
                    components = _components(clauses)
                    if len(components) > 1:
                        tasks.append((_COMBINE_IOR, clauses, len(components)))
                        for comp in components:
                            tasks.append((_EVAL, comp, 0))
                        continue
                pivot = _most_frequent_variable(clauses)
                tasks.append((_COMBINE_SHANNON, clauses, self._p[pivot]))
                tasks.append((_EVAL, _condition(clauses, pivot, True), 0))
                tasks.append((_EVAL, _condition(clauses, pivot, False), 0))
                continue
            if kind == _COMBINE_SHANNON:
                # LIFO: the positive cofactor was evaluated last
                pos = values.pop()
                neg = values.pop()
                p = extra
                value = p * pos + (1.0 - p) * neg
            else:  # _COMBINE_IOR over independent components
                value = 1.0 - _product(
                    [1.0 - values.pop() for _ in range(extra)]
                )
            if memo is not None:
                memo[clauses] = value
            values.append(value)
        return values[-1]


def _product(factors: list[float]) -> float:
    """``∏ factors``, in value order when the order could show."""
    if len(factors) > 2:
        factors.sort()
    value = 1.0
    for factor in factors:
        value *= factor
    return value


def _components(clauses: frozenset[frozenset]) -> list[frozenset[frozenset]]:
    """Partition clauses into variable-disjoint groups (union-find)."""
    clause_list = list(clauses)
    parent = list(range(len(clause_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[Hashable, int] = {}
    for i, clause in enumerate(clause_list):
        for v in clause:
            if v in owner:
                ri, rj = find(i), find(owner[v])
                if ri != rj:
                    parent[rj] = ri
            else:
                owner[v] = i
    groups: dict[int, list[frozenset]] = {}
    for i, clause in enumerate(clause_list):
        groups.setdefault(find(i), []).append(clause)
    return [frozenset(g) for g in groups.values()]


def _most_frequent_variable(clauses: frozenset[frozenset]) -> Hashable:
    counts: dict[Hashable, int] = {}
    for clause in clauses:
        for v in clause:
            counts[v] = counts.get(v, 0) + 1
    # deterministic tie-break by repr for reproducibility
    return max(counts, key=lambda v: (counts[v], repr(v)))


def _condition(
    clauses: frozenset[frozenset], variable: Hashable, value: bool
) -> frozenset[frozenset]:
    """The cofactor of the absorbed DNF ``clauses``, absorbed again.

    Only a clause that lost the pivot can absorb another, and only one
    that kept its form can be absorbed, so only those pairs are tested.
    """
    out: set[frozenset] = set()
    reduced: set[frozenset] = set()
    for clause in clauses:  # in order: it steers the rounding downstream
        if variable not in clause:
            out.add(clause)
        elif value:
            shorter = clause - {variable}
            reduced.add(shorter)
            out.add(shorter)
    if value:
        # ``c > r``: ``r`` absorbs ``c``; ``map`` keeps the scan in C
        minimal = [
            c for c in out if c in reduced or not any(map(c.__gt__, reduced))
        ]
        return frozenset(minimal)
    return frozenset(out)
