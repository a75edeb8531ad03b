"""k-star workload (Setup 2 of Sec. 5).

Query shape::

    q('a') :- R1('a', x1), R2(x2), ..., Rk(xk), R0(x1, ..., xk)

The satellite tables ``R2..Rk`` are unary, ``R1`` anchors the constant
``'a'``, and the hub ``R0`` has arity ``k``. The query is Boolean (the
head constant selects one group); the paper tunes the domain size ``N`` so
the answer probability lands between 0.90 and 0.95.
"""

from __future__ import annotations

import random

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.symbols import Constant, Variable
from ..db.database import ProbabilisticDatabase
from ..db.generators import random_table_rows, uniform_probabilities

__all__ = ["star_query", "star_database", "star_domain_size"]

ANCHOR = "a"


def star_query(k: int) -> ConjunctiveQuery:
    """The k-star query (``k ≥ 1`` satellites plus the hub ``R0``)."""
    if k < 1:
        raise ValueError("star width must be at least 1")
    xs = [Variable(f"x{i}") for i in range(1, k + 1)]
    atoms = [Atom("R1", (Constant(ANCHOR), xs[0]))]
    for i in range(2, k + 1):
        atoms.append(Atom(f"R{i}", (xs[i - 1],)))
    atoms.append(Atom("R0", tuple(xs)))
    return ConjunctiveQuery(atoms, (), name="q")


def star_domain_size(k: int, n_rows: int, coverage: float = 3.0) -> int:
    """Domain size giving each hub column roughly ``coverage``-fold
    coverage by the matching satellite table."""
    return max(2, round(n_rows / coverage))


def star_database(
    k: int,
    n_rows: int,
    domain_size: int | None = None,
    p_max: float = 0.5,
    seed: int | None = None,
    deterministic_tables: frozenset[str] = frozenset(),
) -> ProbabilisticDatabase:
    """A random database instance for the k-star query.

    ``R1`` holds pairs ``('a', v)`` (plus a sprinkle of non-matching
    anchors so the constant selection does real work); ``R2..Rk`` hold
    unary values; ``R0`` holds ``k``-tuples.

    ``n_rows`` caps each table; only ``R0`` reaches it. ``R1`` keeps the
    distinct pairs among ``2 · n_rows`` draws over six anchors ×
    ``domain`` values, which collide, so it falls short (seed 43, k=2:
    76 / 254 / 862 / 2 480 rows at n = 100 / 300 / 1 000 / 3 000). A
    satellite ``R2..Rk`` holds at most ``domain`` distinct values.
    """
    rng = random.Random(seed)
    domain = domain_size or star_domain_size(k, n_rows)
    db = ProbabilisticDatabase()

    def add(name: str, rows: list[tuple]) -> None:
        if name in deterministic_tables:
            db.add_table(name, rows, deterministic=True)
        else:
            db.add_table(name, uniform_probabilities(rng, rows, p_max))

    # distinct rows in draw order: a set's order would follow the
    # string hash, so the rows kept would vary with PYTHONHASHSEED
    anchor_rows = dict.fromkeys(
        (ANCHOR if rng.random() < 0.7 else f"b{rng.randint(1, 5)}", v)
        for v in (
            rng.randint(1, domain) for _ in range(n_rows * 2)
        )
    )
    add("R1", list(anchor_rows)[:n_rows])
    for i in range(2, k + 1):
        add(f"R{i}", [(v,) for v in
                      {rng.randint(1, domain) for _ in range(n_rows * 2)}][:n_rows])
    add("R0", random_table_rows(rng, n_rows, k, domain))
    return db
