"""Same bytes under any ``PYTHONHASHSEED``.

The generators' data, the scores of both executors, the SQL the
SQLite executor runs and exact inference's probabilities must not
depend on Python's string-hash seed: a set of strings iterates in hash
order, and ``hash()`` of a plan is salted per process. One script prints all of them; two interpreters
with different seeds must print the same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DIGEST_SCRIPT = textwrap.dedent(
    """
    import hashlib
    from itertools import product

    from repro.api import EngineConfig
    from repro.engine import DissociationEngine, Optimizations
    from repro.lineage.exact import ExactEvaluator
    from repro.workloads import (
        TPCHParameters, chain_database, chain_query, filtered_instance,
        star_database, star_query, tpch_database, tpch_query,
    )

    def line(label, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(label, digest, "dissoc_" in text)

    def data(db):
        return repr(
            [(t.name, sorted(t.rows.items(), key=repr)) for t in db]
        )

    chain = chain_database(4, 40, seed=7)
    star = star_database(2, 60, seed=3)
    line("data chain", data(chain))
    line("data star", data(star))
    line("data tpch", data(tpch_database(scale=0.001, seed=1)))

    for backend in ("memory", "sqlite"):
        for name, db, query in (
            ("chain4", chain, chain_query(4)),
            ("star2", star, star_query(2)),
        ):
            engine = DissociationEngine(db, EngineConfig(backend=backend))
            for flags in product((False, True), repeat=3):
                opts = Optimizations(*flags)
                # the repeat reads the views the first request promoted
                for attempt in (1, 2):
                    result = engine.evaluate(query, opts)
                    label = f"{backend} {name} {flags} {attempt}"
                    line("scores " + label, repr(sorted(result.scores.items())))
                    line("sql " + label, result.sql or "")
            engine.release()

    # a Fig. 5e '%' instance: both executors, then exact on its
    # lineage (products of three or more marginals, and of three or
    # more independent components)
    tpch = filtered_instance(
        tpch_database(scale=0.005, seed=1, p_max=0.5),
        TPCHParameters(50, "%"),
    )
    for backend in ("memory", "sqlite"):
        engine = DissociationEngine(tpch, EngineConfig(backend=backend))
        for flags in product((False, True), repeat=3):
            result = engine.evaluate(tpch_query(), Optimizations(*flags))
            label = f"{backend} tpch {flags}"
            line("scores " + label, repr(sorted(result.scores.items())))
            line("sql " + label, result.sql or "")
        engine.release()
    lineage = DissociationEngine(tpch).lineage(tpch_query())
    evaluator = ExactEvaluator(lineage.probabilities)
    exact = [
        (answer, evaluator.probability(formula))
        for answer, formula in lineage.by_answer.items()
    ]
    line("exact tpch", repr(sorted(exact, key=repr)))
    """
)


def _digests(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_outputs_do_not_depend_on_the_hash_seed():
    first, second = _digests("0"), _digests("1")
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 3 + 2 * 2 * 8 * 2 * 2 + 2 * 8 * 2 + 1
    # the comparison covers SQL that names materialized views
    assert any(
        label.startswith("sql sqlite") and names_views == "True"
        for label, _digest, names_views in (
            line.rsplit(" ", 2) for line in lines
        )
    )
