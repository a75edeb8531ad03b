"""Ablation: the exact engine's component split on read-once lineages.

Not a paper figure. Safe-query lineages are read-once, and so are the
dissociated formulas ``repro.lineage.lower`` evaluates for its lower
bounds. The generic WMC has no separate read-once path; this times it
with and without its independent-component split on such lineages.
Both must agree.
"""

from repro.experiments import format_table, timed
from repro.lineage import ExactEvaluator, lineage_of
from repro.workloads import chain_database, chain_query


def test_readonce_ablation(report, benchmark):
    # the 2-chain is safe: every answer's lineage is read-once
    q = chain_query(2)
    db = chain_database(2, 2000, seed=95, p_max=0.5)
    lineage = lineage_of(q, db)
    formulas = list(lineage.by_answer.values())

    def run(use_components: bool) -> list[float]:
        evaluator = ExactEvaluator(
            lineage.probabilities, use_components=use_components
        )
        return [evaluator.probability(f) for f in formulas]

    split_s, split = timed(lambda: run(True))
    shannon_s, shannon = timed(lambda: run(False))
    for a, b in zip(split, shannon):
        assert abs(a - b) < 1e-9

    table = format_table(
        ["engine", "seconds"],
        [
            ["generic WMC (components + Shannon)", split_s],
            ["Shannon expansion only", shannon_s],
        ],
        title=f"ABLATION — exact engine on {len(formulas)} read-once "
        f"lineages (2-chain, n=2000)",
    )
    report("ABLATION — read-once lineages", table)

    benchmark.pedantic(lambda: run(True), rounds=2, iterations=1)
