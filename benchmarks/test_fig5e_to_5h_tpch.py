"""Figures 5e–5h: the TPC-H query against all baselines.

For ``$2 ∈ {'%red%green%', '%red%', '%'}`` and a sweep of ``$1``, measure:
standard SQL, the lineage query, dissociation (two minimal plans),
dissociation + semi-join reduction, exact inference, and MC(1k). Figure 5h
is the same data re-keyed by max lineage size.

Expected shapes (paper): exact inference blows up with lineage size while
dissociation stays flat near deterministic SQL; the semi-join reduction
wins at high selectivity (``%red%green%``: few matching parts) and is pure
overhead at low selectivity (``%``).
"""

import math

from repro import EngineConfig
from repro.engine import DissociationEngine, Optimizations
from repro.experiments import format_table, tpch_timings
from repro.workloads import TPCHParameters, filtered_instance, tpch_database, tpch_query

# 0.02 → 200 suppliers, 4k parts, ~16k partsupp: large enough that even
# the most selective pattern ('%red%green%') matches a handful of parts
SCALE = 0.02
SUPPKEY_SWEEP = (50, 100, 200)
PATTERNS = ("%red%green%", "%red%", "%")
GATED = {
    "diss": Optimizations.none(),
    "diss_opt3": Optimizations(single_plan=False, reuse_views=False, semijoin=True),
}


def test_fig5e_to_5h(report, benchmark, best_seconds):
    base = tpch_database(scale=SCALE, seed=45, p_max=0.5)
    q = tpch_query()
    rows, instances = [], []
    for pattern in PATTERNS:
        for suppkey_max in SUPPKEY_SWEEP:
            db = filtered_instance(base, TPCHParameters(suppkey_max, pattern))
            row = tpch_timings(
                q,
                db,
                label=f"$2={pattern} $1={suppkey_max}",
                mc_samples=1000,
            )
            rows.append(row)
            instances.append((pattern, db))

    headers = [
        "params",
        "standard_sql",
        "lineage_query",
        "diss",
        "diss_opt3",
        "exact",
        "mc_1k",
        "max_lineage",
    ]
    table = format_table(
        headers,
        [
            [
                row.label,
                row.seconds["standard_sql"],
                row.seconds["lineage_query"],
                row.seconds["diss"],
                row.seconds["diss_opt3"],
                row.seconds["exact"],
                row.seconds["mc"],
                int(row.extra["max_lineage"]),
            ]
            for row in rows
        ],
        title="FIG 5e–5g — TPC-H query, seconds per method",
    )
    report("FIG 5e–5g — TPC-H runtimes", table)

    by_lineage = sorted(rows, key=lambda r: r.extra["max_lineage"])
    table_h = format_table(
        ["max_lineage", "diss", "exact", "mc_1k", "standard_sql"],
        [
            [
                int(row.extra["max_lineage"]),
                row.seconds["diss"],
                row.seconds["exact"],
                row.seconds["mc"],
                row.seconds["standard_sql"],
            ]
            for row in by_lineage
        ],
        title="FIG 5h — time vs max lineage size",
    )
    report("FIG 5h — combined view", table_h)

    # shape 1: dissociation never catastrophically slower than standard SQL
    for row in rows:
        assert row.seconds["diss"] < max(row.seconds["standard_sql"], 1e-3) * 500

    # shape 2: at the largest lineage, exact inference (when it ran) costs
    # more than dissociation
    largest = by_lineage[-1]
    if not math.isnan(largest.seconds["exact"]):
        assert largest.seconds["exact"] > largest.seconds["diss"] * 0.5

    # shape 3 (Sec. 4.3): the semi-join reduction is a bounded overhead
    # where nothing is selective, and free where the pattern is
    for row, (pattern, db) in zip(rows, instances):
        seconds = best_seconds(q, db, GATED, row.seconds)
        assert seconds["diss_opt3"] <= 2 * seconds["diss"] + 0.01, row.label
        if pattern == "%red%green%":
            limit = 1.25 * seconds["diss"] + 0.005
            assert seconds["diss_opt3"] <= limit, row.label

    # benchmarked kernel: dissociation on the big-lineage configuration
    db = filtered_instance(base, TPCHParameters(100, "%"))
    engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
    engine.sqlite
    benchmark.pedantic(
        lambda: engine.propagation_score(q, Optimizations.none()),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
