"""Figure 5a: 4-chain query runtime vs. database size (data complexity).

Series: standard SQL, all minimal plans separately, Opt1, Opt1-2, Opt1-3
on SQLite, for growing tables-per-relation ``n``. Expected shape: the
optimized dissociation stays within a small factor of deterministic SQL,
while evaluating all plans separately grows markedly slower; the semi-join
reduction has constant overhead that amortizes at scale.
"""

import math

from repro import EngineConfig
from repro.experiments import OPTIMIZATION_MODES, dissociation_timings, format_table
from repro.workloads import chain_database, chain_query

SIZES = (100, 300, 1000, 3000)
GATED = {m: OPTIMIZATION_MODES[m] for m in ("opt12", "opt123")}


def run_sweep():
    q = chain_query(4)
    rows = []
    for n in SIZES:
        db = chain_database(4, n, seed=41, p_max=0.5)
        rows.append(dissociation_timings(q, db, label=f"n={n}"))
    return rows


def test_fig5a(report, benchmark, best_seconds):
    rows = run_sweep()
    table = format_table(
        ["n", "standard_sql", "all_plans", "opt1", "opt12", "opt123"],
        [
            [
                row.label,
                row.seconds["standard_sql"],
                row.seconds["all_plans"],
                row.seconds["opt1"],
                row.seconds["opt12"],
                row.seconds["opt123"],
            ]
            for row in rows
        ],
        title="FIG 5a — 4-chain, seconds per strategy",
    )
    report("FIG 5a — 4-chain runtime vs database size", table)

    # shape: dissociation with optimizations stays within a modest factor
    # of plain SQL at the largest size
    last = rows[-1]
    assert last.seconds["opt12"] < last.seconds["standard_sql"] * 60
    assert last.plan_count == 5

    # shape (Sec. 4.3): the semi-join reduction is a near-constant
    # overhead — within 2.5x of Opt1-2 at the largest size, and linear
    # in n between the two largest sizes
    q = chain_query(4)
    mid, big = (
        best_seconds(
            q, chain_database(4, n, seed=41, p_max=0.5), GATED, row.seconds
        )
        for n, row in zip(SIZES[-2:], rows[-2:])
    )
    assert big["opt123"] <= 2.5 * big["opt12"] + 0.005, big
    growth = math.log(big["opt123"] / mid["opt123"]) / math.log(3)
    assert growth <= 1.3, (mid, big)

    # benchmarked kernel: the optimized evaluation at n = 1000
    from repro.engine import DissociationEngine, Optimizations

    db = chain_database(4, 1000, seed=41, p_max=0.5)
    engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
    engine.sqlite
    opts = Optimizations(single_plan=True, reuse_views=True)
    benchmark.pedantic(
        lambda: engine.propagation_score(q, opts),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
