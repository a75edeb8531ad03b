"""Figure 5c: 2-star query runtime vs. database size.

Only two minimal plans here; the paper's observation is that Opt1 and
Opt1-2 coincide (no shared subplans to reuse in the 2-star) and everything
stays close to deterministic SQL.
"""

import math

from repro import EngineConfig
from repro.engine import DissociationEngine, Optimizations
from repro.experiments import OPTIMIZATION_MODES, dissociation_timings, format_table
from repro.workloads import star_database, star_query

SIZES = (100, 300, 1000, 3000)
GATED = {m: OPTIMIZATION_MODES[m] for m in ("opt12", "opt123")}


def test_fig5c(report, benchmark, best_seconds):
    q = star_query(2)
    rows, sizes = [], []
    for n in SIZES:
        db = star_database(2, n, seed=43, p_max=0.5)
        # n caps each table; R1's draws collide, so it holds fewer rows
        sizes.append((len(db.table("R1")), len(db.table("R0"))))
        rows.append(dissociation_timings(q, db, label=f"n={n}"))

    table = format_table(
        ["n", "|R1|", "|R0|", "standard_sql", "all_plans", "opt1", "opt12",
         "opt123"],
        [
            [
                row.label,
                *size,
                row.seconds["standard_sql"],
                row.seconds["all_plans"],
                row.seconds["opt1"],
                row.seconds["opt12"],
                row.seconds["opt123"],
            ]
            for row, size in zip(rows, sizes)
        ],
        title="FIG 5c — 2-star, seconds per strategy",
    )
    report("FIG 5c — 2-star runtime vs database size", table)

    assert rows[0].plan_count == 2
    # Opt1 ≈ Opt1-2 for the 2-star (nothing to share)
    last = rows[-1]
    assert last.seconds["opt12"] < last.seconds["opt1"] * 3 + 0.05

    # shape (Sec. 4.3): the semi-join reduction is a near-constant
    # overhead — within 2.5x of Opt1-2 at the largest size (three
    # indexed copies against a ~10 ms query), and linear in n between
    # the two largest sizes
    mid, big = (
        best_seconds(
            q, star_database(2, n, seed=43, p_max=0.5), GATED, row.seconds
        )
        for n, row in zip(SIZES[-2:], rows[-2:])
    )
    assert big["opt123"] <= 2.5 * big["opt12"] + 0.005, big
    growth = math.log(big["opt123"] / mid["opt123"]) / math.log(3)
    assert growth <= 1.3, (mid, big)

    db = star_database(2, 1000, seed=43, p_max=0.5)
    engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
    engine.sqlite
    benchmark.pedantic(
        lambda: engine.propagation_score(q, Optimizations()),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
