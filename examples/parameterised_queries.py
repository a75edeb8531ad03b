"""Parameterised queries: plans are enumerated per *shape*, not per constant.

A selection constant is data, and the minimal plans of a query depend on
the query and the schema only — never on the data. The engine therefore
memoizes plans under the query's shape (the canonical key with the
constants taken out) and binds the stored plans to each request's own
atoms. This example sends one chain shape with 50 different constants
through ``repro.connect()``: the first request pays for Algorithm 1 and
Algorithm 2, the other 49 reuse its plans — and share every subplan that
does not touch the parameterised atom with it, so the subplan cache
answers those too. What a constant selected is never admitted to that
cache (it belongs to one request), so the cache stops growing once the
shape's constant-free subplans are in and evicts nothing.

The second half sends the same 50 constants to SQLite. There the
constant-free subplans become temp views over the shape's first two
requests; from the third on a request is *one statement* — its joins
emitted in the cost model's nested-loop order and pinned with ``CROSS
JOIN``, what the constant selected kept in CTEs of that statement — and
leaves nothing behind on the connection. That third request also leaves
its statement behind as the shape's *template*: every later request
whose constant the statistics price alike (same frequency class) binds
its constant into the stored, prepared statement — no plans bound,
nothing priced, no SQL emitted. A constant that comes back is served
the same way: what it selected is never written to a view.

Run:  python examples/parameterised_queries.py
"""

import statistics
import time

import repro
from repro.workloads import chain_database

K = 7


def chain(constant, names: str = "x") -> str:
    """``q(xk) :- R1(c,x1), R2(x1,x2), ..., Rk(x{k-1},xk)``."""
    tail = [f"R{t}({names}{t - 1},{names}{t})" for t in range(2, K + 1)]
    return f"q({names}{K}) :- R1({constant},{names}1), " + ", ".join(tail)


def main() -> None:
    db = chain_database(K, 400, seed=7)
    constants = sorted(db.table("R1").column_values(0))[:50]

    with repro.connect(db) as session:
        latencies, sizes = [], []
        for constant in constants:
            started = time.perf_counter()
            result = session.evaluate(chain(constant))
            latencies.append((time.perf_counter() - started) * 1e3)
            assert not result.cached  # a new constant is a new answer
            sizes.append(session.stats()["engine"]["cache"]["size"])

        stats = session.stats()
        memo = stats["engine"]["plan_memo"]
        print(f"shape: {chain('c')}   ({result.plan_count} minimal plans)")
        print(f"first request:    {latencies[0]:8.2f} ms  (enumerates)")
        print(
            f"later requests:   {statistics.median(latencies[1:]):8.2f} ms"
            f"  (median of {len(latencies) - 1}: bind + evaluate)"
        )
        print(f"plan memo:        {memo}")
        print(f"subplan cache:    {stats['engine']['cache']}")
        print(f"result cache:     {stats['result_cache']}")
        # one enumeration per flavour (the minimal plans are counted, the
        # merged single plan runs) — however many constants follow
        assert memo["misses"] == 2 and memo["size"] == 2
        assert memo["hits"] == 2 * len(constants) - 2
        assert stats["result_cache"]["hits"] == 0
        # the admission rule: nothing a constant selected is retained, so
        # the subplan cache is flat from the third constant on
        assert sizes[-1] == sizes[2] > 0
        assert stats["engine"]["cache"]["evictions"] == 0

        # A renamed, re-ordered, re-parameterised spelling of the shape
        # is served from the same template.
        head, body = chain(constants[-1] + 1, names="hop").split(" :- ")
        respelled = f"{head} :- " + ", ".join(reversed(body.split(", ")))
        result = session.evaluate(respelled)
        memo = session.stats()["engine"]["plan_memo"]
        print(f"\nrespelled: {respelled}")
        print(f"plan memo:        {memo}")
        assert not result.cached
        assert memo["misses"] == 2 and memo["renamed_hits"] == 1

    sqlite_half(db, constants)


def sqlite_half(db, constants) -> None:
    """The same constants, evaluated inside SQLite."""
    config = repro.EngineConfig(backend="sqlite")
    with repro.connect(db, config) as session:
        # what the cost model reads of a constant: its frequency in the
        # column's most-common-value sketch (values outside the sketch
        # share one class) — a statement is compiled per class
        column = repro.engine.SQLiteStatisticsCatalog(
            session.engine.sqlite
        ).table_stats("R1").columns[0]
        latencies, sizes, hit, classes = [], [], [], []
        for number, constant in enumerate(constants, start=1):
            before = session.stats()["engine"]["statements"]["hits"]
            started = time.perf_counter()
            result = session.evaluate(chain(constant))
            latencies.append((time.perf_counter() - started) * 1e3)
            stats = session.stats()["engine"]
            sizes.append(stats["cache"]["size"])
            hit.append(stats["statements"]["hits"] - before)
            classes.append(column.frequency(constant))
            if number >= 3:
                # what this constant selected stayed inside its statement
                assert "CREATE TEMP TABLE" not in result.sql
        print("\nsqlite backend, same constants")
        print(f"first request:    {latencies[0]:8.2f} ms  (builds the views)")
        print(f"third request:    {latencies[2]:8.2f} ms  (compiles the template)")
        print(
            f"later requests:   {statistics.median(latencies[3:]):8.2f} ms"
            f"  (median of {len(latencies) - 3}: one prepared statement each)"
        )
        print(f"pinned joins:     {result.sql.count('CROSS JOIN')} CROSS JOINs")
        print(f"subplan views:    {session.stats()['engine']['cache']}")
        print(f"statements:       {session.stats()['engine']['statements']}")
        print(f"frequency classes met: {sorted(set(classes))}")
        # the constant-free views converged; 47 more constants added none
        assert sizes[-1] == sizes[2] > 0
        assert result.sql.count("CROSS JOIN") > 0
        # after the shape's three warm-up requests every request ran the
        # stored statement — except the first of each further class
        stored = set(classes[2:3])
        for number in range(3, len(constants)):
            assert hit[number] == (classes[number] in stored), number
            stored.add(classes[number])
        assert sum(hit) >= len(constants) - 3 - len(set(classes))

        # A renamed, re-ordered, re-parameterised spelling of the shape
        # binds into the same stored statement.
        head, body = chain(constants[-1] + 1, names="hop").split(" :- ")
        respelled = f"{head} :- " + ", ".join(reversed(body.split(", ")))
        assert column.frequency(constants[-1] + 1) in stored
        before = session.stats()["engine"]["statements"]
        result = session.evaluate(respelled)
        after = session.stats()["engine"]["statements"]
        print(f"\nrespelled: {respelled}")
        print(f"statements:       {after}")
        assert not result.cached
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == before["size"]

        # A constant sent again, past the session's result cache, runs
        # the stored statement too: no DDL, no new view.
        engine = session.engine
        views = engine.cache_stats()["size"]
        before = engine.statement_stats()["hits"]
        again = engine.evaluate(repro.parse_query(chain(constants[2])))
        hits = engine.statement_stats()["hits"] - before
        print(f"\nrepeated constant: {hits} statement hit, {views} views")
        assert hits == 1
        assert "CREATE TEMP TABLE" not in again.sql
        assert engine.cache_stats()["size"] == views


if __name__ == "__main__":
    main()
