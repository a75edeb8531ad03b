"""Transactional mutations & durable recovery (PR 8).

Four layers of guarantees:

* **Undo-log rollback** — a raising ``mutate(fn)`` leaves the database
  *bit-identical* (rows, probabilities, per-table epochs), certified by
  per-table XOR fingerprints; only a failing undo replay degrades to the
  ``touch()`` taint.
* **Warm caches** — after a rollback, zero evictions on any relation
  and repeat queries are served from cache with no new engine
  evaluations, on both backends.
* **Durability** — snapshot + CRC-checksummed journal: committed
  mutations survive a SIGKILL; torn journal tails are truncated;
  checkpoints fold the journal crash-safely.
* **Differential interleavings** (hypothesis) — any mix of tracked
  mutations, helpers called outside ``mutate``, failing or refused
  mutations, and queries leaves the database equal to a twin that never
  saw the failing calls, in memory and on a durable store that reopens
  to the same state.
* **Change records** (hypothesis) — the same mutate groups applied
  through the tracked helpers, or recorded by ``MutationRecorder`` and
  replayed by ``apply_record``, reopen to the same durable state.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import connect
from repro.api import EngineConfig
from repro.core.fds import ColumnFD
from repro.db import (
    DurableStore,
    JournalError,
    MutationOutcome,
    ProbabilisticDatabase,
    apply_record,
    load_snapshot,
    write_snapshot,
)
from repro.net import MutationRecorder
from repro.service import DissociationService, FaultInjector
from repro.workloads import chain_database, chain_query

BACKENDS = ("memory", "sqlite")


def small_db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_table("R", [((1, 2), 0.5), ((3, 4), 0.25)])
    db.add_table("S", [((1,), 0.9), ((3,), 0.8)])
    return db


def state_of(db: ProbabilisticDatabase) -> dict:
    return {
        t.name: (dict(t.rows), t.epoch, t.schema) for t in db
    }


def fingerprints(db: ProbabilisticDatabase) -> dict:
    return {t.name: t.fingerprint for t in db}


#: ``journal.log`` as the tracked helpers wrote it before the wire's
#: change records shared its format: add_table (with an FD), an
#: insert / update_probability / delete group, a bare-row add_table,
#: an empty deterministic add_table and its drop.
JOURNAL_FIXTURE = """\
41279b16 {"op":"add_table","name":"R","rows":[[[1,"a"],0.5],[[2,"b"],0.25]],"deterministic":false,"columns":["k","v"],"fds":[[[0],[1]]],"arity":2,"seq":1}
491cc415 {"op":"commit"}
a37a3ce1 {"op":"insert","rel":"R","row":[3,"c"],"p":0.75,"seq":2}
cf6387a9 {"op":"insert","rel":"R","row":[1,"a"],"p":0.125,"seq":3}
75bf7966 {"op":"delete","rel":"R","row":[2,"b"],"seq":4}
491cc415 {"op":"commit"}
672029b6 {"op":"add_table","name":"S","rows":[[[7],1.0],[[8],1.0]],"deterministic":false,"columns":[],"fds":[],"arity":1,"seq":5}
491cc415 {"op":"commit"}
c4d066c3 {"op":"add_table","name":"T","rows":[],"deterministic":true,"columns":[],"fds":[],"arity":1,"seq":6}
491cc415 {"op":"commit"}
7e0e3016 {"op":"drop_table","name":"T","seq":7}
491cc415 {"op":"commit"}
"""


# ----------------------------------------------------------------------
# undo-log rollback
# ----------------------------------------------------------------------
class TestRollback:
    def test_tracked_failure_is_bit_identical(self):
        db = small_db()
        before = state_of(db)
        version = db.version

        def fn(d):
            d.insert("R", (5, 6), 0.75)           # new row
            d.insert("R", (1, 2), 0.1)            # overwrite
            d.update_probability("S", (1,), 0.2)
            d.delete("R", (3, 4))
            d.add_table("T", [((7,), 0.3)])
            d.drop_table("S")
            raise RuntimeError("abort")

        with pytest.raises(RuntimeError, match="abort"):
            db.mutate(fn)
        assert state_of(db) == before
        assert db.version == version
        outcome = db.last_mutation
        assert outcome == MutationOutcome(
            committed=False, rolled_back=True, tracked_ops=6
        )

    def test_rollback_restores_dropped_table_identity(self):
        db = small_db()
        epoch = db.table("S").epoch

        def fn(d):
            d.drop_table("S")
            d.add_table("S", [((1,), 0.9), ((3,), 0.8)])  # same content!
            raise RuntimeError("abort")

        with pytest.raises(RuntimeError):
            db.mutate(fn)
        # the restored S is the *original incarnation*: same creation
        # stamp, not a same-named lookalike under a fresh epoch
        assert db.table("S").epoch == epoch

    def test_mutate_returns_fn_result_and_commits(self):
        db = small_db()
        version = db.version
        assert db.mutate(lambda d: d.delete("R", (3, 4))) == 0.25
        assert (3, 4) not in db.table("R").rows
        assert db.version != version
        assert db.last_mutation.committed
        assert db.last_mutation.tracked_ops == 1

    def test_nested_mutate_raises(self):
        db = small_db()
        with pytest.raises(RuntimeError, match="already in progress"):
            db.mutate(lambda d: d.mutate(lambda e: None))

    def test_injected_rollback_fault_degrades_to_taint(self):
        db = small_db()
        faults = FaultInjector()
        faults.on_call("rollback", 1, RuntimeError("chaos: undo lost"))
        epochs = db.table_epochs()

        def fn(d):
            d.insert("R", (5, 6), 0.75)
            raise ValueError("abort")

        with pytest.raises(ValueError):
            db.mutate(fn, faults=faults)
        assert db.last_mutation.tainted
        assert all(
            db.table_epoch(name) != old for name, old in epochs.items()
        )

    def test_fingerprint_ignores_insertion_order(self):
        a = ProbabilisticDatabase()
        a.add_table("R", [((1,), 0.5), ((2,), 0.25)])
        b = ProbabilisticDatabase()
        b.add_table("R", [((2,), 0.25), ((1,), 0.5)])
        assert a.table("R").fingerprint == b.table("R").fingerprint


# ----------------------------------------------------------------------
# warm caches across rollbacks (the acceptance counters, both backends)
# ----------------------------------------------------------------------
class TestCachesStayWarm:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_evictions_and_cached_repeat_serial(self, backend):
        db = chain_database(3, 12, seed=5)
        q = chain_query(3)
        with connect(db, EngineConfig(backend=backend)) as session:
            first = session.evaluate(q)
            evaluations = session.engine.evaluation_count
            with pytest.raises(RuntimeError):
                session.mutate(self._failing_tracked)
            again = session.evaluate(q)
            assert again.cached and again.epoch == first.epoch
            assert session.engine.evaluation_count == evaluations
            stats = session.results.stats()
            assert stats["evictions"] == 0
            # the engine's own epoch-diffing caches saw no epoch move
            assert db.last_mutation.rolled_back

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_evictions_concurrent_service(self, backend):
        db = chain_database(3, 12, seed=5)
        q = chain_query(3)
        with connect(
            db, EngineConfig(backend=backend), concurrent=True
        ) as session:
            first = session.evaluate(q)
            with pytest.raises(RuntimeError):
                session.mutate(self._failing_tracked)
            again = session.evaluate(q)
            assert again.cached and again.epoch == first.epoch
            assert session.results.stats()["evictions"] == 0
            stats = session.service.stats()
            assert stats["rolled_back_mutations"] == 1
            assert stats["tainted_mutations"] == 0

    @staticmethod
    def _failing_tracked(d):
        d.insert("R1", (999_991, 999_992), 0.5)
        raise RuntimeError("abort")

    def test_sqlite_refresh_is_noop_after_rollback(self):
        db = small_db()
        from repro.db import SQLiteBackend

        backend = SQLiteBackend(db)  # materializes the snapshot
        with pytest.raises(RuntimeError):
            db.mutate(self._fail_after_insert)
        assert backend.refresh() == frozenset()

    @staticmethod
    def _fail_after_insert(d):
        d.insert("R", (5, 6), 0.75)
        raise RuntimeError("abort")


# ----------------------------------------------------------------------
# durability: snapshot + journal
# ----------------------------------------------------------------------
class TestDurability:
    def test_round_trip_preserves_rows_epochs_schema(self, tmp_path):
        db = ProbabilisticDatabase.open(tmp_path / "store")
        db.mutate(lambda d: d.add_table("R", [((1, 2), 0.5)]))
        db.mutate(lambda d: d.insert("R", (3, 4), 0.25))
        db.mutate(lambda d: d.update_probability("R", (1, 2), 0.125))
        db.mutate(lambda d: d.delete("R", (3, 4)))
        expected = state_of(db)
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == expected
        reopened.close()

    def test_snapshot_preserves_schema_and_fds(self, tmp_path):
        db = ProbabilisticDatabase()
        db.add_table(
            "R",
            [((1, "a"), 1.0)],
            deterministic=True,
            columns=("k", "v"),
            fds=(ColumnFD((0,), (1,)),),
        )
        write_snapshot(db, tmp_path / "snap.json")
        again = load_snapshot(tmp_path / "snap.json")
        assert state_of(again) == state_of(db)

    def test_snapshot_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text('{"format": "repro-snapshot", "version": 99}')
        with pytest.raises(JournalError, match="version"):
            load_snapshot(path)

    def test_failed_mutation_is_not_journaled(self, tmp_path):
        db = ProbabilisticDatabase.open(tmp_path / "store")
        db.mutate(lambda d: d.add_table("R", [((1,), 0.5)]))

        def fn(d):
            d.insert("R", (2,), 0.25)
            raise RuntimeError("abort")

        with pytest.raises(RuntimeError):
            db.mutate(fn)
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert dict(reopened.table("R").rows) == {(1,): 0.5}
        reopened.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        store_dir = tmp_path / "store"
        db = ProbabilisticDatabase.open(store_dir)
        db.mutate(lambda d: d.add_table("R", [((1,), 0.5)]))
        db.mutate(lambda d: d.insert("R", (2,), 0.25))
        db.close()
        journal = store_dir / DurableStore.JOURNAL
        intact = journal.read_bytes()
        # a half-written record: valid-looking hex prefix, no newline
        journal.write_bytes(intact + b'0badc0de {"op":"insert","rel":"R"')
        reopened = ProbabilisticDatabase.open(store_dir)
        assert dict(reopened.table("R").rows) == {(1,): 0.5, (2,): 0.25}
        assert reopened._durability.last_recovery["invalid_records"] == 1
        assert journal.read_bytes() == intact  # truncated back
        reopened.close()

    def test_corrupt_checksum_drops_tail(self, tmp_path):
        store_dir = tmp_path / "store"
        db = ProbabilisticDatabase.open(store_dir)
        db.mutate(lambda d: d.add_table("R", [((1,), 0.5)]))
        db.close()
        journal = store_dir / DurableStore.JOURNAL
        good = journal.read_bytes()
        lines = good.splitlines(keepends=True)
        # flip a byte inside the payload of a fresh appended group
        db = ProbabilisticDatabase.open(store_dir)
        db.mutate(lambda d: d.insert("R", (2,), 0.25))
        db.close()
        raw = journal.read_bytes()
        tail_start = len(good)
        corrupted = (
            raw[:tail_start]
            + raw[tail_start:].replace(b'"rel"', b'"reX"', 1)
        )
        journal.write_bytes(corrupted)
        reopened = ProbabilisticDatabase.open(store_dir)
        # the corrupted committed group is gone; the first group survives
        assert dict(reopened.table("R").rows) == {(1,): 0.5}
        assert len(lines) >= 2
        reopened.close()

    def test_uncommitted_group_is_dropped(self, tmp_path):
        store_dir = tmp_path / "store"
        db = ProbabilisticDatabase.open(store_dir)
        db.mutate(lambda d: d.add_table("R", [((1,), 0.5)]))
        db.close()
        journal = store_dir / DurableStore.JOURNAL
        raw = journal.read_bytes()
        # replay the op records of the committed group *without* the
        # trailing commit marker: a crash between ops and commit
        lines = raw.splitlines(keepends=True)
        journal.write_bytes(raw + lines[0])
        reopened = ProbabilisticDatabase.open(store_dir)
        assert dict(reopened.table("R").rows) == {(1,): 0.5}
        assert reopened._durability.last_recovery["uncommitted_ops"] == 1
        reopened.close()

    def test_checkpoint_folds_journal_and_bounds_replay(self, tmp_path):
        db = ProbabilisticDatabase.open(
            tmp_path / "store", checkpoint_every=4
        )
        db.mutate(lambda d: d.add_table("R", [((0,), 0.5)]))
        for i in range(1, 8):
            db.mutate(lambda d, i=i: d.insert("R", (i,), 0.5))
        expected = state_of(db)
        assert db._durability.stats()["ops_since_checkpoint"] < 4
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == expected
        # recovery replayed only the post-checkpoint suffix
        assert reopened._durability.last_recovery["ops_replayed"] < 4
        reopened.close()

    def test_crash_between_snapshot_and_truncate_no_double_apply(
        self, tmp_path
    ):
        store_dir = tmp_path / "store"
        db = ProbabilisticDatabase.open(store_dir)
        db.mutate(lambda d: d.add_table("R", [((1,), 0.5)]))
        db.mutate(lambda d: d.delete("R", (1,)))
        db.mutate(lambda d: d.insert("R", (2,), 0.25))
        # simulate the torn checkpoint: snapshot written (with
        # committed_ops), journal NOT truncated
        write_snapshot(
            db,
            store_dir / DurableStore.SNAPSHOT,
            committed_ops=db._durability._committed_ops,
        )
        expected = state_of(db)
        db.close()
        reopened = ProbabilisticDatabase.open(store_dir)
        # replaying the journal on top of the snapshot must skip every
        # already-folded op — a naive replay would re-delete (1,) and
        # crash or double-insert
        assert state_of(reopened) == expected
        assert reopened._durability.last_recovery["ops_replayed"] == 0
        reopened.close()

    def test_journal_fault_rolls_memory_back(self, tmp_path):
        db = ProbabilisticDatabase.open(tmp_path / "store")
        db.mutate(lambda d: d.add_table("R", [((1,), 0.5)]))
        faults = FaultInjector()
        faults.on_call("journal", 1, OSError("chaos: disk full"))
        before = state_of(db)
        with pytest.raises(OSError):
            db.mutate(lambda d: d.insert("R", (2,), 0.25), faults=faults)
        # memory rolled back too: memory and disk never diverge
        assert state_of(db) == before
        assert db.last_mutation.rolled_back
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == before
        reopened.close()

    def test_commit_rejects_a_row_it_cannot_recover(self, tmp_path):
        """JSON reads a tuple back as a list: the journal refuses such a
        row before writing a byte, and the mutation rolls back."""
        db = ProbabilisticDatabase.open(tmp_path / "store")
        db.mutate(lambda d: d.add_table("R", [((1, 2), 0.5)]))
        before = state_of(db)
        for change in (
            lambda d: d.insert("R", (2, (3, 4)), 0.25),
            lambda d: d.add_table("T", [(((5, 6),), 0.5)]),
        ):
            with pytest.raises(JournalError, match="JSON scalar"):
                db.mutate(change)
            assert db.last_mutation.rolled_back
            assert state_of(db) == before
        db.mutate(lambda d: d.insert("R", (2, 3), 0.25))
        expected = state_of(db)
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == expected
        assert reopened._durability.stats()["committed_ops"] == 2
        reopened.close()

    def test_literal_journal_reopens_to_the_same_fingerprints(self, tmp_path):
        """A journal in the on-disk record format reopens to the state
        its mutations built in memory."""
        store = tmp_path / "store"
        store.mkdir()
        (store / DurableStore.JOURNAL).write_text(JOURNAL_FIXTURE)
        db = ProbabilisticDatabase.open(store)
        twin = ProbabilisticDatabase()
        twin.mutate(
            lambda d: d.add_table(
                "R",
                [((1, "a"), 0.5), ((2, "b"), 0.25)],
                columns=("k", "v"),
                fds=(ColumnFD((0,), (1,)),),
            )
        )

        def edit(d):
            d.insert("R", (3, "c"), 0.75)
            d.update_probability("R", (1, "a"), 0.125)
            d.delete("R", (2, "b"))

        twin.mutate(edit)
        twin.mutate(lambda d: d.add_table("S", [(7,), (8,)]))
        twin.mutate(lambda d: d.add_table("T", [], arity=1, deterministic=True))
        twin.mutate(lambda d: d.drop_table("T"))
        assert state_of(db) == state_of(twin)
        assert fingerprints(db) == fingerprints(twin)
        assert dict(db.table("R").rows) == {(1, "a"): 0.125, (3, "c"): 0.75}
        assert (db.table("R").epoch, db.table("S").epoch) == ((1, 5), (2, 2))
        assert db._durability.last_recovery["ops_replayed"] == 7
        db.close()

    def test_save_makes_in_memory_db_durable(self, tmp_path):
        db = small_db()
        assert not db.durable
        db.save(tmp_path / "store")
        assert db.durable
        db.mutate(lambda d: d.insert("R", (5, 6), 0.75))
        expected = state_of(db)
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == expected
        reopened.close()

    def test_autocommit_outside_mutate(self, tmp_path):
        db = ProbabilisticDatabase.open(tmp_path / "store")
        db.add_table("R", [((1,), 0.5)])
        db.insert("R", (2,), 0.25)
        expected = state_of(db)
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == expected
        reopened.close()

    def test_refused_write_outside_mutate_rolls_back(self, tmp_path):
        """A helper outside ``mutate`` is a one-op transaction: the row
        the journal refuses leaves memory, epochs and disk as they
        were."""
        db = ProbabilisticDatabase.open(tmp_path / "store", fsync="off")
        db.add_table("R", [((1, 2), 0.5)])
        before = state_of(db)
        epochs = db.table_epochs()
        with pytest.raises(JournalError, match="JSON scalar"):
            db.insert("R", (2, (3, 4)), 0.25)
        assert state_of(db) == before
        assert db.table_epochs() == epochs
        assert db.last_mutation.rolled_back
        db.close()
        reopened = ProbabilisticDatabase.open(tmp_path / "store")
        assert state_of(reopened) == before
        reopened.close()

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            DurableStore(tmp_path / "s", fsync="sometimes")
        store = DurableStore(tmp_path / "s2", fsync="off")
        assert store.fsync == "off"

    def test_fsync_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_FSYNC", "off")
        assert DurableStore(tmp_path / "s").fsync == "off"
        monkeypatch.delenv("REPRO_JOURNAL_FSYNC")
        assert DurableStore(tmp_path / "s").fsync == "commit"

    def test_connect_path_owns_and_recovers(self, tmp_path):
        with connect(path=tmp_path / "store") as session:
            session.mutate(
                lambda d: d.add_table("R", [((1, 2), 0.5), ((2, 3), 0.25)])
            )
            session.mutate(lambda d: d.insert("R", (3, 4), 0.75))
            expected = {
                t.name: dict(t.rows) for t in session.db
            }
        with connect(path=tmp_path / "store") as session:
            assert {t.name: dict(t.rows) for t in session.db} == expected
            assert session.evaluate("q(x) :- R(x, y)").scores

    def test_connect_rejects_db_and_path(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            connect(small_db(), path=tmp_path / "s")
        with pytest.raises(ValueError, match="path"):
            connect(small_db(), fsync="off")
        with pytest.raises(ValueError, match="db or a path"):
            connect()


# ----------------------------------------------------------------------
# SIGKILL crash recovery (subprocess harness)
# ----------------------------------------------------------------------
WRITER = textwrap.dedent(
    """
    import sys
    from repro.db import ProbabilisticDatabase

    store, = sys.argv[1:]
    db = ProbabilisticDatabase.open(store, fsync="commit")
    if "R" not in db.table_names:
        db.mutate(lambda d: d.add_table("R", [], arity=1))
    start = max((row[0] for row in db.table("R").rows), default=-1) + 1
    for i in range(start, start + 100000):
        db.mutate(lambda d, i=i: d.insert("R", (i,), 0.5))
        # the ack contract: once i is printed, (i,) must survive SIGKILL
        print(i, flush=True)
    """
)


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
class TestSigkillRecovery:
    def _run_and_kill(self, store: Path) -> int:
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_JOURNAL_FSYNC", None)  # the writer passes fsync=
        proc = subprocess.Popen(
            [sys.executable, "-c", WRITER, str(store)],
            stdout=subprocess.PIPE,
            cwd=Path(__file__).resolve().parent.parent,
            env=env,
            text=True,
        )
        acked = -1
        deadline = time.monotonic() + 60
        # read a few acks, then kill mid-stream without warning
        while acked < 5 and time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line:
                acked = int(line)
        proc.kill()  # SIGKILL: no atexit, no flush, no goodbye
        # drain acks the child printed before dying — each one is a
        # mutation whose mutate() returned, i.e. a durability promise
        tail, _ = proc.communicate(timeout=30)
        for line in tail.split():
            acked = max(acked, int(line))
        assert proc.returncode == -signal.SIGKILL
        assert acked >= 5
        return acked

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reopens_to_last_committed_mutation(self, tmp_path, backend):
        store = tmp_path / "store"
        acked = self._run_and_kill(store)
        db = ProbabilisticDatabase.open(store)
        rows = db.table("R").rows
        # every acked commit survived ...
        for i in range(acked + 1):
            assert (i,) in rows, f"acked row {i} lost"
        # ... and nothing torn leaked in: rows are exactly a prefix
        # 0..n with n >= acked (trailing commits may have raced the kill)
        assert set(rows) == {(i,) for i in range(len(rows))}
        assert all(p == 0.5 for p in rows.values())
        # the recovered state is served identically by both backends
        with connect(db, EngineConfig(backend=backend)) as session:
            scores = session.evaluate("q() :- R(x)").scores
            assert scores  # boolean query over recovered rows
        db.close()

    def test_second_crash_cycle_continues_cleanly(self, tmp_path):
        store = tmp_path / "store"
        first = self._run_and_kill(store)
        second = self._run_and_kill(store)
        assert second > first  # resumed past the first crash
        db = ProbabilisticDatabase.open(store)
        assert set(db.table("R").rows) == {
            (i,) for i in range(len(db.table("R").rows))
        }
        assert len(db.table("R").rows) >= second + 1
        db.close()


# ----------------------------------------------------------------------
# hypothesis: interleavings vs. a never-failed twin
# ----------------------------------------------------------------------
def _op_strategy():
    row = st.integers(min_value=0, max_value=9)
    kind = st.sampled_from(
        [
            "insert",
            "delete",
            "update",
            "tuple_insert",
            "fail_insert",
            "fail_multi",
            "query",
        ]
    )
    # the flag calls a single-helper kind outside ``mutate``
    return st.lists(
        st.tuples(kind, row, row, st.booleans()), min_size=1, max_size=12
    )


def _observed(db) -> tuple:
    return (
        {t.name: dict(t.rows) for t in db},
        fingerprints(db),
        db.table_epochs(),
    )


def _seed_interleaving(d):
    d.add_table("R", [((i, i + 1), 0.5) for i in range(4)])
    d.add_table("Z", [((1,), 0.9)])  # never touched


class TestInterleavings:
    @given(ops=_op_strategy())
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_with_never_failed_twin(self, ops):
        for durable in (False, True):
            with tempfile.TemporaryDirectory() as scratch:
                _interleave(ops, scratch if durable else None)


def _interleave(ops, store) -> None:
    """Run ``ops`` on a database — durable at directory ``store``, or
    in memory when it is ``None`` — and on a twin that sees only the
    ops that succeeded."""
    durable = store is not None
    if durable:
        db = ProbabilisticDatabase.open(store, fsync="off")
        db.mutate(_seed_interleaving)
    else:
        db = ProbabilisticDatabase()
        _seed_interleaving(db)
    twin = ProbabilisticDatabase()
    _seed_interleaving(twin)
    z_epoch = db.table("Z").epoch

    with connect(db, result_cache_size=None) as session:
        for kind, a, b, direct in ops:
            if kind == "query":
                session.evaluate("q(x) :- R(x, y)")
                continue
            apply = _APPLY[kind]
            direct = direct and not kind.startswith("fail_")
            # only the journal refuses a tuple-valued row value
            refused = durable and kind == "tuple_insert"
            before = _observed(db)
            try:
                if direct:
                    apply(db, a, b)
                else:
                    session.mutate(lambda d: apply(d, a, b))
            except (_Abort, KeyError, JournalError) as exc:
                # failed (a delete/update of a missing row too) or
                # refused: nothing of the op is left, not even an
                # epoch bump
                assert isinstance(exc, JournalError) == refused
                assert _observed(db) == before
                if durable or not direct:
                    assert db.last_mutation.rolled_back
                continue
            assert not refused
            apply(twin, a, b)
        # epochs differ on R (the twin saw fewer counter bumps), so
        # compare contents + fingerprints
        assert dict(db.table("R").rows) == dict(twin.table("R").rows)
        assert db.table("R").fingerprint == twin.table("R").fingerprint
        # the untouched relation's epoch NEVER moved: zero
        # invalidation pressure on Z from any failed mutation
        assert db.table("Z").epoch == z_epoch
    if durable:
        db.close()
        reopened = ProbabilisticDatabase.open(store)
        assert _observed(reopened)[:2] == _observed(db)[:2]
        reopened.close()


class _Abort(Exception):
    pass


def _apply_insert(d, a, b):
    d.insert("R", (a, b), 0.5)


def _apply_delete(d, a, b):
    d.delete("R", (a, b))


def _apply_update(d, a, b):
    d.update_probability("R", (a, b), 0.75)


def _apply_tuple_insert(d, a, b):
    d.insert("R", (a, (b,)), 0.5)


def _apply_fail_insert(d, a, b):
    d.insert("R", (a, b), 0.5)
    raise _Abort()


def _apply_fail_multi(d, a, b):
    d.insert("R", (a, b), 0.5)
    d.insert("R", (b, a), 0.25)
    d.delete("R", (a, b))
    raise _Abort()


_APPLY = {
    "insert": _apply_insert,
    "delete": _apply_delete,
    "update": _apply_update,
    "tuple_insert": _apply_tuple_insert,
    "fail_insert": _apply_fail_insert,
    "fail_multi": _apply_fail_multi,
}


# ----------------------------------------------------------------------
# hypothesis: tracked helpers vs. recorded change records
# ----------------------------------------------------------------------
_ROW = st.integers(min_value=0, max_value=3)
_CHANGE = st.tuples(
    st.sampled_from(
        ["insert", "delete", "update_probability", "replace", "touch"]
    ),
    st.sampled_from(["R", "S"]),
    _ROW,
    _ROW,
    st.floats(min_value=0.0, max_value=1.0),
)


def _change(d, kind, relation, a, b, p):
    """One tracked call on ``d`` — a database or a MutationRecorder.
    ``delete`` / ``update_probability`` of an absent row raise
    ``KeyError``, failing (and rolling back) the whole group."""
    row = (a, b) if relation == "R" else (a,)
    if kind == "insert":
        d.insert(relation, row, p)
    elif kind == "delete":
        d.delete(relation, row)
    elif kind == "update_probability":
        d.update_probability(relation, row, p)
    elif kind == "replace":
        d.drop_table(relation)
        d.add_table(relation, [row], arity=len(row))  # a bare row
    else:
        d.touch()


def _seed(d):
    d.add_table("R", [((0, 1), 0.5), ((1, 2), 0.25)])
    d.add_table("S", [((0,), 0.75)])


def _run_group(db, fn) -> None:
    try:
        db.mutate(fn)
    except KeyError:
        assert db.last_mutation.rolled_back


class TestChangeRecords:
    @given(
        groups=st.lists(
            st.lists(_CHANGE, min_size=1, max_size=4), min_size=1, max_size=6
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_recorded_records_replay_to_the_tracked_state(self, groups):
        with tempfile.TemporaryDirectory() as scratch:
            tracked = ProbabilisticDatabase.open(
                Path(scratch, "tracked"), fsync="off"
            )
            replayed = ProbabilisticDatabase.open(
                Path(scratch, "replayed"), fsync="off"
            )
            in_memory = ProbabilisticDatabase()
            for db in (tracked, replayed, in_memory):
                db.mutate(_seed)
            for group in groups:

                def direct(d, group=group):
                    for change in group:
                        _change(d, *change)

                recorder = MutationRecorder()
                direct(recorder)
                # the records cross the wire as JSON
                records = json.loads(json.dumps(recorder.ops))

                def replay(d):
                    for record in records:
                        apply_record(d, record)

                _run_group(tracked, direct)
                _run_group(in_memory, direct)
                _run_group(replayed, replay)
            tracked.close()
            replayed.close()
            tracked = ProbabilisticDatabase.open(Path(scratch, "tracked"))
            replayed = ProbabilisticDatabase.open(Path(scratch, "replayed"))
            assert fingerprints(tracked) == fingerprints(replayed)
            assert fingerprints(tracked) == fingerprints(in_memory)
            assert state_of(tracked) == state_of(replayed)
            tracked.close()
            replayed.close()
