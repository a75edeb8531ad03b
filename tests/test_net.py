"""The network serving tier: framing, server/client differential,
shared-memory snapshots, and the multi-process pool."""

from __future__ import annotations

import gc
import inspect
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import (
    EngineConfig,
    Optimizations,
    ProbabilisticDatabase,
    ServiceClosed,
    Session,
    parse_query,
)
from repro.core.fds import ColumnFD
from repro.db.shm import SharedSnapshotManager, attach_snapshot, seed_cache
from repro.engine.extensional import EvaluationCache
from repro.net import (
    BadMagic,
    ChecksumMismatch,
    FrameDecoder,
    FrameTooLarge,
    MalformedPayload,
    MutationRecorder,
    RemoteSession,
    TruncatedFrame,
    decode_frame,
    encode_frame,
    fork_available,
    serve,
    wire_query_key,
)
from repro.net.protocol import (
    _HEADER,
    _MAGIC,
    PROTOCOL_VERSION,
    result_from_wire,
    result_to_wire,
)
from repro.obs import merge_snapshots

from .helpers import ALL_OPTIMIZATION_COMBOS, shm_segments


def sample_database() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_table(
        "R", [((1,), 0.31), ((2,), 0.77), ((3,), 0.5)], columns=("a",)
    )
    db.add_table(
        "S",
        [((1, 1), 0.43), ((1, 2), 0.9), ((2, 2), 0.17), ((3, 1), 0.66)],
        columns=("a", "b"),
    )
    db.add_table("T", [((1,), 0.25), ((2,), 0.84)], columns=("b",))
    return db


def raw_frame(payload: bytes) -> bytes:
    """``payload`` under a valid header and checksum, JSON or not."""
    header = _HEADER.pack(
        _MAGIC, PROTOCOL_VERSION, len(payload), zlib.crc32(payload)
    )
    return header + payload


#: checksum-valid payloads no encoder of ours produces: not JSON, not
#: UTF-8, and a body after a head that is no JSON object
MALFORMED_PAYLOADS = [b"not json", b'"\xff"', b"[1]\nBODY"]


QUERIES = [
    "q() :- R(x), S(x,y), T(y)",
    "q(x) :- R(x), S(x,y)",
    "q(y) :- S(x,y), T(y)",
]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        payload = {"id": 7, "op": "ping", "nested": [1, [2, 3]]}
        frame = encode_frame(payload)
        decoded, consumed = decode_frame(frame + b"tail")
        assert decoded == payload
        assert consumed == len(frame)

    def test_torn_length_prefix_waits_for_more_bytes(self):
        frame = encode_frame({"id": 1})
        decoder = FrameDecoder()
        # feed the header one byte at a time: never an error, no output
        for i in range(len(frame) - 1):
            assert decoder.feed(frame[i : i + 1]) == []
        assert decoder.feed(frame[-1:]) == [{"id": 1}]

    def test_torn_frame_one_shot_decode_raises_truncated(self):
        frame = encode_frame({"id": 1})
        with pytest.raises(TruncatedFrame):
            decode_frame(frame[: len(frame) - 2])

    def test_bad_checksum_drops_frame_and_stream_survives(self):
        good = encode_frame({"id": 2})
        corrupt = bytearray(encode_frame({"id": 1}))
        corrupt[-1] ^= 0xFF  # flip a payload byte, CRC now wrong
        decoder = FrameDecoder()
        with pytest.raises(ChecksumMismatch):
            decoder.feed(bytes(corrupt))
        # the stream stays aligned: the next frame decodes normally
        assert decoder.feed(good) == [{"id": 2}]

    def test_oversized_frame_skipped_and_stream_survives(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        big = encode_frame({"id": 1, "pad": "x" * 100})
        with pytest.raises(FrameTooLarge):
            decoder.feed(big)
        assert decoder.feed(encode_frame({"id": 2})) == [{"id": 2}]

    def test_oversized_frame_split_across_feeds(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        big = encode_frame({"id": 1, "pad": "x" * 100})
        with pytest.raises(FrameTooLarge):
            decoder.feed(big[:20])
        # the rest of the refused payload is skipped silently
        assert decoder.feed(big[20:]) == []
        assert decoder.feed(encode_frame({"id": 2})) == [{"id": 2}]

    def test_bad_magic_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(BadMagic):
            decoder.feed(b"GARBAGE!" * 4)
        with pytest.raises(BadMagic):
            decoder.feed(encode_frame({"id": 1}))

    def test_error_carries_payloads_decoded_before_it(self):
        good = encode_frame({"id": 1})
        corrupt = bytearray(encode_frame({"id": 2}))
        corrupt[-1] ^= 0xFF
        decoder = FrameDecoder()
        with pytest.raises(ChecksumMismatch) as info:
            decoder.feed(good + bytes(corrupt))
        assert info.value.decoded == [{"id": 1}]

    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_is_typed_and_drops_only_that_frame(
        self, payload
    ):
        with pytest.raises(MalformedPayload):
            decode_frame(raw_frame(payload))
        decoder = FrameDecoder()
        stream = (
            encode_frame({"id": 1})
            + raw_frame(payload)
            + encode_frame({"id": 3})
        )
        with pytest.raises(MalformedPayload) as info:
            decoder.feed(stream)
        assert info.value.decoded == [{"id": 1}]
        # the stream stays aligned: the frame behind it still decodes
        assert decoder.feed(b"") == [{"id": 3}]

    def test_wire_query_key_stable_under_renaming(self):
        a = parse_query("q(x) :- R(x), S(x,y)")
        b = parse_query("q(u) :- S(u,v), R(u)")
        assert wire_query_key(a) == wire_query_key(b)
        c = parse_query("q(y) :- R(y), S(y,z)")
        assert wire_query_key(a) == wire_query_key(c)

    def test_result_round_trip_is_bit_identical(self):
        db = sample_database()
        result = repro.DissociationEngine(db).evaluate(
            parse_query(QUERIES[1])
        )
        frame = encode_frame({"id": 1, "result": result_to_wire(result)})
        back = result_from_wire(decode_frame(frame)[0]["result"])
        assert back.scores == result.scores  # == is bit-exact on floats
        assert back.epoch == result.epoch
        assert back.optimizations == result.optimizations
        assert back.plan_count == result.plan_count


    def test_v1_peer_gets_bad_magic(self):
        frame = bytearray(encode_frame({"id": 1}))
        frame[2:4] = (1).to_bytes(2, "big")  # a version-1 header
        with pytest.raises(BadMagic):
            decode_frame(bytes(frame))
        with pytest.raises(BadMagic):
            FrameDecoder().feed(bytes(frame))


# ----------------------------------------------------------------------
# codec properties (generated answer sets, fuzzed frames)
# ----------------------------------------------------------------------
def _bits(score: float) -> bytes:
    return struct.pack(">d", score)


def _as_result(scores: dict) -> repro.engine.EvaluationResult:
    return repro.engine.EvaluationResult(
        scores=scores,
        plan_count=2,
        optimizations=Optimizations(),
        backend="memory",
        seconds=0.25,
        sql=None,
        epoch=(("R", (1, 2)),),
        cached=False,
        trace_id="t-1",
    )


_scalars = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63) - 1),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0]),
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4
)
# a column is of one type or, every few columns, of all of them mixed
_columns = st.sampled_from(
    [
        st.integers(-5, 5),
        st.integers(-(2**63), 2**63 - 1),
        st.text(max_size=4),
        st.booleans(),
        _values,
    ]
)
_scores = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0]),
)


@st.composite
def answer_sets(draw):
    columns = draw(st.lists(_columns, max_size=4))
    if not columns:  # the Boolean query: no answer, or the one () row
        return draw(st.sampled_from([{}, {(): draw(_scores)}]))
    rows = draw(st.lists(st.tuples(*columns), max_size=12))
    return {row: draw(_scores) for row in rows}


class TestCodecProperties:
    @given(answer_sets())
    @example({})
    @example({(): 0.5})
    @example({(True, 1): -0.0, (1, True): 5e-324, (0.0, -0.0): 1.0})
    @example({(2**63,): 0.5, (-(2**63),): 0.25})
    @settings(max_examples=300, deadline=None)
    def test_result_round_trip_is_type_and_bit_exact(self, scores):
        frame = encode_frame(
            {"id": 1, "ok": True, "result": result_to_wire(_as_result(scores))}
        )
        payload, consumed = decode_frame(frame)
        assert consumed == len(frame)
        back = result_from_wire(payload["result"])
        assert type(back.scores) is dict
        # repr tells True from 1 from 1.0, and -0.0 from 0.0
        assert repr(list(back.scores)) == repr(list(scores))
        assert [_bits(v) for v in back.scores.values()] == [
            _bits(v) for v in scores.values()
        ]
        assert back.epoch == (("R", (1, 2)),)
        assert back.trace_id == "t-1" and back.cached is False

    @given(answer_sets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flipped_payload_byte_drops_exactly_that_frame(self, scores, data):
        frame = bytearray(
            encode_frame({"id": 1, "result": result_to_wire(_as_result(scores))})
        )
        # anywhere behind the header: JSON head or binary block
        at = data.draw(st.integers(_HEADER.size, len(frame) - 1))
        frame[at] ^= data.draw(st.integers(1, 255))
        before, after = encode_frame({"id": 0}), encode_frame({"id": 2})
        decoder = FrameDecoder()
        with pytest.raises(ChecksumMismatch) as info:
            decoder.feed(before + bytes(frame) + after[:5])
        assert info.value.decoded == [{"id": 0}]
        assert decoder.feed(after[5:]) == [{"id": 2}]
        with pytest.raises(ChecksumMismatch):
            decode_frame(bytes(frame))

    @given(answer_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_torn_and_oversized_frames_with_a_block(self, scores, data):
        body = result_to_wire(_as_result(scores))
        frame = encode_frame({"id": 1, "result": body})
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(frame)), max_size=6))
        )
        decoder, out = FrameDecoder(), []
        for lo, hi in zip([0] + cuts, cuts + [len(frame)]):
            if hi < len(frame):
                assert out == []  # a torn prefix only ever waits
            out += decoder.feed(frame[lo:hi])
        assert out == [{"id": 1, "result": body}]
        with pytest.raises(TruncatedFrame):
            decode_frame(frame[:-1])
        # refused by size: skipped byte for byte, also across feeds
        small = FrameDecoder(max_frame_bytes=len(frame) - _HEADER.size - 1)
        cut = data.draw(st.integers(_HEADER.size, len(frame)))
        with pytest.raises(FrameTooLarge):
            small.feed(frame[:cut])
        assert small.feed(frame[cut:] + encode_frame({"id": 2})) == [{"id": 2}]


# ----------------------------------------------------------------------
# client <-> server differential
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_remote_matches_local_all_opt_combos(self, backend):
        db = sample_database()
        config = EngineConfig(backend=backend)
        with Session(db, config) as local, serve(
            db, config, port=0
        ) as server, RemoteSession(server.url, config) as remote:
            for opts in ALL_OPTIMIZATION_COMBOS:
                for text in QUERIES:
                    mine = local.evaluate(text, opts)
                    miss = remote.evaluate(text, opts)
                    hit = remote.evaluate(text, opts)
                    assert (miss.cached, hit.cached) == (False, True)
                    for theirs in (miss, hit):
                        assert type(theirs.scores) is dict
                        assert theirs.scores == mine.scores
                        assert list(map(_bits, theirs.scores.values())) == (
                            list(map(_bits, mine.scores.values()))
                        )

    def test_mid_stream_mutation_bumps_epochs_over_the_wire(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            before = remote.evaluate(QUERIES[1])
            repeat = remote.evaluate(QUERIES[1])
            assert repeat.cached and repeat.scores == before.scores

            epochs = remote.mutate(
                lambda d: d.update_probability("R", (1,), 0.99)
            )
            moved = dict(epochs)
            assert moved["R"] != dict(before.epoch)["R"]

            after = remote.evaluate(QUERIES[1])
            assert not after.cached
            local = Session(db, EngineConfig()).evaluate(QUERIES[1])
            assert after.scores == local.scores
            assert after.scores != before.scores
            again = remote.evaluate(QUERIES[1])
            assert again.cached and again.scores == local.scores

    def test_repeat_traffic_skips_the_parser(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            repeats = 5
            for _ in range(repeats):
                remote.evaluate(QUERIES[0])
            metrics = server.observer.metrics
            assert metrics.counter("net.parses") == 1
            assert metrics.counter("net.cache.hits") == repeats - 1
            assert metrics.counter("net.cache.misses") == 1

    def test_repeat_traffic_encodes_once(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            counter = server.observer.metrics.counter
            for _ in range(4):
                for text in QUERIES:
                    remote.evaluate(text)
            assert counter("net.encodes") == counter("net.parses") == 3
            assert remote.stats()["net"]["encodes"] == 3
            sent = counter("net.bytes_out")
            assert remote.evaluate(QUERIES[0]).cached
            assert counter("net.bytes_out") > sent
            # only the bodies over the touched table are encoded again
            remote.mutate(lambda d: d.update_probability("T", (1,), 0.5))
            wire = server.wire_cache.stats()
            assert (wire["size"], wire["evictions"]) == (1, 2)
            cached = [remote.evaluate(text).cached for text in QUERIES]
            assert cached == [False, True, False]  # QUERIES[1] has no T
            assert counter("net.encodes") == counter("net.parses") == 5
            text = remote.metrics_text()
            assert "repro_net_encodes 5" in text
            assert "repro_net_bytes_out" in text

    def test_submit_gather_and_evaluate_many(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            futures = [remote.submit(text) for text in QUERIES]
            results = remote.gather(futures)
            assert [r.scores for r in results] == [
                remote.evaluate(t).scores for t in QUERIES
            ]
            many = remote.evaluate_many(QUERIES)
            assert [r.scores for r in many] == [
                r.scores for r in results
            ]
            # the per-batch deadline passes through, as on a Session
            timed = remote.evaluate_many(QUERIES, timeout=20.0)
            assert [r.scores for r in timed] == [r.scores for r in many]

    @pytest.mark.parametrize(
        "method",
        [
            "evaluate",
            "submit",
            "evaluate_many",
            "scores",
            "mutate",
            "stats",
            "trace",
            "close",
        ],
    )
    def test_remote_session_takes_the_parameters_session_takes(self, method):
        local = inspect.signature(getattr(Session, method))
        remote = inspect.signature(getattr(RemoteSession, method))
        assert list(remote.parameters) == list(local.parameters)

    @pytest.mark.parametrize(
        "method",
        [
            "insert",
            "delete",
            "update_probability",
            "add_table",
            "drop_table",
            "touch",
        ],
    )
    def test_recorder_takes_the_parameters_the_tracked_helpers_take(
        self, method
    ):
        def shape(function):
            return [
                (p.name, p.kind, p.default)
                for p in inspect.signature(function).parameters.values()
            ]

        assert shape(getattr(MutationRecorder, method)) == shape(
            getattr(ProbabilisticDatabase, method)
        )

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d.insert("R", (4,), 0.125),
            lambda d: d.update_probability("T", (1,), 0.5),
            lambda d: d.delete("S", (1, 2)),
            lambda d: d.add_table("D", [(1,), (2,)]),
            lambda d: d.add_table("D", [("x", 1), ("y", 2)]),
            lambda d: d.add_table("D", [((1,), 0.5), ((2,), 0.25)]),
            lambda d: d.add_table(
                "D",
                [((1, "a"), 0.5), ((2, "b"), 1)],
                columns=("k", "v"),
                fds=(ColumnFD((0,), (1,)),),
            ),
            lambda d: d.drop_table("T"),
            lambda d: d.touch(),
        ],
        ids=[
            "insert",
            "update_probability",
            "delete",
            "add_table-bare-rows",
            "add_table-bare-pairs",
            "add_table-pairs",
            "add_table-fds",
            "drop_table",
            "touch",
        ],
    )
    def test_remote_mutate_equals_local_mutate(self, change):
        local = sample_database()
        local.mutate(change)
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            epochs = remote.mutate(change)
            assert epochs == local.epoch_vector(local.table_names)
            assert {
                t.name: (dict(t.rows), t.epoch, t.schema) for t in db
            } == {t.name: (dict(t.rows), t.epoch, t.schema) for t in local}
            session = Session(local, EngineConfig())
            for text in QUERIES:
                if "T" in db or "T(" not in text:
                    assert remote.evaluate(text).scores == (
                        session.evaluate(text).scores
                    )

    def test_remote_update_of_a_missing_row_rolls_back(self):
        db = sample_database()
        before = db.epoch_vector(db.table_names)
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            with pytest.raises(KeyError):
                remote.mutate(
                    lambda d: (
                        d.insert("R", (4,), 0.5),
                        d.update_probability("T", (9,), 0.5),
                    )
                )
            assert (4,) not in db.table("R")
            assert db.epoch_vector(db.table_names) == before

    def test_stats_trace_and_metrics_ops(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            result = remote.evaluate(QUERIES[0])
            stats = remote.stats()
            assert stats["wire_cache"]["misses"] == 1
            assert stats["pool"]["kind"] in ("thread", "process")
            assert remote.last_server_trace
            tree = remote.trace(result)
            assert tree is not None and tree["roots"]
            text = remote.metrics_text()
            assert "repro_net_requests" in text

    def test_error_mapping_and_connection_survives(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server, RemoteSession(
            server.url
        ) as remote:
            with pytest.raises(KeyError):
                remote.evaluate("q() :- Missing(x)")
            with pytest.raises(ValueError):
                remote._request(
                    {
                        "op": "evaluate",
                        "key": "k",
                        "opts": [False, False, False],
                        "relations": [],
                        "query": "q() :- R(x)",
                        "digest": "not-the-server-digest",
                    }
                )
            # the connection survives typed failures
            assert remote.evaluate(QUERIES[0]).scores

    def test_url_dispatch_via_connect(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with repro.connect(url=server.url) as remote:
                assert isinstance(remote, RemoteSession)
                assert remote.evaluate(QUERIES[0]).scores
            # a repro:// string in the db slot dispatches too
            with repro.connect(server.url) as remote:
                assert isinstance(remote, RemoteSession)


# ----------------------------------------------------------------------
# live-socket frame fuzzing
# ----------------------------------------------------------------------
class TestLiveProtocolErrors:
    def _recv_frames(self, sock, count, timeout=10.0):
        decoder = FrameDecoder()
        frames = []
        sock.settimeout(timeout)
        while len(frames) < count:
            data = sock.recv(65536)
            if not data:
                break
            frames.extend(decoder.feed(data))
        return frames

    def test_corrupt_frame_gets_typed_error_and_connection_survives(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                corrupt = bytearray(encode_frame({"id": 1, "op": "ping"}))
                corrupt[-1] ^= 0xFF
                sock.sendall(bytes(corrupt))
                (error,) = self._recv_frames(sock, 1)
                assert error["ok"] is False
                assert error["error"]["kind"] == "ChecksumMismatch"
                assert error["trace"].startswith("srv-")
                # same connection, next frame is served normally
                sock.sendall(encode_frame({"id": 2, "op": "ping"}))
                (pong,) = self._recv_frames(sock, 1)
                assert pong["ok"] and pong["pong"] and pong["id"] == 2

    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_gets_typed_error_then_the_pong(self, payload):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                # one write: the ping sits buffered behind the bad frame
                sock.sendall(
                    raw_frame(payload)
                    + encode_frame({"id": 2, "op": "ping"})
                )
                error, pong = self._recv_frames(sock, 2)
                assert error["ok"] is False and error["id"] is None
                assert error["error"]["kind"] == "MalformedPayload"
                assert pong["ok"] and pong["pong"] and pong["id"] == 2

    def test_oversized_frame_survives_on_the_wire(self):
        db = sample_database()
        with serve(
            db, EngineConfig(), port=0, max_frame_bytes=1024
        ) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                sock.sendall(
                    encode_frame({"id": 1, "op": "ping", "pad": "x" * 4096})
                )
                (error,) = self._recv_frames(sock, 1)
                assert error["error"]["kind"] == "FrameTooLarge"
                sock.sendall(encode_frame({"id": 2, "op": "ping"}))
                (pong,) = self._recv_frames(sock, 1)
                assert pong["ok"] and pong["id"] == 2

    def test_frames_with_a_block_corrupt_oversized_torn(self):
        body = result_to_wire(_as_result({(1, "a"): 0.5, (2, "b"): 0.25}))
        frame = encode_frame({"id": 1, "op": "ping", "result": body})
        db = sample_database()
        with serve(
            db, EngineConfig(), port=0, max_frame_bytes=1024
        ) as server, socket.create_connection(
            ("127.0.0.1", server.port)
        ) as sock:
            for at in (_HEADER.size + 3, len(frame) - 5):  # head, block
                corrupt = bytearray(frame)
                corrupt[at] ^= 0x40
                sock.sendall(bytes(corrupt))
                (error,) = self._recv_frames(sock, 1)
                assert error["error"]["kind"] == "ChecksumMismatch"
            big = result_to_wire(_as_result({(i,): 0.5 for i in range(100)}))
            sock.sendall(encode_frame({"id": 2, "op": "ping", "result": big}))
            (error,) = self._recv_frames(sock, 1)
            assert error["error"]["kind"] == "FrameTooLarge"
            # the same connection still serves, even a torn frame
            sock.sendall(frame[:-9])
            time.sleep(0.05)
            sock.sendall(frame[-9:])
            (pong,) = self._recv_frames(sock, 1)
            assert pong["ok"] and pong["pong"] and pong["id"] == 1

    def test_version_1_peer_is_hung_up_on(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                frame = bytearray(encode_frame({"id": 1, "op": "ping"}))
                frame[2:4] = (1).to_bytes(2, "big")
                sock.sendall(bytes(frame))
                (error,) = self._recv_frames(sock, 1)
                assert error["error"]["kind"] == "BadMagic"
                sock.settimeout(10.0)
                assert sock.recv(65536) == b""  # server hung up

    def test_bad_magic_closes_the_connection(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                sock.sendall(b"NOTAFRAME" * 4)
                (error,) = self._recv_frames(sock, 1)
                assert error["error"]["kind"] == "BadMagic"
                sock.settimeout(10.0)
                rest = b"x"
                try:
                    while rest:
                        rest = sock.recv(65536)
                except OSError:
                    rest = b""
                assert rest == b""  # server hung up

    def test_torn_frame_across_sends_is_reassembled(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                frame = encode_frame({"id": 3, "op": "ping"})
                sock.sendall(frame[:5])
                time.sleep(0.05)
                sock.sendall(frame[5:])
                (pong,) = self._recv_frames(sock, 1)
                assert pong["ok"] and pong["id"] == 3


# ----------------------------------------------------------------------
# shared-memory snapshots
# ----------------------------------------------------------------------
class TestSharedSnapshots:
    def test_export_attach_round_trip(self):
        db = sample_database()
        with SharedSnapshotManager(db) as manager:
            snap = attach_snapshot(manager.export())
            try:
                assert snap.table_names == db.table_names
                for name in db.table_names:
                    assert snap.table(name).rows == db.table(name).rows
                    assert snap.table(name).epoch == db.table_epoch(name)
                assert snap.epoch_vector(["R", "S"]) == db.epoch_vector(
                    ["R", "S"]
                )
            finally:
                snap.close()

    def test_seeded_cache_evaluates_identically(self):
        db = sample_database()
        query = parse_query(QUERIES[0])
        baseline = repro.DissociationEngine(db).evaluate(query).scores
        with SharedSnapshotManager(db) as manager:
            snap = attach_snapshot(manager.export())
            try:
                engine = repro.DissociationEngine(snap)
                cache = EvaluationCache(snap)
                seed_cache(cache, snap)
                engine.memory_executor.cache = cache
                assert engine.evaluate(query).scores == baseline
            finally:
                snap.close()

    def test_refresh_reexports_only_changed_tables(self):
        db = sample_database()
        with SharedSnapshotManager(db) as manager:
            meta1 = manager.export()
            db.insert("R", (9,), 0.1)
            meta2 = manager.refresh()
            assert meta2["generation"] == meta1["generation"] + 1
            assert (
                meta2["tables"]["R"]["segment"]
                != meta1["tables"]["R"]["segment"]
            )
            assert (
                meta2["tables"]["S"]["segment"]
                == meta1["tables"]["S"]["segment"]
            )
            snap = attach_snapshot(meta2)
            try:
                assert snap.table("R").rows == db.table("R").rows
            finally:
                snap.close()
            manager.release()

    def test_reattach_swaps_generation_in_place(self):
        db = sample_database()
        with SharedSnapshotManager(db) as manager:
            snap = attach_snapshot(manager.export())
            try:
                token = snap.version
                db.insert("T", (7,), 0.2)
                snap.reattach(manager.refresh())
                manager.release()
                assert snap.version != token
                assert snap.table("T").rows == db.table("T").rows
            finally:
                snap.close()


# ----------------------------------------------------------------------
# the multi-process pool (fork platforms only)
# ----------------------------------------------------------------------
needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork workers"
)


@needs_fork
class TestProcessPool:
    def test_process_pool_differential_and_mutation(self):
        db = sample_database()
        config = EngineConfig()
        with Session(db, config) as local, serve(
            db, config, port=0, processes=2
        ) as server, RemoteSession(server.url) as remote:
            assert server.pool.stats()["kind"] == "process"
            for text in QUERIES:
                assert (
                    remote.evaluate(text).scores
                    == local.evaluate(text).scores
                )
            remote.mutate(lambda d: d.insert("S", (3, 2), 0.41))
            for text in QUERIES:
                mine = local.evaluate(text)
                theirs = remote.evaluate(text)
                assert theirs.scores == mine.scores
            assert server.pool.stats()["generation"] == 2

    @pytest.mark.parametrize("stop", ["kill <pid>", "group-wide Ctrl-C"])
    def test_signals_stop_workers_and_unlink_segments(self, stop):
        def stat(pid):  # [state, ppid, ...] from /proc, None once gone
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    return handle.read().rsplit(")", 1)[1].split()
            except OSError:
                return None

        before = shm_segments()
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--processes", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=Path(__file__).resolve().parent.parent,
            env=dict(os.environ, PYTHONPATH="src"),
            text=True,
            start_new_session=True,  # so a failing run can sweep it
        )
        try:
            assert "pool={'kind': 'process'" in child.stdout.readline()
            children = [  # two workers (+ the resource tracker)
                int(pid)
                for pid in filter(str.isdigit, os.listdir("/proc"))
                if (stat(pid) or [None, None])[1] == str(child.pid)
            ]
            assert len(children) >= 2 and shm_segments() - before
            if stop == "kill <pid>":
                child.send_signal(signal.SIGTERM)
            else:  # the workers get it too, and must sit it out
                os.killpg(child.pid, signal.SIGINT)
            assert child.wait(timeout=5) == 0
            assert "Traceback" not in child.stdout.read()
            deadline = time.monotonic() + 2  # the tracker exits on EOF
            while time.monotonic() < deadline and any(map(stat, children)):
                time.sleep(0.05)
            assert [p for p in children if (stat(p) or "Z")[0] != "Z"] == []
            assert shm_segments() == before
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.stdout.close()

    def test_worker_metrics_are_merged(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0, processes=2) as server:
            with RemoteSession(server.url) as remote:
                for text in QUERIES:
                    remote.evaluate(text)
                text = remote.metrics_text()
        assert "repro_pool_worker_evaluations" in text

    def test_fallback_to_thread_pool_for_sqlite(self):
        db = sample_database()
        with serve(
            db, EngineConfig(backend="sqlite"), port=0, processes=2
        ) as server:
            assert server.pool.stats()["kind"] == "thread"
            with RemoteSession(server.url) as remote:
                assert remote.evaluate(QUERIES[0]).scores


# ----------------------------------------------------------------------
# cross-process metrics merge
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def test_counters_sum_histograms_combine(self):
        a = {
            "counters": {"x": 2, "y": 1},
            "gauges": {"g": 1.0},
            "histograms": {
                "h": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}
            },
            "collected": {"one": {"n": 1}},
        }
        b = {
            "counters": {"x": 3},
            "gauges": {"g": 5.0},
            "histograms": {
                "h": {"count": 1, "sum": 7.0, "min": 7.0, "max": 7.0},
                "empty": {"count": 0, "sum": 0.0},
            },
            "collected": {"two": {"n": 2}},
        }
        merged = merge_snapshots(a, b)
        assert merged["counters"] == {"x": 5, "y": 1}
        assert merged["gauges"]["g"] == 5.0  # last write wins
        h = merged["histograms"]["h"]
        assert h["count"] == 3 and h["sum"] == 10.0
        assert h["min"] == 1.0 and h["max"] == 7.0
        assert h["mean"] == pytest.approx(10.0 / 3)
        assert "empty" not in merged["histograms"]
        assert merged["collected"] == {"one": {"n": 1}, "two": {"n": 2}}


# ----------------------------------------------------------------------
# client lifecycle
# ----------------------------------------------------------------------
class TestClientLifecycle:
    def test_server_close_under_a_live_connection_is_quiet(self, monkeypatch):
        reported = []
        monkeypatch.setattr(sys, "unraisablehook", reported.append)
        server = serve(sample_database(), EngineConfig(), port=0)
        server._loop.call_soon_threadsafe(
            server._loop.set_exception_handler,
            lambda loop, context: reported.append(context),
        )
        remote = RemoteSession(server.url)
        try:
            assert remote.evaluate(QUERIES[0]).scores
            server.close()
            gc.collect()  # a task destroyed while pending reports here
            assert reported == []
            assert "repro-serve" not in {
                thread.name for thread in threading.enumerate()
            }
        finally:
            remote.close()

    def test_malformed_response_fails_pending_requests_at_once(self):
        # a stand-in server whose encoder is broken: it answers the
        # hello, then replies to the next request with bytes that pass
        # the checksum but are not a payload
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def broken_server() -> None:
            conn, _ = listener.accept()
            with conn:
                decoder = FrameDecoder()
                for reply in ("hello", "garbage"):
                    requests = []
                    while not requests:
                        requests = decoder.feed(conn.recv(65536))
                    if reply == "garbage":
                        conn.sendall(raw_frame(b"not json"))
                        break
                    conn.sendall(
                        encode_frame(
                            {
                                "id": requests[0]["id"],
                                "ok": True,
                                "protocol": PROTOCOL_VERSION,
                                "digest": "d",
                                "backend": "memory",
                            }
                        )
                    )
                conn.recv(65536)  # hold the line until the client hangs up

        thread = threading.Thread(target=broken_server, daemon=True)
        thread.start()
        try:
            remote = RemoteSession(f"repro://127.0.0.1:{port}", timeout=30.0)
            try:
                started = time.monotonic()
                future = remote.submit(QUERIES[0])
                with pytest.raises(ServiceClosed):
                    future.result(timeout=10.0)
                assert time.monotonic() - started < 10.0
                # the reader closed its socket on the way out
                remote._reader.join(timeout=5.0)
                assert not remote._reader.is_alive()
                assert remote._sock is None and not remote._pending
            finally:
                remote.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_response_buffered_behind_a_dropped_frame_is_not_stalled(self):
        # a stand-in server that answers two pipelined pings in ONE
        # write: a frame with a flipped payload byte (request 1's
        # response, dropped as a checksum mismatch), then a valid pong
        # for request 2 — which must not wait for the server's next byte
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def pong(request: dict) -> bytes:
            return encode_frame(
                {
                    "id": request["id"],
                    "ok": True,
                    "pong": True,
                    "protocol": PROTOCOL_VERSION,
                    "digest": "d",
                    "backend": "memory",
                }
            )

        def flaky_server() -> None:
            conn, _ = listener.accept()
            with conn:
                decoder = FrameDecoder()
                requests: list = []

                def read(count: int) -> list:
                    while len(requests) < count:
                        data = conn.recv(65536)
                        if not data:
                            return []
                        requests.extend(decoder.feed(data))
                    taken, requests[:] = requests[:count], requests[count:]
                    return taken

                conn.sendall(pong(read(1)[0]))  # the hello
                first, second = read(2)
                corrupt = bytearray(pong(first))
                corrupt[-1] ^= 0xFF
                conn.sendall(bytes(corrupt) + pong(second))
                while True:  # later traffic is answered normally
                    later = read(1)
                    if not later:
                        return
                    conn.sendall(pong(later[0]))

        thread = threading.Thread(target=flaky_server, daemon=True)
        thread.start()
        try:
            with RemoteSession(f"repro://127.0.0.1:{port}") as remote:
                first = remote._send({"op": "ping"})
                second = remote._send({"op": "ping"})
                assert second.result(timeout=0.5)["pong"]
                # request 1's response was the corrupt frame: nothing
                # says whose it was, so it fails by its own timeout only
                with pytest.raises(TimeoutError):
                    first.result(timeout=0.2)
                assert remote.ping()
                assert remote.reconnects == 0
        finally:
            listener.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_gather_timeout_is_one_overall_budget(self):
        from concurrent.futures import Future

        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            with RemoteSession(server.url) as remote:
                futures = [Future() for _ in range(3)]
                timers = [
                    threading.Timer(delay, future.set_result, args=(delay,))
                    for delay, future in zip((0.15, 0.30, 0.45), futures)
                ]
                for timer in timers:
                    timer.start()
                started = time.monotonic()
                try:
                    # per-future timeouts would return all three at 0.45s
                    with pytest.raises(TimeoutError):
                        remote.gather(futures, timeout=0.2)
                    assert time.monotonic() - started < 0.3
                finally:
                    for timer in timers:
                        timer.join()

    def test_closed_session_raises_typed(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            remote = RemoteSession(server.url)
            remote.close()
            with pytest.raises(ServiceClosed):
                remote.evaluate(QUERIES[0])

    def test_reconnect_after_server_side_drop(self):
        db = sample_database()
        with serve(db, EngineConfig(), port=0) as server:
            remote = RemoteSession(server.url)
            try:
                assert remote.evaluate(QUERIES[0]).scores
                # kill the transport under the client; the next
                # idempotent request redials transparently
                remote._sock.shutdown(socket.SHUT_RDWR)
                deadline = time.time() + 5.0
                while remote._sock is not None and time.time() < deadline:
                    time.sleep(0.01)
                assert remote.evaluate(QUERIES[0]).scores
                assert remote.reconnects >= 1
            finally:
                remote.close()
