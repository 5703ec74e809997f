"""Wire-protocol unit tests: framing, round-trips, the error envelope."""

from __future__ import annotations

import errno
import struct

import pytest

from repro.plfs import errors as plfs_errors
from repro.plfsd import protocol as proto


class TestRequestRoundTrip:
    @pytest.mark.parametrize(
        "opcode,fields",
        [
            (proto.OP_HELLO, {"name": "client-7"}),
            (proto.OP_CREATE, {"path": "/b/файл", "mode": 0o600, "exclusive": 1}),
            (proto.OP_STATS, {}),
            (proto.OP_PING, {}),
            (proto.OP_SHUTDOWN, {}),
        ],
    )
    def test_every_opcode_round_trips(self, opcode, fields):
        frame = proto.encode_request(opcode, 77, **fields)
        (length,) = proto.LEN_PREFIX.unpack(frame[:4])
        assert length == len(frame) - 4
        request = proto.decode_request(frame[4:])
        assert request.opcode == opcode
        assert request.request_id == 77
        assert request.fields == fields

    def test_unknown_opcode_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.encode_request(200, 1)
        bogus = struct.pack("!BI", 200, 1)
        with pytest.raises(proto.ProtocolError):
            proto.decode_request(bogus)


class TestReplyRoundTrip:
    def test_ok_reply(self):
        frame = proto.encode_reply(
            proto.OP_HELLO, 5, client_id=123, server_pid=77, version=proto.VERSION
        )
        reply = proto.decode_reply(frame[4:], proto.OP_HELLO)
        assert reply.ok
        assert reply.request_id == 5
        assert reply.fields == {"client_id": 123, "server_pid": 77, "version": 2}

    def test_stats_reply_carries_raw_bytes(self):
        payload = bytes(range(256))
        frame = proto.encode_reply(proto.OP_STATS, 8, json=payload)
        assert proto.decode_reply(frame[4:], proto.OP_STATS).fields["json"] == payload


class TestErrorEnvelope:
    def test_known_plfs_kind_reraises_same_class(self):
        frame = proto.encode_error(
            9, errno.ENOENT, "ContainerNotFoundError", "no such file: /b/x"
        )
        reply = proto.decode_reply(frame[4:], proto.OP_CREATE)
        assert not reply.ok
        with pytest.raises(plfs_errors.ContainerNotFoundError) as exc_info:
            proto.raise_remote(reply)
        assert exc_info.value.errno == errno.ENOENT

    def test_unknown_kind_becomes_remote_error(self):
        frame = proto.encode_error(9, errno.EBADF, "SomethingWeird", "boom")
        reply = proto.decode_reply(frame[4:], proto.OP_STATS)
        with pytest.raises(proto.RemoteError) as exc_info:
            proto.raise_remote(reply)
        assert exc_info.value.errno == errno.EBADF
        assert exc_info.value.kind == "SomethingWeird"
        assert isinstance(exc_info.value, OSError)

    def test_non_plfs_class_name_never_instantiated(self):
        # A hostile peer naming an arbitrary attribute of the errors module
        # must not get it called; only PlfsError subclasses re-raise.
        frame = proto.encode_error(1, errno.EIO, "errno", "nope")
        reply = proto.decode_reply(frame[4:], proto.OP_PING)
        with pytest.raises(proto.RemoteError):
            proto.raise_remote(reply)


class TestMalformedFrames:
    def test_truncated_fixed_field(self):
        frame = proto.encode_request(proto.OP_CREATE, 3, path="/b/x", mode=0o644, exclusive=0)
        with pytest.raises(proto.ProtocolError):
            proto.decode_request(frame[4:-2])

    def test_string_length_past_frame_end(self):
        body = struct.pack("!BI", proto.OP_CREATE, 1) + struct.pack("!I", 999) + b"ab"
        with pytest.raises(proto.ProtocolError):
            proto.decode_request(body)

    def test_trailing_garbage_rejected(self):
        frame = proto.encode_request(proto.OP_PING, 1)
        with pytest.raises(proto.ProtocolError):
            proto.decode_request(frame[4:] + b"junk")

    def test_short_header(self):
        with pytest.raises(proto.ProtocolError):
            proto.decode_request(b"\x01")
        with pytest.raises(proto.ProtocolError):
            proto.decode_reply(b"\x00", proto.OP_PING)

    def test_oversized_request_refused_at_encode(self):
        with pytest.raises(proto.ProtocolError):
            proto.encode_request(proto.OP_HELLO, 1, name="x" * (proto.MAX_FRAME + 1))


class TestSyncFraming:
    def test_recv_exactly_over_socketpair(self):
        import socket

        a, b = socket.socketpair()
        try:
            frame = proto.encode_request(proto.OP_HELLO, 4, name="x" * 3000)
            a.sendall(frame)
            payload = proto.read_frame_sync(b)
            assert proto.decode_request(payload).fields["name"] == "x" * 3000
            a.close()
            assert proto.read_frame_sync(b) is None  # clean EOF
        finally:
            b.close()

    def test_mid_frame_eof_is_protocol_error(self):
        import socket

        a, b = socket.socketpair()
        try:
            frame = proto.encode_request(proto.OP_PING, 1)
            a.sendall(frame[:3])  # torn inside the length prefix
            a.close()
            with pytest.raises(proto.ProtocolError):
                proto.read_frame_sync(b)
        finally:
            b.close()

    def test_giant_length_prefix_rejected(self):
        import socket

        a, b = socket.socketpair()
        try:
            a.sendall(proto.LEN_PREFIX.pack(proto.MAX_FRAME + 1))
            with pytest.raises(proto.ProtocolError):
                proto.read_frame_sync(b)
        finally:
            a.close()
            b.close()
