"""The plfsd wire protocol: length-prefixed binary frames.

One frame is a 4-byte big-endian payload length followed by the payload.
Requests carry ``(opcode u8, request_id u32, op-specific fields)``;
responses carry ``(status u8, request_id u32, body)`` where the body is
the opcode's reply fields on success or the *typed error envelope*
``(errno i32, kind str, message str)`` on failure.  ``kind`` names the
server-side exception class, so the client can re-raise the same
:mod:`repro.plfs.errors` type the in-process path would have raised —
daemon and direct-path callers see identical failures.

Field encoding is deliberately minimal: fixed-width integers plus
length-prefixed UTF-8 strings and raw byte blobs, described per opcode by
a spec tuple (see :data:`REQUEST_SPECS` / :data:`REPLY_SPECS`) so both
sides pack and unpack from one table.  No pickling; the one JSON body is
the ``stats`` reply.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Frames above this are protocol violations (guards the server against a
#: garbage length prefix allocating gigabytes).  A request is one path;
#: the largest reply is the stats document.
MAX_FRAME = 4 * 1024 * 1024

LEN_PREFIX = struct.Struct("!I")
REQ_HEADER = struct.Struct("!BI")  # opcode, request_id
REP_HEADER = struct.Struct("!BI")  # status, request_id

STATUS_OK = 0
STATUS_ERROR = 1

# ---------------------------------------------------------------------- #
# opcodes (numbered as in version 1: the gaps are its retired data opcodes)
# ---------------------------------------------------------------------- #

OP_HELLO = 1
OP_CREATE = 9
OP_STATS = 11
OP_PING = 12
OP_SHUTDOWN = 13

OP_NAMES = {
    OP_HELLO: "hello",
    OP_CREATE: "create",
    OP_STATS: "stats",
    OP_PING: "ping",
    OP_SHUTDOWN: "shutdown",
}

#: request body per opcode: a tuple of (name, type) fields, packed in order
REQUEST_SPECS: dict[int, tuple[tuple[str, str], ...]] = {
    OP_HELLO: (("name", "str"),),
    OP_CREATE: (("path", "str"), ("mode", "u32"), ("exclusive", "u32")),
    OP_STATS: (),
    OP_PING: (),
    OP_SHUTDOWN: (),
}

#: success-reply body per opcode
REPLY_SPECS: dict[int, tuple[tuple[str, str], ...]] = {
    OP_HELLO: (("client_id", "u32"), ("server_pid", "u32"), ("version", "u32")),
    OP_CREATE: (),
    OP_STATS: (("json", "bytes"),),
    OP_PING: (("server_pid", "u32"),),
    OP_SHUTDOWN: (),
}

ERROR_SPEC: tuple[tuple[str, str], ...] = (
    ("errno", "i32"),
    ("kind", "str"),
    ("message", "str"),
)

VERSION = 2

_U32 = struct.Struct("!I")
_I32 = struct.Struct("!i")


class ProtocolError(Exception):
    """A malformed frame or field — the peer broke the wire contract."""


@dataclass(frozen=True)
class Request:
    opcode: int
    request_id: int
    fields: dict

    @property
    def name(self) -> str:
        return OP_NAMES.get(self.opcode, f"op{self.opcode}")


@dataclass(frozen=True)
class Reply:
    status: int
    request_id: int
    fields: dict

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class RemoteError(OSError):
    """The decoded error envelope: what the server-side call raised.

    Carries the original errno and exception class name so callers (and
    tests) can match on either; being an :class:`OSError` it surfaces to
    interposed applications exactly like the in-process failure would.
    """

    def __init__(self, err: int, kind: str, message: str):
        super().__init__(err, message)
        self.kind = kind


# ---------------------------------------------------------------------- #
# field packing
# ---------------------------------------------------------------------- #


def _pack_fields(spec, values: dict) -> bytes:
    out = []
    for name, ftype in spec:
        value = values[name]
        if ftype == "u32":
            out.append(_U32.pack(value))
        elif ftype == "i32":
            out.append(_I32.pack(value))
        elif ftype == "str":
            raw = value.encode("utf-8")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
        elif ftype == "bytes":
            out.append(_U32.pack(len(value)))
            out.append(value)
        else:  # pragma: no cover - spec tables are static
            raise ProtocolError(f"unknown field type {ftype!r}")
    return b"".join(out)


def _unpack_fields(spec, buf: memoryview, pos: int) -> tuple[dict, int]:
    values: dict = {}
    for name, ftype in spec:
        try:
            if ftype == "u32":
                (values[name],) = _U32.unpack_from(buf, pos)
                pos += 4
            elif ftype == "i32":
                (values[name],) = _I32.unpack_from(buf, pos)
                pos += 4
            elif ftype in ("str", "bytes"):
                (n,) = _U32.unpack_from(buf, pos)
                pos += 4
                if pos + n > len(buf):
                    raise ProtocolError(
                        f"field {name!r} claims {n} bytes past frame end"
                    )
                raw = bytes(buf[pos : pos + n])
                pos += n
                values[name] = raw.decode("utf-8") if ftype == "str" else raw
            else:  # pragma: no cover - spec tables are static
                raise ProtocolError(f"unknown field type {ftype!r}")
        except struct.error as exc:
            raise ProtocolError(f"truncated field {name!r}: {exc}") from None
    return values, pos


# ---------------------------------------------------------------------- #
# frame encoding
# ---------------------------------------------------------------------- #


def encode_request(opcode: int, request_id: int, **fields) -> bytes:
    spec = REQUEST_SPECS.get(opcode)
    if spec is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    body = REQ_HEADER.pack(opcode, request_id) + _pack_fields(spec, fields)
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"request frame too large: {len(body)} bytes")
    return LEN_PREFIX.pack(len(body)) + body


def decode_request(payload: bytes) -> Request:
    if len(payload) < REQ_HEADER.size:
        raise ProtocolError(f"request frame too short: {len(payload)} bytes")
    opcode, request_id = REQ_HEADER.unpack_from(payload, 0)
    spec = REQUEST_SPECS.get(opcode)
    if spec is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    fields, pos = _unpack_fields(spec, memoryview(payload), REQ_HEADER.size)
    if pos != len(payload):
        raise ProtocolError(
            f"{OP_NAMES[opcode]} request carries {len(payload) - pos} trailing bytes"
        )
    return Request(opcode, request_id, fields)


def encode_reply(opcode: int, request_id: int, **fields) -> bytes:
    spec = REPLY_SPECS.get(opcode)
    if spec is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    body = REP_HEADER.pack(STATUS_OK, request_id) + _pack_fields(spec, fields)
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"reply frame too large: {len(body)} bytes")
    return LEN_PREFIX.pack(len(body)) + body


def encode_error(request_id: int, err: int, kind: str, message: str) -> bytes:
    body = REP_HEADER.pack(STATUS_ERROR, request_id) + _pack_fields(
        ERROR_SPEC, {"errno": err, "kind": kind, "message": message}
    )
    return LEN_PREFIX.pack(len(body)) + body


def decode_reply(payload: bytes, opcode: int) -> Reply:
    if len(payload) < REP_HEADER.size:
        raise ProtocolError(f"reply frame too short: {len(payload)} bytes")
    status, request_id = REP_HEADER.unpack_from(payload, 0)
    spec = ERROR_SPEC if status == STATUS_ERROR else REPLY_SPECS.get(opcode)
    if spec is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    fields, pos = _unpack_fields(spec, memoryview(payload), REP_HEADER.size)
    if pos != len(payload):
        raise ProtocolError(
            f"reply carries {len(payload) - pos} trailing bytes"
        )
    return Reply(status, request_id, fields)


def raise_remote(reply: Reply) -> None:
    """Re-raise the error envelope in *reply* as the matching exception.

    Known :mod:`repro.plfs.errors` kinds come back as that exact class (so
    ``except PlfsError`` works identically on both paths); anything else
    surfaces as :class:`RemoteError`, still an ``OSError`` with the
    original errno.
    """
    assert reply.status == STATUS_ERROR
    err = reply.fields["errno"]
    kind = reply.fields["kind"]
    message = reply.fields["message"]
    from repro.plfs import errors as plfs_errors

    cls = getattr(plfs_errors, kind, None)
    if isinstance(cls, type) and issubclass(cls, plfs_errors.PlfsError):
        raise cls(message, err)
    raise RemoteError(err, kind, message)


# ---------------------------------------------------------------------- #
# stream helpers
# ---------------------------------------------------------------------- #


async def read_frame_async(reader) -> bytes | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        # asyncio.IncompleteReadError subclasses EOFError; a peer dying
        # mid-header is treated as disconnect, not protocol violation.
        header = await reader.readexactly(LEN_PREFIX.size)
    except (EOFError, ConnectionError):
        return None
    (length,) = LEN_PREFIX.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    return await reader.readexactly(length)


def read_frame_sync(sock) -> bytes | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, LEN_PREFIX.size)
    if header is None:
        return None
    (length,) = LEN_PREFIX.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return payload


def _recv_exactly(sock, n: int) -> bytes | None:
    """``n`` bytes from *sock*; ``None`` on EOF before the first byte,
    :class:`ProtocolError` on EOF mid-way (a torn frame)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
