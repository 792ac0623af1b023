"""Wire protocol of the annotation service: length-prefixed JSON frames.

The daemon and its clients exchange single JSON documents over a local
stream socket.  Each frame is a 4-byte big-endian payload length followed by
that many bytes of UTF-8 JSON — trivial to parse incrementally, impossible
to mis-split on newlines inside source code, and safe against a hostile or
corrupt peer: the length prefix is validated *before* any payload buffer is
allocated, so a frame that claims to be larger than ``max_frame_bytes``
(or whose header is garbage — e.g. negative when read as a signed 32-bit
integer) raises :class:`ProtocolError` instead of allocating an
attacker-controlled amount of memory, and a truncated payload raises
instead of wedging the connection.

The same frame format runs over both transports the daemon listens on — a
Unix stream socket (the single-process default) and TCP (the fleet
front-end).  :func:`parse_address` classifies an endpoint string as one or
the other, so clients and the CLI accept either interchangeably.
"""

from __future__ import annotations

import json
import socket
import struct
from pathlib import Path
from typing import Optional, Tuple, Union

#: Default upper bound on a single frame; a whole project's sources fit
#: comfortably, a corrupted length prefix does not allocate gigabytes.
#: Callers (e.g. the daemon via ``ServeConfig.max_frame_bytes``) can pass a
#: tighter ``max_frame_bytes`` to :func:`recv_frame` / :func:`send_frame`.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Lengths with the sign bit set are negative when read as an int32 — no
#: well-behaved peer sends them, so they are rejected as garbage outright
#: (independently of the configured cap).
_SIGN_BIT = 1 << 31


class ProtocolError(RuntimeError):
    """A malformed frame (bad length, truncated payload, invalid or undecodable JSON)."""


#: Anything :func:`parse_address` understands: a Unix socket path, a
#: ``host:port`` / ``tcp://host:port`` string, or a ``(host, port)`` tuple.
ServeAddress = Union[str, Path, Tuple[str, int]]


def parse_address(address: ServeAddress) -> tuple[str, Union[str, tuple[str, int]]]:
    """Classify a serving endpoint as Unix-socket or TCP.

    Returns ``("unix", path_string)`` or ``("tcp", (host, port))``.  The
    rules are unambiguous rather than clever:

    * a :class:`~pathlib.Path` or ``(host, port)`` tuple is taken at face
      value;
    * ``tcp://host:port`` and ``unix://path`` force a transport explicitly;
    * a bare string counts as TCP only when it looks like nothing else —
      ``host:port`` with a purely numeric port and no path separator (a Unix
      socket path containing ``/`` always stays a path, even with colons).
    """
    if isinstance(address, tuple):
        host, port = address
        return "tcp", (str(host), int(port))
    if isinstance(address, Path):
        return "unix", str(address)
    text = str(address)
    if text.startswith("tcp://"):
        host, _, port = text[len("tcp://"):].rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"malformed TCP address {text!r}: expected tcp://HOST:PORT")
        return "tcp", (host, int(port))
    if text.startswith("unix://"):
        return "unix", text[len("unix://"):]
    host, separator, port = text.rpartition(":")
    if separator and host and "/" not in text and port.isdigit():
        return "tcp", (host, int(port))
    return "unix", text


def format_address(address: ServeAddress) -> str:
    """A human-readable ``unix://…`` / ``tcp://…`` rendering of an endpoint."""
    kind, target = parse_address(address)
    if kind == "tcp":
        host, port = target
        return f"tcp://{host}:{port}"
    return f"unix://{target}"


def connect_address(address: ServeAddress, timeout: Optional[float] = None) -> socket.socket:
    """Open a client socket of the right family and connect it.

    The caller owns the returned socket; connect failures propagate (the
    client's retry policy treats them as transient).
    """
    kind, target = parse_address(address)
    family = socket.AF_INET if kind == "tcp" else socket.AF_UNIX
    connection = socket.socket(family, socket.SOCK_STREAM)
    try:
        if timeout is not None:
            connection.settimeout(timeout)
        connection.connect(target)
    except BaseException:
        connection.close()
        raise
    return connection


def send_frame(sock: socket.socket, payload: dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    """Serialise ``payload`` and write one length-prefixed frame."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > max_frame_bytes:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the {max_frame_bytes} byte cap")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exactly(sock: socket.socket, num_bytes: int) -> Optional[bytes]:
    """Read exactly ``num_bytes``; ``None`` on clean EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = num_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(f"connection closed mid-frame ({remaining} bytes missing)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_frame_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """Read one frame; ``None`` when the peer closed the connection cleanly.

    The length prefix is validated before the payload buffer is read: frames
    above ``max_frame_bytes`` and garbage headers (negative as an int32) are
    rejected with :class:`ProtocolError` without allocating their claimed
    size.
    """
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length >= _SIGN_BIT:
        raise ProtocolError(
            f"garbage frame length {length:#010x} (negative as a signed 32-bit integer)"
        )
    if length > max_frame_bytes:
        raise ProtocolError(f"frame length {length} exceeds the {max_frame_bytes} byte cap")
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed between frame header and payload")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and integers past the interpreter's
        # digit limit; RecursionError, arrays or objects nested past the stack.
        raise ProtocolError(f"invalid frame payload: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame payload must be a JSON object, got {type(payload).__name__}")
    return payload
