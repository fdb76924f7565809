"""Length-prefixed message framing for the distributed backend.

Every message between the distributed driver and its workers travels
as one *frame*: an 8-byte big-endian unsigned length followed by that
many payload bytes (a pickled Python object — the cluster is assumed
trusted, as with ``multiprocessing`` pipes).  The same codec runs over
every transport: a TCP socket to another host, or the in-process
socketpair of the loopback transport, so a loopback test exercises the
exact bytes a multi-host run would put on the wire.

Failure modes are explicit, never silent:

* a frame announcing more than ``max_frame`` bytes raises
  :class:`FrameError` before any payload is read (a corrupt or
  malicious length cannot make the receiver allocate unboundedly);
* a connection that ends *inside* a frame (header or payload) raises
  :class:`FrameError` naming the truncation;
* a connection that ends cleanly *between* frames raises
  :class:`ConnectionClosed` — the normal "peer is gone" signal the
  driver turns into a worker-death error.

Frames are received **in place**: each out-of-band buffer is read with
``recv_into`` into the one ``bytearray`` the unpickled array then wraps
(so received arrays are writable), and sent straight from the source
array's memory — a column block crossing the wire exists once on each
side.
"""

from __future__ import annotations

import pickle
import struct

__all__ = [
    "DEFAULT_MAX_FRAME",
    "TransportError",
    "FrameError",
    "ConnectionClosed",
    "send_frame",
    "recv_frame",
    "send_message",
    "recv_message",
]

#: Default per-frame size cap (1 GiB).  The largest message is a
#: worker's init (its shard of the heavy columns plus the replicated
#: ones); sync and migration move :data:`~repro.bulk.blocks.BLOCK_BYTES`
#: blocks.
DEFAULT_MAX_FRAME = 1 << 30

_HEADER = struct.Struct(">Q")


class TransportError(RuntimeError):
    """Base class for distributed-transport failures."""


class FrameError(TransportError):
    """A malformed frame: truncated mid-message or oversized."""


class ConnectionClosed(TransportError):
    """The peer closed the connection cleanly (between frames)."""


def _recv_exactly(sock, count: int, context: str) -> bytearray:
    """Read exactly ``count`` bytes into the one buffer returned, or
    raise.  A clean EOF before the first byte raises
    :class:`ConnectionClosed`; an EOF after some bytes raises
    :class:`FrameError` (the peer died mid-frame)."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        got = sock.recv_into(view[received:])
        if not got:
            if received == 0 and context == "header":
                raise ConnectionClosed("connection closed by peer")
            raise FrameError(
                f"truncated frame: connection closed after {received} of "
                f"{count} {context} bytes"
            )
        received += got
    return buffer


def send_frame(sock, payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> None:
    """Write one length-prefixed frame."""
    if len(payload) > max_frame:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {max_frame}-byte cap"
        )
    sock.sendall(_HEADER.pack(len(payload)))
    sock.sendall(payload)


def recv_frame(sock, max_frame: int = DEFAULT_MAX_FRAME) -> bytearray:
    """Read one length-prefixed frame; see the module docstring for the
    failure contract."""
    header = _recv_exactly(sock, _HEADER.size, "header")
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameError(
            f"peer announced a {length}-byte frame, over the "
            f"{max_frame}-byte cap"
        )
    return _recv_exactly(sock, length, "payload")


#: Out-of-band message sub-header: buffer count, then pickle length.
_OOB_HEADER = struct.Struct(">IQ")
_OOB_LEN = struct.Struct(">Q")


def send_message(sock, obj, max_frame: int = DEFAULT_MAX_FRAME) -> int:
    """Pickle ``obj`` with protocol-5 *out-of-band* buffers and send it
    as one frame; returns the total bytes written after the 8-byte
    frame header.

    Buffer-bearing objects (numpy arrays, anything exposing
    ``__reduce_ex__`` picklable buffers) are serialized as a small
    pickle plus their raw contiguous bytes, written straight from the
    source memory via ``sendall`` — no intermediate copy of the column
    data.  Frame layout after the length header::

        >I  number of out-of-band buffers
        >Q  pickle length
        >Q  per-buffer length, repeated
        ... pickle bytes
        ... raw buffer bytes, in order
    """
    buffers = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    total = (
        _OOB_HEADER.size
        + _OOB_LEN.size * len(views)
        + len(data)
        + sum(view.nbytes for view in views)
    )
    if total > max_frame:
        raise FrameError(
            f"frame of {total} bytes exceeds the {max_frame}-byte cap"
        )
    header = [
        _HEADER.pack(total),
        _OOB_HEADER.pack(len(views), len(data)),
    ]
    header.extend(_OOB_LEN.pack(view.nbytes) for view in views)
    sock.sendall(b"".join(header) + data)
    for view in views:
        sock.sendall(view)
    return total


def recv_message(sock, max_frame: int = DEFAULT_MAX_FRAME, with_size: bool = False):
    """Receive and unpickle one out-of-band framed message.  With
    ``with_size=True`` returns ``(obj, total_bytes)`` where the total
    matches what :func:`send_message` reported."""
    header = _recv_exactly(sock, _HEADER.size, "header")
    (total,) = _HEADER.unpack(header)
    if total > max_frame:
        raise FrameError(
            f"peer announced a {total}-byte frame, over the "
            f"{max_frame}-byte cap"
        )
    sub = _recv_exactly(sock, _OOB_HEADER.size, "payload")
    nbuf, pickle_len = _OOB_HEADER.unpack(sub)
    # Parts are allocated from lengths the peer sent: hold them to the
    # (already capped) frame total first.
    known = _OOB_HEADER.size + _OOB_LEN.size * nbuf + pickle_len
    lengths = []
    if nbuf and known <= total:
        raw = _recv_exactly(sock, _OOB_LEN.size * nbuf, "payload")
        lengths = [
            _OOB_LEN.unpack_from(raw, i * _OOB_LEN.size)[0] for i in range(nbuf)
        ]
    if known + sum(lengths) != total:
        raise FrameError(f"inconsistent frame: parts do not add up to {total} bytes")
    data = _recv_exactly(sock, pickle_len, "payload")
    buffers = [_recv_exactly(sock, length, "payload") for length in lengths]
    obj = pickle.loads(data, buffers=buffers)
    return (obj, total) if with_size else obj
