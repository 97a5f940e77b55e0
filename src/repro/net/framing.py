"""Frame codec: the wire format of the service layer.

Every frame starts with a fixed header followed by a *segment table*
and the segments themselves::

    +-------+---------+------------------+-----------------+
    | magic | version | payload length   | payload bytes   |
    | 1 B   | 1 B     | 4 B big-endian   | <length> bytes  |
    +-------+---------+------------------+-----------------+

    payload := flags(1B)  nseg(2B BE)
               nseg x [ stored_length(4B BE)  seg_flags(1B) ]
               segment bytes, concatenated

    frame flags:   bit 0 = FLAG_BATCH — every segment is one complete
                   encoded message (small-op coalescing envelope)
    segment flags: bits 0-3 = codec id of a compressed segment
                   (0 = raw, 1 = zlib)

The magic byte rejects a stream that is not an RPC stream at all at the
first frame; the version byte must be :data:`PROTOCOL_V2`.  A message's
bulk payloads (pages, blocks) travel as their *own* segments, so the
sender can hand the original buffers to a scatter-gather write
(``sendmsg`` / ``writelines``) without ever concatenating them into one
heap-allocated frame, and the receiver can place each bulk segment into
an exactly-sized buffer instead of re-slicing a grow-and-compact
accumulation buffer.

Two receive paths exist, one per I/O model, and both validate through
the same header, segment-table and decoded-size checks:

* :class:`ScatterParser` — the incremental decoder of the asyncio
  server.  It accepts arbitrary chunk boundaries via
  :meth:`ScatterParser.feed` (small data is absorbed into an
  offset-drained buffer — amortized O(1) per byte, no per-frame prefix
  deletion) and, while a bulk segment is pending, exposes the exact
  remaining region of that segment's buffer via
  :meth:`ScatterParser.wants_direct` so the caller can ``recv_into`` it
  with no intermediate copy.
* :func:`recv_frame` — exact-framed blocking reads for the threaded
  client: the header announces the frame length and the table every
  segment size, so each bulk segment is one ``MSG_WAITALL`` read.
"""

from __future__ import annotations

import socket
import struct
import zlib
from typing import Sequence

from .errors import FrameError, FrameTooLargeError, TruncatedFrameError

__all__ = [
    "MAGIC",
    "PROTOCOL_V2",
    "HEADER",
    "V2_META",
    "V2_SEGMENT",
    "FLAG_BATCH",
    "DEFAULT_MAX_FRAME",
    "encode_frame_v2",
    "recv_frame",
    "Frame",
    "ScatterParser",
]

#: First byte of every frame; anything else on the stream is garbage.
MAGIC = 0xB5
#: The version byte of every frame (the scatter-gather wire protocol).
PROTOCOL_V2 = 2
#: Frame header: magic byte, protocol version, payload length.
HEADER = struct.Struct(">BBI")
#: Payload prelude: frame flags, segment count.
V2_META = struct.Struct(">BH")
#: One segment-table entry: stored length, segment flags.
V2_SEGMENT = struct.Struct(">IB")
#: Frame flag: every segment is one complete encoded message.
FLAG_BATCH = 0x01
#: Low nibble of a segment's flags: codec id (0 = uncompressed).
SEG_CODEC_MASK = 0x0F
#: Codec id of a zlib-compressed segment.
CODEC_ZLIB = 1
#: Default ceiling on a frame's payload (pages are <= a few MiB; 64 MiB
#: leaves room for whole-block transfers plus pickling overhead).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
#: Ceiling on a frame's segment count (sanity bound on the table).
MAX_SEGMENTS = 4096
#: Segments at least this large are received straight into an
#: exactly-sized buffer instead of through the chunk accumulation path.
DIRECT_CUTOFF = 64 * 1024
#: Smallest legal payload: the prelude plus one table entry.
_MIN_PAYLOAD = V2_META.size + V2_SEGMENT.size


# -- encoding --------------------------------------------------------------------------


def _nbytes(segment) -> int:
    return segment.nbytes if isinstance(segment, memoryview) else len(segment)


def encode_frame_v2(
    segments: Sequence,
    *,
    flags: int = 0,
    max_frame: int = DEFAULT_MAX_FRAME,
    compress_threshold: int | None = None,
) -> list:
    """Encode one frame as a scatter-gather list, copy-free.

    Returns ``[head, seg0, seg1, ...]`` where ``head`` is the fixed
    header plus the segment table and every other element is the
    caller's buffer itself (bytes or memoryview) — hand the list to
    ``socket.sendmsg`` / ``writer.writelines`` and the bulk payloads are
    never concatenated or copied by this layer.

    Segments of at least ``compress_threshold`` bytes are zlib-compressed
    and flagged, but only when that actually shrinks them — incompressible
    pages travel raw.  Both the encoded frame and the segments' raw total
    must fit ``max_frame``, which is exactly what the receiver enforces,
    so any frame that encodes also decodes.
    """
    if not segments:
        raise ValueError("a frame needs at least one segment")
    if len(segments) > MAX_SEGMENTS:
        raise ValueError(f"too many segments ({len(segments)} > {MAX_SEGMENTS})")
    out: list = []
    entries: list[tuple[int, int]] = []
    total = V2_META.size + len(segments) * V2_SEGMENT.size
    raw = 0
    for segment in segments:
        size = _nbytes(segment)
        raw += size
        seg_flags = 0
        if compress_threshold is not None and size >= compress_threshold:
            # Level 1: the wire codec trades ratio for speed — threshold
            # compression exists to win on fat, compressible payloads,
            # not to stall the event loop grinding incompressible pages.
            packed = zlib.compress(segment, 1)
            if len(packed) < size:
                segment, size, seg_flags = packed, len(packed), CODEC_ZLIB
        entries.append((size, seg_flags))
        out.append(segment)
        total += size
    if max(total, raw) > max_frame:
        raise FrameTooLargeError(max(total, raw), max_frame)
    head = bytearray(HEADER.pack(MAGIC, PROTOCOL_V2, total))
    head += V2_META.pack(flags, len(entries))
    for size, seg_flags in entries:
        head += V2_SEGMENT.pack(size, seg_flags)
    out.insert(0, bytes(head))
    return out


# -- validation (shared by both receive paths) ------------------------------------------


def _parse_header(buf, offset: int, max_frame: int) -> int:
    """Validate the fixed header at ``offset``; return the payload length."""
    magic, version, length = HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise FrameError(
            f"bad frame magic 0x{magic:02X} (expected "
            f"0x{MAGIC:02X}): not an RPC stream"
        )
    if version != PROTOCOL_V2:
        raise FrameError(
            f"unsupported protocol version {version} (expected {PROTOCOL_V2})"
        )
    if length > max_frame:
        raise FrameTooLargeError(length, max_frame)
    if length < _MIN_PAYLOAD:
        raise FrameError(f"frame announces {length} bytes, too short for a table")
    return length


def _parse_meta(buf, offset: int, length: int) -> tuple[int, int]:
    """Validate the payload prelude; return ``(flags, nseg)``."""
    flags, nseg = V2_META.unpack_from(buf, offset)
    if not 1 <= nseg <= MAX_SEGMENTS:
        raise FrameError(f"frame announces {nseg} segments")
    if V2_META.size + nseg * V2_SEGMENT.size > length:
        raise FrameError("segment table exceeds the frame length")
    return flags, nseg


def _parse_table(buf, offset: int, nseg: int, length: int) -> list[tuple[int, int]]:
    """Validate the segment table; return its ``(size, seg_flags)`` entries."""
    entries = [
        V2_SEGMENT.unpack_from(buf, offset + i * V2_SEGMENT.size) for i in range(nseg)
    ]
    declared = V2_META.size + nseg * V2_SEGMENT.size + sum(s for s, _ in entries)
    if declared != length:
        raise FrameError(
            f"segment table sums to {declared} bytes but the "
            f"frame announces {length}"
        )
    return entries


def _decode_segment(data: bytes, seg_flags: int, decoded: int, max_frame: int) -> bytes:
    """Undo a segment's codec flag, capping the frame's decoded total.

    ``decoded`` is what earlier segments of the frame already decoded
    to: the whole frame, not each segment, must fit ``max_frame`` — the
    decompression-bomb guard.
    """
    budget = max_frame - decoded
    code = seg_flags & SEG_CODEC_MASK
    if code == CODEC_ZLIB:
        inflater = zlib.decompressobj()
        try:
            data = inflater.decompress(data, budget + 1)
        except zlib.error as exc:
            raise FrameError(f"corrupt compressed segment: {exc!r}") from exc
        if not inflater.eof and len(data) <= budget:
            raise FrameError("truncated compressed segment")
    elif code:
        raise FrameError(f"unknown segment codec id {code}")
    if len(data) > budget:
        raise FrameError(f"frame decodes past the {max_frame}-byte frame limit")
    return data


# -- incremental decoding --------------------------------------------------------------


class Frame:
    """One decoded frame: its flags and segments."""

    __slots__ = ("flags", "segments")

    def __init__(self, flags: int, segments: list[bytes]) -> None:
        self.flags = flags
        self.segments = segments

    @property
    def is_batch(self) -> bool:
        """True when every segment is one complete encoded message."""
        return bool(self.flags & FLAG_BATCH)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(s) for s in self.segments]
        return f"Frame(flags=0x{self.flags:02X}, segments={sizes})"


#: Parser stages, in stream order.
_HEADER, _META, _TABLE, _SEGMENT = range(4)
#: Compact the accumulation buffer once this many bytes are drained.
_COMPACT_AT = 64 * 1024


class ScatterParser:
    """Incremental scatter-gather frame parser.

    Not thread-safe: each connection owns exactly one parser (frames of
    one stream are sequential by construction).  Two input paths exist:

    * :meth:`feed` — arbitrary chunks from any byte source.  Small data
      (headers, tables, sub-cutoff segments) accumulates in an
      offset-drained buffer: the read offset advances per frame and the
      buffer is compacted only once a threshold of dead prefix builds
      up, so decoding *n* small frames costs O(n), not O(n²).
    * :meth:`wants_direct` / :meth:`advance_direct` — while a bulk
      segment (>= ``direct_cutoff``) is incomplete, the parser exposes
      the exact remaining region of that segment's preallocated buffer,
      so a socket reader can ``recv_into`` it and the payload is written
      in place with zero intermediate copies.

    A malformed stream (bad magic, unknown version, oversized
    announcement, inconsistent segment table) raises
    :class:`FrameError`; the parser — and the connection feeding it —
    is unusable afterwards.
    """

    __slots__ = (
        "max_frame",
        "direct_cutoff",
        "_buf",
        "_off",
        "_stage",
        "_length",
        "_flags",
        "_nseg",
        "_table",
        "_segments",
        "_decoded",
        "_direct",
        "_direct_view",
        "_direct_filled",
        "_pending",
        "_broken",
        "frames_decoded",
        "bytes_compacted",
    )

    def __init__(
        self,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        direct_cutoff: int = DIRECT_CUTOFF,
    ) -> None:
        if max_frame < 1:
            raise ValueError("max_frame must be positive")
        if direct_cutoff < 1:
            raise ValueError("direct_cutoff must be positive")
        self.max_frame = max_frame
        self.direct_cutoff = direct_cutoff
        self._buf = bytearray()
        self._off = 0
        self._stage = _HEADER
        self._length = 0
        self._flags = 0
        self._nseg = 0
        self._table: list[tuple[int, int]] = []
        self._segments: list[bytes] = []
        #: Decoded bytes of the current frame's segments so far.
        self._decoded = 0
        self._direct: bytearray | None = None
        self._direct_view: memoryview | None = None
        self._direct_filled = 0
        #: Bytes absorbed towards the next, still-incomplete frame.
        self._pending = 0
        self._broken = False
        #: Total frames decoded (monitoring/tests).
        self.frames_decoded = 0
        #: Bytes moved by buffer compaction — the copy-work metric the
        #: linearity regression test asserts on (the old decoder's
        #: per-frame prefix deletion made this quadratic in a burst).
        self.bytes_compacted = 0

    # -- introspection -----------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next, still-incomplete frame."""
        return self._pending

    @property
    def at_boundary(self) -> bool:
        """True when the stream may end here without truncating a frame."""
        return self._pending == 0

    # -- direct (scatter-receive) path -------------------------------------------------
    def wants_direct(self) -> memoryview | None:
        """The exact region a pending bulk segment still needs, if any.

        When non-``None``, the caller should ``recv_into`` this view and
        report progress through :meth:`advance_direct`.  Feeding through
        :meth:`feed` remains correct meanwhile — mixed use is safe.
        """
        if self._direct_view is None:
            return None
        return self._direct_view[self._direct_filled :]

    def advance_direct(self, nbytes: int) -> list[Frame]:
        """Record ``nbytes`` received into :meth:`wants_direct`'s view."""
        if self._direct is None:
            raise RuntimeError("no bulk segment is pending direct receive")
        self._check_usable()
        self._direct_filled += nbytes
        self._pending += nbytes
        frames: list[Frame] = []
        if self._direct_filled >= len(self._direct):
            self._run(frames)
        return frames

    # -- chunked path ------------------------------------------------------------------
    def feed(self, data) -> list[Frame]:
        """Absorb one chunk and return every frame it completes."""
        self._check_usable()
        frames: list[Frame] = []
        view = memoryview(data)
        if self._direct is not None:
            # A bulk segment is mid-receive: route its remainder straight
            # into the preallocated buffer, never through the small buffer.
            need = len(self._direct) - self._direct_filled
            take = min(need, view.nbytes)
            self._direct_view[self._direct_filled : self._direct_filled + take] = (
                view[:take]
            )
            self._direct_filled += take
            self._pending += take
            view = view[take:]
            if self._direct_filled < len(self._direct):
                return frames  # the whole chunk went into the segment
        if view.nbytes:
            self._buf += view
            self._pending += view.nbytes
        self._run(frames)
        return frames

    def eof(self) -> None:
        """Signal end of stream; raises if it ends inside a frame."""
        if self._pending:
            raise TruncatedFrameError(
                f"stream ended with {self._pending} bytes of an incomplete frame"
            )

    # -- internals ---------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._broken:
            raise FrameError("parser is unusable after a protocol violation")

    def _fail(self, error: FrameError) -> FrameError:
        self._broken = True
        return error

    def _available(self) -> int:
        return len(self._buf) - self._off

    def _run(self, frames: list[Frame]) -> None:
        try:
            self._parse(frames)
        except FrameError as exc:
            raise self._fail(exc) from None
        finally:
            self._compact()

    def _parse(self, frames: list[Frame]) -> None:
        while True:
            if self._stage == _HEADER:
                if self._available() < HEADER.size:
                    return
                self._length = _parse_header(self._buf, self._off, self.max_frame)
                self._off += HEADER.size
                self._stage = _META
            elif self._stage == _META:
                if self._available() < V2_META.size:
                    return
                self._flags, self._nseg = _parse_meta(
                    self._buf, self._off, self._length
                )
                self._off += V2_META.size
                self._stage = _TABLE
            elif self._stage == _TABLE:
                need = self._nseg * V2_SEGMENT.size
                if self._available() < need:
                    return
                self._table = _parse_table(
                    self._buf, self._off, self._nseg, self._length
                )
                self._off += need
                self._segments = []
                self._decoded = 0
                self._stage = _SEGMENT
            else:  # _SEGMENT
                index = len(self._segments)
                if index >= len(self._table):
                    self._emit(frames)
                    continue
                size, seg_flags = self._table[index]
                if self._direct is not None:
                    if self._direct_filled < size:
                        return
                    segment = bytes(self._direct)
                    self._direct = self._direct_view = None
                    self._direct_filled = 0
                else:
                    available = self._available()
                    if available < size:
                        if size >= self.direct_cutoff:
                            # Bulk segment: preallocate its exact buffer,
                            # move what already arrived, and let the caller
                            # receive the remainder straight into it.
                            self._direct = bytearray(size)
                            self._direct_view = memoryview(self._direct)
                            self._direct_view[:available] = memoryview(self._buf)[
                                self._off : self._off + available
                            ]
                            self._direct_filled = available
                            self._off += available
                        return
                    segment = bytes(memoryview(self._buf)[self._off : self._off + size])
                    self._off += size
                segment = _decode_segment(
                    segment, seg_flags, self._decoded, self.max_frame
                )
                self._decoded += len(segment)
                self._segments.append(segment)

    def _emit(self, frames: list[Frame]) -> None:
        frames.append(Frame(self._flags, self._segments))
        self._pending -= HEADER.size + self._length
        self._segments = []
        self._stage = _HEADER
        self.frames_decoded += 1

    def _compact(self) -> None:
        if self._off == len(self._buf):
            if self._off:
                self._buf.clear()
                self._off = 0
        elif self._off >= _COMPACT_AT:
            self.bytes_compacted += len(self._buf) - self._off
            del self._buf[: self._off]
            self._off = 0


# -- exact-framed socket reads ---------------------------------------------------------

#: Frames no larger than this are read by :func:`recv_frame` in one gulp
#: (two syscalls for a whole small-op or batch frame); larger frames get
#: per-segment reads so every bulk segment lands in its own buffer.
_GULP_CUTOFF = 64 * 1024


def _recv_upto(sock: socket.socket, count: int) -> bytes:
    """Up to ``count`` bytes from a blocking socket, short only at EOF.

    ``MSG_WAITALL`` makes the kernel assemble the full run into a single
    allocation — for a bulk segment this is the *only* user-space copy
    of the payload, and the resulting immutable ``bytes`` is adopted
    as-is by the pickle-5 out-of-band decode path.
    """
    data = sock.recv(count, socket.MSG_WAITALL)
    if len(data) == count or not data:
        return data
    # MSG_WAITALL can return short (signals, huge reads, EOF): finish by hand.
    parts = [data]
    got = len(data)
    while got < count:
        more = sock.recv(count - got, socket.MSG_WAITALL)
        if not more:
            break
        parts.append(more)
        got += len(more)
    return b"".join(parts)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Exactly ``count`` bytes from a blocking socket, as one ``bytes``."""
    data = _recv_upto(sock, count)
    if len(data) < count:
        raise TruncatedFrameError("stream ended inside a frame")
    return data


def recv_frame(
    sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME
) -> Frame | None:
    """Read one whole frame from a blocking socket, minimally copied.

    The stream's self-describing layout makes exact reads possible: the
    fixed header announces the frame length, the segment table announces
    every segment's size.  Small frames arrive in one gulp; each bulk
    segment of a large frame is read with ``MSG_WAITALL`` straight into
    its own immutable ``bytes`` — no accumulation buffer, no re-slicing,
    no materialization copy.  This is the receive path of the threaded
    client; the asyncio server uses :class:`ScatterParser`, and both
    validate in the same order, so a stream yields the same frames and
    the same error through either.

    Returns ``None`` on a clean end-of-stream at a frame boundary.
    Raises :class:`FrameError` (stream corrupt) or
    :class:`TruncatedFrameError` (peer died mid-frame) otherwise.
    """
    header = _recv_upto(sock, HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise TruncatedFrameError("stream ended inside a frame header")
    length = _parse_header(header, 0, max_frame)
    if length <= _GULP_CUTOFF:
        # One read for the whole payload, then slices of it.  A short
        # read at EOF still validates the prefix that arrived, exactly as
        # the incremental parser would have, before the truncation shows.
        body = memoryview(_recv_upto(sock, length))
        offset = 0

        def take(count: int) -> bytes:
            nonlocal offset
            if offset + count > len(body):
                raise TruncatedFrameError("stream ended inside a frame")
            offset += count
            return bytes(body[offset - count : offset])

    else:

        def take(count: int) -> bytes:
            return _recv_exact(sock, count) if count else b""

    flags, nseg = _parse_meta(take(V2_META.size), 0, length)
    table = take(nseg * V2_SEGMENT.size)
    segments: list[bytes] = []
    decoded = 0
    for size, seg_flags in _parse_table(table, 0, nseg, length):
        segment = _decode_segment(take(size), seg_flags, decoded, max_frame)
        decoded += len(segment)
        segments.append(segment)
    return Frame(flags, segments)
