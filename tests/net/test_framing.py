"""Frame codec: round-trips, incremental decoding, protocol violations.

Both receive paths — the incremental :class:`ScatterParser` and the
exact-framed :func:`recv_frame` — are held to the same contract, and a
differential property checks that they agree on every stream.
"""

from __future__ import annotations

import socket
import threading
import tracemalloc
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import framing
from repro.net.errors import FrameError, FrameTooLargeError, TruncatedFrameError
from repro.net.framing import (
    FLAG_BATCH,
    HEADER,
    MAGIC,
    PROTOCOL_V2,
    V2_META,
    V2_SEGMENT,
    ScatterParser,
    encode_frame_v2,
    recv_frame,
)

KB = 1024


def v2_wire(segments, **kwargs) -> bytes:
    """Join a scatter list into contiguous wire bytes (test helper)."""
    return b"".join(bytes(part) for part in encode_frame_v2(segments, **kwargs))


def encode_frame(payload: bytes) -> bytes:
    """A single-segment frame carrying ``payload`` (test helper)."""
    return v2_wire([payload])


def payloads(parser: ScatterParser, data) -> list[bytes]:
    """Feed ``data`` and return each completed frame's single segment."""
    return [frame.segments[0] for frame in parser.feed(data)]


class TestRoundTrip:
    def test_single_frame(self):
        wire = encode_frame(b"hello")
        decoder = ScatterParser()
        assert payloads(decoder, wire) == [b"hello"]
        assert decoder.at_boundary
        assert decoder.pending_bytes == 0

    def test_empty_payload(self):
        assert payloads(ScatterParser(), encode_frame(b"")) == [b""]

    def test_back_to_back_frames_in_one_feed(self):
        wire = encode_frame(b"one") + encode_frame(b"two") + encode_frame(b"three")
        assert payloads(ScatterParser(), wire) == [b"one", b"two", b"three"]

    @given(payloads=st.lists(st.binary(max_size=2048), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_many_payloads_round_trip(self, payloads):
        wire = b"".join(encode_frame(p) for p in payloads)
        decoder = ScatterParser()
        assert [f.segments for f in decoder.feed(wire)] == [[p] for p in payloads]
        decoder.eof()  # stream ends exactly on a frame boundary

    @given(
        payloads=st.lists(st.binary(max_size=512), min_size=1, max_size=6),
        chunk=st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=50, deadline=None)
    def test_byte_dribble_reassembles(self, payloads, chunk):
        # However the stream is fragmented, the decoder reassembles the
        # exact payload sequence — the property TCP delivery depends on.
        wire = b"".join(encode_frame(p) for p in payloads)
        decoder = ScatterParser()
        out = []
        for start in range(0, len(wire), chunk):
            out.extend(f.segments[0] for f in decoder.feed(wire[start : start + chunk]))
        assert out == payloads
        assert decoder.frames_decoded == len(payloads)


class TestRejection:
    def test_bad_magic_rejected(self):
        wire = bytearray(encode_frame(b"x"))
        wire[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            ScatterParser().feed(bytes(wire))

    def test_bad_version_rejected(self):
        # Every version byte but 2 is a framing violation — 1 included:
        # there is one frame format and nothing to fall back to.
        for version in (0, 1, 3, 255):
            wire = bytearray(encode_frame(b"x"))
            wire[1] = version
            with pytest.raises(FrameError, match="version"):
                ScatterParser().feed(bytes(wire))

    def test_garbage_rejected(self):
        with pytest.raises(FrameError):
            ScatterParser().feed(b"GET / HTTP/1.1\r\n\r\n")

    def test_oversized_announcement_rejected_before_buffering(self):
        # The length field announces more than the cap: rejected from the
        # header alone, without waiting for (or buffering) the body.
        wire = HEADER.pack(MAGIC, PROTOCOL_V2, 1024 * 1024)
        decoder = ScatterParser(max_frame=1024)
        with pytest.raises(FrameTooLargeError) as excinfo:
            decoder.feed(wire)
        assert excinfo.value.announced == 1024 * 1024
        assert excinfo.value.limit == 1024

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame_v2([b"x" * 2048], max_frame=1024)

    def test_truncated_stream_detected_at_eof(self):
        wire = encode_frame(b"hello world")
        decoder = ScatterParser()
        decoder.feed(wire[:-3])
        assert decoder.pending_bytes > 0
        assert not decoder.at_boundary
        with pytest.raises(TruncatedFrameError):
            decoder.eof()

    def test_truncated_header_detected_at_eof(self):
        decoder = ScatterParser()
        decoder.feed(encode_frame(b"payload")[:3])
        with pytest.raises(TruncatedFrameError):
            decoder.eof()

    @given(junk=st.binary(min_size=HEADER.size, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_random_junk_never_decodes_silently(self, junk):
        # Random bytes either raise FrameError or stay pending; any frame
        # that does come out corresponds exactly to a validly-headed
        # region of the input — junk never invents payloads.
        decoder = ScatterParser(max_frame=1 << 16)
        try:
            frames = decoder.feed(junk)
        except FrameError:
            return
        position = 0
        for frame in frames:
            magic, version, length = HEADER.unpack_from(junk, position)
            assert magic == MAGIC and version == PROTOCOL_V2
            body = junk[position + HEADER.size : position + HEADER.size + length]
            assert len(body) == length
            assert sum(map(len, frame.segments)) <= length
            position += HEADER.size + length


class TestV2RoundTrip:
    def test_multi_segment_frame(self):
        segments = [b"head", b"x" * 100, b"", b"tail"]
        parser = ScatterParser()
        (frame,) = parser.feed(v2_wire(segments))
        assert frame.segments == segments
        assert not frame.is_batch
        assert parser.at_boundary and parser.pending_bytes == 0

    def test_batch_flag_round_trips(self):
        (frame,) = ScatterParser().feed(
            v2_wire([b"msg-1", b"msg-2"], flags=FLAG_BATCH)
        )
        assert frame.is_batch
        assert frame.segments == [b"msg-1", b"msg-2"]

    def test_encode_scatter_list_is_copy_free_for_bulk(self):
        bulk = b"z" * (256 * KB)
        parts = encode_frame_v2([b"head", bulk])
        # The caller's buffer object itself rides in the scatter list.
        assert any(part is bulk for part in parts)

    @given(
        segments=st.lists(
            st.binary(max_size=2 * KB), min_size=1, max_size=8
        ),
        chunk=st.integers(min_value=1, max_value=23),
    )
    @settings(max_examples=50, deadline=None)
    def test_dribble_reassembles_exact_segments(self, segments, chunk):
        wire = v2_wire(segments)
        parser = ScatterParser()
        frames = []
        for start in range(0, len(wire), chunk):
            frames.extend(parser.feed(wire[start : start + chunk]))
        assert [f.segments for f in frames] == [segments]
        parser.eof()

    @given(
        segments=st.lists(
            st.binary(max_size=4 * KB), min_size=1, max_size=6
        ),
        compress_threshold=st.one_of(
            st.none(), st.integers(min_value=1, max_value=8 * KB)
        ),
        chunk=st.integers(min_value=1, max_value=4 * KB),
    )
    @settings(max_examples=50, deadline=None)
    def test_compression_flag_round_trips(
        self, segments, compress_threshold, chunk
    ):
        # Whatever subset of segments the threshold compresses, the
        # receiver reconstructs the originals bit-for-bit.
        wire = v2_wire(segments, compress_threshold=compress_threshold)
        parser = ScatterParser()
        frames = []
        for start in range(0, len(wire), chunk):
            frames.extend(parser.feed(wire[start : start + chunk]))
        assert [f.segments for f in frames] == [segments]

    def test_compression_shrinks_compressible_wire(self):
        bulk = b"a" * (512 * KB)
        compressed = v2_wire([b"head", bulk], compress_threshold=KB)
        raw = v2_wire([b"head", bulk])
        assert len(compressed) < len(raw) // 10

    def test_incompressible_segments_travel_raw(self):
        # Already-compressed bytes would *grow* under zlib: the encoder
        # must keep them raw rather than flag a larger segment.
        bulk = zlib.compress(b"b" * (64 * KB), 9)
        wire = v2_wire([bulk], compress_threshold=16)
        (frame,) = ScatterParser().feed(wire)
        assert frame.segments == [bulk]
        assert len(wire) < len(bulk) + 64  # header + table only

    def test_direct_receive_path_matches_feed_path(self):
        bulk = bytes(range(256)) * (4 * KB)  # 1 MiB, above direct cutoff
        wire = v2_wire([b"head", bulk, b"tail"])
        parser = ScatterParser()
        frames = list(parser.feed(wire[: 4 * KB]))
        position = 4 * KB
        while position < len(wire):
            target = parser.wants_direct()
            if target is not None:
                take = min(len(target), 100 * KB, len(wire) - position)
                target[:take] = wire[position : position + take]
                frames.extend(parser.advance_direct(take))
            else:
                take = min(KB, len(wire) - position)
                frames.extend(parser.feed(wire[position : position + take]))
            position += take
        assert [f.segments for f in frames] == [[b"head", bulk, b"tail"]]
        assert parser.at_boundary

    @given(junk=st.binary(min_size=HEADER.size, max_size=128))
    @settings(max_examples=50, deadline=None)
    def test_random_junk_never_decodes_silently_v2(self, junk):
        # Longer junk: it either raises, stays pending, or decodes only
        # validly-headed frames.
        parser = ScatterParser(max_frame=1 << 16)
        try:
            frames = parser.feed(junk)
        except FrameError:
            return
        for frame in frames:
            magic, version, _ = HEADER.unpack_from(junk, 0)
            assert magic == MAGIC and version == PROTOCOL_V2

    def test_corrupt_compressed_segment_raises(self):
        wire = bytearray(v2_wire([b"c" * (8 * KB)], compress_threshold=16))
        wire[-1] ^= 0xFF  # flip a bit inside the zlib stream
        with pytest.raises(FrameError):
            ScatterParser().feed(bytes(wire))

    def test_segment_table_must_sum_to_frame_length(self):
        wire = bytearray(v2_wire([b"abc", b"defg"]))
        wire[HEADER.size + 3 + 3] += 1  # inflate segment 0's table entry
        with pytest.raises(FrameError, match="table"):
            ScatterParser().feed(bytes(wire))


class TestDecoderLinearity:
    def test_small_frame_burst_compaction_is_linear(self):
        # The old decoder deleted the buffer prefix per decoded frame, so
        # a burst of n frames arriving in one read cost O(n^2) bytes of
        # memmove.  Offset draining must keep total compaction work below
        # the bytes that actually flowed through the buffer.
        frames = 20_000
        wire = b"".join(encode_frame(b"ping-%d" % i) for i in range(frames))
        decoder = ScatterParser()
        out = decoder.feed(wire)  # the whole burst in one feed
        assert len(out) == frames
        assert decoder.bytes_compacted <= len(wire)

    def test_chunked_burst_stays_linear_too(self):
        frames = 20_000
        wire = b"".join(encode_frame(b"op-%d" % i) for i in range(frames))
        decoder = ScatterParser()
        count = 0
        for start in range(0, len(wire), 4 * KB):
            count += len(decoder.feed(wire[start : start + 4 * KB]))
        assert count == frames
        assert decoder.bytes_compacted <= len(wire)

    def test_peak_memory_bounded_while_draining(self):
        # Like the WriteAggregator linearity test: dribbling many small
        # frames through one decoder must not accumulate memory beyond
        # the frames in flight.
        wire = b"".join(encode_frame(b"x" * 32) for _ in range(20_000))
        decoder = ScatterParser()
        tracemalloc.start()
        try:
            for start in range(0, len(wire), 4 * KB):
                decoder.feed(wire[start : start + 4 * KB])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoder.frames_decoded == 20_000
        assert peak < 2 * KB * KB, f"peak {peak} bytes suggests buffer pile-up"


class TestRecvFrame:
    """Exact-framed socket reads: the threaded client's receive path."""

    @staticmethod
    def _pair():
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    @staticmethod
    def _send(sock, wire: bytes):
        sender = threading.Thread(target=sock.sendall, args=(wire,))
        sender.start()
        return sender

    def test_back_to_back_frames(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame(b"hello") + encode_frame(b"world"))
            first = recv_frame(right)
            second = recv_frame(right)
            assert first.segments == [b"hello"]
            assert second.segments == [b"world"]
        finally:
            left.close()
            right.close()

    def test_v2_small_frame_one_gulp(self):
        left, right = self._pair()
        try:
            left.sendall(v2_wire([b"head", b"tail"]))
            frame = recv_frame(right)
            assert frame.segments == [b"head", b"tail"]
        finally:
            left.close()
            right.close()

    def test_v2_bulk_segments_land_as_exact_bytes(self):
        # Above the gulp cutoff each segment is read straight into its
        # own buffer: the returned bytes must match and be independent.
        bulk = bytes(range(256)) * (512 * KB // 256)
        left, right = self._pair()
        try:
            sender = self._send(left, v2_wire([b"head", bulk]))
            frame = recv_frame(right)
            sender.join()
            assert frame.segments[0] == b"head"
            assert frame.segments[1] == bulk
            assert isinstance(frame.segments[1], bytes)
        finally:
            left.close()
            right.close()

    def test_compressed_segment_decodes_transparently(self):
        payload = b"ab" * (64 * KB)
        wire = v2_wire([b"head", payload], compress_threshold=KB)
        assert len(wire) < len(payload)  # compression engaged on the wire
        left, right = self._pair()
        try:
            sender = self._send(left, wire)
            frame = recv_frame(right)
            sender.join()
            assert frame.segments == [b"head", payload]
        finally:
            left.close()
            right.close()

    def test_clean_eof_at_boundary_returns_none(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame(b"last"))
            left.close()
            assert recv_frame(right).segments == [b"last"]
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_raises_truncated(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame(b"x" * 1000)[:40])
            left.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(right)
        finally:
            right.close()

    def test_junk_stream_raises_frame_error(self):
        left, right = self._pair()
        try:
            left.sendall(b"GET / HTTP/1.1\r\n")
            with pytest.raises(FrameError, match="magic"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_version_1_frame_rejected(self):
        left, right = self._pair()
        try:
            wire = bytearray(v2_wire([b"seg"]))
            wire[1] = 1
            left.sendall(bytes(wire))
            with pytest.raises(FrameError, match="version"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame(b"y" * 2048))
            with pytest.raises(FrameTooLargeError):
                recv_frame(right, max_frame=KB)
        finally:
            left.close()
            right.close()


def _recv_all(sock) -> tuple[list, type | None]:
    """Every frame :func:`recv_frame` reads off ``sock``, then the error
    type that stopped it (``None`` at a clean end of stream)."""
    frames = []
    while True:
        try:
            frame = recv_frame(sock, max_frame=_DIFF_MAX_FRAME)
        except FrameError as exc:
            return frames, type(exc)
        if frame is None:
            return frames, None
        frames.append(frame)


def _parse_all(
    stream: bytes, chunk: int, *, direct: bool, direct_cutoff: int
) -> tuple[list, type | None]:
    """The same, through a :class:`ScatterParser` fed ``chunk`` bytes at a
    time — via ``wants_direct``/``advance_direct`` whenever a bulk segment
    is pending and ``direct`` is set, via ``feed`` otherwise."""
    parser = ScatterParser(max_frame=_DIFF_MAX_FRAME, direct_cutoff=direct_cutoff)
    frames = []
    position = 0
    try:
        while position < len(stream):
            take = min(chunk, len(stream) - position)
            target = parser.wants_direct() if direct else None
            if target is not None:
                take = min(take, len(target))
                target[:take] = stream[position : position + take]
                frames.extend(parser.advance_direct(take))
            else:
                frames.extend(parser.feed(stream[position : position + take]))
            position += take
        parser.eof()
    except FrameError as exc:
        return frames, type(exc)
    return frames, None


#: Small enough that generated frames cross it, raw and decoded.
_DIFF_MAX_FRAME = 4 * KB

_segments = st.lists(
    st.one_of(
        st.binary(max_size=64),
        # Repetitive runs: compressible, and large enough to reach the
        # direct-receive path and the frame limit.
        st.binary(min_size=1, max_size=300).map(lambda b: b * 8),
    ),
    min_size=1,
    max_size=5,
)


@st.composite
def _wire_streams(draw) -> bytes:
    pieces = []
    kinds = ("frame", "batch", "compressed", "junk", "bad-version", "corrupt")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "junk":
            pieces.append(draw(st.binary(min_size=1, max_size=40)))
            continue
        segments = draw(_segments)
        wire = bytearray(
            v2_wire(
                segments,
                flags=FLAG_BATCH if kind == "batch" else 0,
                compress_threshold=16 if kind == "compressed" else None,
            )
        )
        if kind == "bad-version":
            wire[1] = draw(st.integers(0, 255).filter(lambda v: v != PROTOCOL_V2))
        elif kind == "corrupt":  # one byte of the length, prelude or table
            table_end = HEADER.size + V2_META.size + len(segments) * V2_SEGMENT.size
            wire[draw(st.integers(2, table_end - 1))] = draw(st.integers(0, 255))
        pieces.append(bytes(wire))
    stream = b"".join(pieces)
    if draw(st.booleans()):  # truncation anywhere, boundaries included
        stream = stream[: draw(st.integers(0, len(stream)))]
    return stream


class TestReadPathDifferential:
    """The two receive paths must agree on every stream.

    The threaded client reads with :func:`recv_frame`, the asyncio server
    with :class:`ScatterParser`; keeping both is only safe if no stream —
    valid, junk, truncated or of the wrong version — can tell them apart.
    """

    @pytest.mark.parametrize("gulp_cutoff", [framing._GULP_CUTOFF, 0])
    @given(
        stream=_wire_streams(),
        chunk=st.integers(min_value=1, max_value=2 * KB),
        direct=st.booleans(),
        direct_cutoff=st.sampled_from([32, framing.DIRECT_CUTOFF]),
    )
    @settings(max_examples=150, deadline=None)
    def test_recv_frame_and_scatter_parser_agree(
        self, gulp_cutoff, stream, chunk, direct, direct_cutoff
    ):
        left, right = socket.socketpair()
        right.settimeout(5.0)

        def send() -> None:
            left.sendall(stream)
            left.shutdown(socket.SHUT_WR)

        sender = threading.Thread(target=send)
        sender.start()
        try:
            with mock.patch.object(framing, "_GULP_CUTOFF", gulp_cutoff):
                received, recv_error = _recv_all(right)
        finally:
            right.close()  # unblocks the sender if the reader stopped early
            sender.join(5.0)
            left.close()
        assert not sender.is_alive()
        parsed, parse_error = _parse_all(
            stream, chunk, direct=direct, direct_cutoff=direct_cutoff
        )
        assert parse_error is recv_error
        got = [(f.flags, f.segments) for f in parsed]
        want = [(f.flags, f.segments) for f in received]
        if parse_error is None:
            assert got == want
        else:
            # A chunk that ends in an error drops the frames it completed
            # before the error; the frames both paths report must agree.
            assert got == want[: len(got)]


class TestDecodedSizeBound:
    """A frame's *decoded* size is capped at ``max_frame``, not each segment's."""

    @staticmethod
    def _bomb() -> bytes:
        # Eight zlib segments, each inflating to just under 1 MiB: every
        # segment passes a per-segment limit, the frame is ~7.5 MB.
        segment = b"\0" * (960 * KB)
        wire = v2_wire([segment] * 8, compress_threshold=1)
        assert len(wire) < 64 * KB
        return wire

    def test_scatter_parser_rejects_bomb(self):
        with pytest.raises(FrameError, match="decodes past"):
            ScatterParser(max_frame=1024 * KB).feed(self._bomb())

    def test_recv_frame_rejects_bomb(self):
        left, right = socket.socketpair()
        try:
            left.sendall(self._bomb())
            with pytest.raises(FrameError, match="decodes past"):
                recv_frame(right, max_frame=1024 * KB)
        finally:
            left.close()
            right.close()

    def test_frame_at_the_limit_decodes(self):
        # Segments summing to exactly max_frame decode: the bound is on
        # the payload, and anything the encoder accepts decodes.
        limit = 64 * KB
        segments = [b"a" * (limit // 2), b"b" * (limit // 2)]
        wire = v2_wire(segments, max_frame=limit, compress_threshold=1)
        (frame,) = ScatterParser(max_frame=limit).feed(wire)
        assert frame.segments == segments

    def test_encoder_bounds_raw_size_too(self):
        # Compression shrinks this frame far below the limit, but its
        # decoded size does not fit: refused at encode, not at decode.
        with pytest.raises(FrameTooLargeError):
            encode_frame_v2([b"\0" * (2 * KB)], max_frame=KB, compress_threshold=1)

    def test_announced_size_below_table_rejected(self):
        wire = HEADER.pack(MAGIC, PROTOCOL_V2, V2_META.size + V2_SEGMENT.size - 1)
        with pytest.raises(FrameError, match="too short"):
            ScatterParser().feed(wire)
