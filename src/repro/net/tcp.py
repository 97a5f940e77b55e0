"""TCP transport: asyncio RPC server + multiplexing client connections.

The server (:class:`RpcServer`) runs an asyncio event loop on a
dedicated thread.  Each connection is a framed stream received through
``asyncio.BufferedProtocol``: the shared
:class:`~repro.net.framing.ScatterParser` steers small data (headers,
segment tables, metadata ops) into a scratch buffer and bulk segments
straight into their own exactly-sized buffers, so a multi-MiB page is
written to memory once on receive.  Every decoded request is handled as
its own task (dispatch runs in the loop's default executor because
services are synchronous objects), so *many requests of one connection
execute concurrently* and responses return in completion order — the
correlation id, not arrival order, pairs them up.

The client (:class:`TcpTransport`) keeps a small per-peer connection
pool.  Each pooled connection multiplexes any number of in-flight calls:
a writer lock serialises frame writes (each frame leaves through one
scatter-gather ``sendmsg``, bulk payloads uncopied), a background reader
thread demultiplexes responses to per-call events by ``msg_id``.
Connection failures fail all in-flight calls with
:class:`~repro.net.errors.PeerUnavailableError` and the next call
reconnects (the base class's retry policy provides the backoff).

Small-op batching is opt-in per transport (``batching=True``): queued
sub-threshold requests coalesce into one ``FLAG_BATCH`` frame.  The
flusher is group-commit clocked — the first batch goes out immediately,
and while its responses are outstanding the next batch accumulates, so
batch depth adapts to the number of concurrent callers without a tuned
timer.  A lone caller pays no added latency (its request bypasses the
queue entirely) and a storm of small metadata ops collapses into few
frames and syscalls.  The server
dispatches a batch frame's requests sequentially in one executor task
and coalesces their responses the same way, which is the throughput
trade the metadata channels want; calls that must not wait behind a
batch (long polls) pass ``no_batch=True``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from typing import Any

from .errors import (
    FrameError,
    FrameTooLargeError,
    MessageDecodeError,
    PeerUnavailableError,
    RemoteCallError,
    RpcTimeoutError,
)
from .faults import NetworkFaultPlan
from .framing import (
    DEFAULT_MAX_FRAME,
    FLAG_BATCH,
    V2_META,
    V2_SEGMENT,
    ScatterParser,
    encode_frame_v2,
    recv_frame,
)
from .messages import Request, Response, decode_message, encode_message
from .service import ServiceRegistry
from .transport import RetryPolicy, Transport, WireConfig

__all__ = ["RpcServer", "TcpTransport"]

_READ_CHUNK = 256 * 1024
#: Socket buffer size: holds a whole bulk payload so one send hands the
#: entire scatter list to the kernel without blocking or staging copies.
_SOCK_BUF = 1024 * 1024
#: Ceiling on requests (or responses) coalesced into one batch frame.
BATCH_MAX_OPS = 64
#: Ceiling on a batch frame's summed payload bytes.
BATCH_MAX_BYTES = 128 * 1024
#: Only messages encoding below this many bytes are batched.
BATCH_THRESHOLD = 2048
#: Upper bound on how long the flusher lets a batch accumulate behind an
#: outstanding one.  Normally the previous batch's responses clock the
#: next flush well before this; the cap only matters when a response is
#: lost (timeout), where it degrades group commit to windowed batching
#: instead of wedging the channel.
_GROUP_COMMIT_CAP = 0.02


def _batch_byte_cap(max_frame: int) -> int:
    """Summed head bytes a batch frame may carry and still fit ``max_frame``."""
    table = V2_META.size + BATCH_MAX_OPS * V2_SEGMENT.size
    return min(BATCH_MAX_BYTES, max_frame - table)


def _batch_cutoff(max_frame: int) -> int:
    """Heads at least this long leave in their own frame, never batched:
    below it, even a lone head fits a batch frame under ``max_frame``."""
    return min(BATCH_THRESHOLD, _batch_byte_cap(max_frame))


def _tune_socket(sock: socket.socket) -> None:
    """NODELAY for request/response latency, buffers deep enough that a
    whole bulk payload enters the kernel in one scatter-gather send."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SOCK_BUF)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SOCK_BUF)
    except OSError:
        pass  # tuning is best-effort; the defaults still work


class RpcServer:
    """Asyncio TCP server dispatching framed requests to a registry."""

    def __init__(
        self,
        registry: ServiceRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire: WireConfig | None = None,
    ) -> None:
        self._registry = registry
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._wire = wire if wire is not None else WireConfig()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        #: Live server-side connections (loop-thread access only).
        self._connections: set["_ServerConnection"] = set()
        #: Requests served since start (monitoring/tests).
        self.requests_served = 0
        #: Requests that arrived inside batch frames (monitoring/tests).
        self.batched_requests = 0
        #: Connections rejected for protocol violations (bad frames).
        self.protocol_errors = 0

    # -- lifecycle ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is bound to (after :meth:`start`)."""
        if not self._started.is_set() or self._server is None:
            raise RuntimeError("server is not running")
        return self._host, self._port

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background event-loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="rpc-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            raise self._start_error
        return self.address

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            self._server = loop.run_until_complete(
                loop.create_server(
                    lambda: _ServerConnection(self), self._host, self._port
                )
            )
            bound = self._server.sockets[0].getsockname()
            self._host, self._port = bound[0], bound[1]
        except BaseException as exc:  # bind failure must reach start()
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        """Stop serving and join the loop thread (idempotent)."""
        loop, server = self._loop, self._server
        if loop is None or not loop.is_running():
            return

        def _shutdown() -> None:
            if server is not None:
                server.close()
            for connection in list(self._connections):
                connection.abort()
            loop.stop()

        loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "RpcServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class _ServerConnection(asyncio.BufferedProtocol):
    """One server-side connection: scatter receive, per-request tasks."""

    def __init__(self, server: RpcServer) -> None:
        self._server = server
        self._parser = ScatterParser(max_frame=server._max_frame)
        self._scratch = memoryview(bytearray(_READ_CHUNK))
        self._direct = False
        self._transport: asyncio.Transport | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._writable: asyncio.Event | None = None

    # -- asyncio protocol hooks --------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            _tune_socket(sock)
        self._loop = asyncio.get_running_loop()
        self._writable = asyncio.Event()
        self._writable.set()
        self._server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        if self._writable is not None:
            self._writable.set()  # wake writers so their tasks can fail out

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def eof_received(self) -> bool:
        return False  # close when the peer half-closes

    def get_buffer(self, sizehint: int) -> memoryview:
        target = self._parser.wants_direct()
        if target is not None:
            # A bulk segment is pending: receive straight into its
            # preallocated buffer — the payload is written once.
            self._direct = True
            return target
        self._direct = False
        return self._scratch

    def buffer_updated(self, nbytes: int) -> None:
        try:
            if self._direct:
                frames = self._parser.advance_direct(nbytes)
            else:
                frames = self._parser.feed(self._scratch[:nbytes])
        except FrameError:
            # Malformed stream: a framing violation poisons the whole
            # connection; drop it (in-flight tasks of this connection
            # still complete and write their responses before the close
            # below takes effect).
            self._server.protocol_errors += 1
            self._transport.close()
            return
        for frame in frames:
            if frame.is_batch:
                self._loop.create_task(self._serve_batch(frame.segments))
                continue
            request = self._decode_request(frame.segments[0], frame.segments[1:])
            if request is not None:
                self._loop.create_task(self._serve_one(request))

    def abort(self) -> None:
        if self._transport is not None:
            self._transport.abort()

    # -- serving -----------------------------------------------------------------------
    def _decode_request(self, head: bytes, buffers=()) -> Request | None:
        """The request a frame carries, or ``None`` after counting a
        protocol error (garbage is dropped, the connection survives)."""
        try:
            message = decode_message(head, buffers)
        except MessageDecodeError:
            message = None
        if isinstance(message, Request):
            return message
        self._server.protocol_errors += 1
        return None

    async def _serve_one(self, request: Request) -> None:
        # Services are synchronous objects; running dispatch on the
        # executor keeps slow handlers from stalling the event loop, and
        # gives one connection real request concurrency.
        response = await self._loop.run_in_executor(
            None, self._server._registry.dispatch, request
        )
        head, buffers = self._encode_response(response)
        try:
            await self._write(self._frame_response(response, head, buffers))
            self._server.requests_served += 1
        except (ConnectionError, RuntimeError):
            pass  # client went away mid-response

    async def _serve_batch(self, segments: list[bytes]) -> None:
        server = self._server
        requests = [
            request
            for request in map(self._decode_request, segments)
            if request is not None
        ]
        if not requests:
            return

        def run() -> list[Response]:
            # One executor round for the whole batch: the client opted
            # into trading per-request concurrency for per-op overhead
            # on this channel (uniformly short metadata calls).
            return [server._registry.dispatch(request) for request in requests]

        responses = await self._loop.run_in_executor(None, run)
        server.batched_requests += len(requests)
        # Small responses coalesce into batch frames; any other response
        # leaves in its own frame through the single-response encoder,
        # so an oversize one degrades to an error for its caller alone.
        byte_cap = _batch_byte_cap(server._max_frame)
        cutoff = _batch_cutoff(server._max_frame)
        frames: list[list] = []
        batch: list[bytes] = []
        size = 0
        for response in responses:
            head, buffers = self._encode_response(response)
            if buffers or len(head) >= cutoff:
                frames.append(self._frame_response(response, head, buffers))
                continue
            if batch and (len(batch) == BATCH_MAX_OPS or size + len(head) > byte_cap):
                frames.append(encode_frame_v2(batch, flags=FLAG_BATCH))
                batch, size = [], 0
            batch.append(head)
            size += len(head)
        if batch:
            frames.append(encode_frame_v2(batch, flags=FLAG_BATCH))
        try:
            for parts in frames:
                await self._write(parts)
            server.requests_served += len(requests)
        except (ConnectionError, RuntimeError):
            pass  # client went away mid-response

    def _encode_response(self, response: Response) -> tuple[bytes, list]:
        return encode_message(response, oob_threshold=self._server._wire.oob_threshold)

    def _frame_response(self, response: Response, head: bytes, buffers: list) -> list:
        """One response's own frame; an oversize one becomes an error."""
        try:
            return encode_frame_v2(
                [head, *buffers],
                max_frame=self._server._max_frame,
                compress_threshold=self._server._wire.compress_threshold,
            )
        except FrameTooLargeError as exc:
            # An oversize response must not silently strand the caller
            # until timeout: degrade to an error response it can raise.
            fallback = Response(
                msg_id=response.msg_id,
                ok=False,
                error=RemoteCallError(f"response exceeds frame limit: {exc}"),
            )
            return self._frame_response(fallback, *self._encode_response(fallback))

    async def _write(self, parts: list) -> None:
        await self._writable.wait()
        if self._transport is None or self._transport.is_closing():
            raise ConnectionError("connection closed")
        # Write the scatter list part by part instead of writelines:
        # on 3.11 writelines joins its argument, re-copying every bulk
        # payload.  The loop has no await, so concurrent tasks still
        # cannot interleave frames.
        for part in parts:
            self._transport.write(part)


class _PendingCall:
    """One in-flight request awaiting its correlated response."""

    __slots__ = ("event", "response", "failure")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Response | None = None
        self.failure: Exception | None = None


class _Connection:
    """One multiplexed client connection: send lock + reader thread."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        peer: str,
        max_frame: int,
        wire: WireConfig | None = None,
        batching: bool = False,
        owner: "TcpTransport | None" = None,
    ) -> None:
        self._peer = peer
        self._max_frame = max_frame
        self._wire = wire if wire is not None else WireConfig()
        self._owner = owner
        try:
            self._sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            raise PeerUnavailableError(peer, repr(exc)) from exc
        self._sock.settimeout(None)
        _tune_socket(self._sock)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _PendingCall] = {}
        self._dead = False
        self._batching = batching
        self._batch_cutoff = _batch_cutoff(max_frame)
        self._batch_cond = threading.Condition()
        self._batch_queue: deque[tuple[int, bytes]] = deque()
        self._batched_ids: set[int] = set()
        self._batched_in_flight = 0
        self._flusher: threading.Thread | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name=f"rpc-client-{peer}", daemon=True
        )
        self._reader.start()
        if batching:
            self._flusher = threading.Thread(
                target=self._flush_loop, name=f"rpc-batch-{peer}", daemon=True
            )
            self._flusher.start()

    @property
    def alive(self) -> bool:
        return not self._dead

    @property
    def in_flight(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    # -- calling -----------------------------------------------------------------------
    def request(
        self, request: Request, timeout: float, *, no_batch: bool = False
    ) -> Response:
        """Send one request and block for its correlated response."""
        pending = _PendingCall()
        with self._pending_lock:
            if self._dead:
                raise PeerUnavailableError(self._peer, "connection lost")
            self._pending[request.msg_id] = pending
            in_flight = len(self._pending)
        try:
            self._send_request(request, no_batch=no_batch, in_flight=in_flight)
        except OSError as exc:
            self._fail_all(PeerUnavailableError(self._peer, repr(exc)))
            raise PeerUnavailableError(self._peer, repr(exc)) from exc
        if not pending.event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(request.msg_id, None)
            raise RpcTimeoutError(
                f"call to {self._peer!r} timed out after {timeout:g}s "
                f"(msg_id={request.msg_id})"
            )
        if pending.failure is not None:
            raise pending.failure
        assert pending.response is not None
        return pending.response

    def _send_request(
        self, request: Request, *, no_batch: bool, in_flight: int
    ) -> None:
        head, buffers = encode_message(request, oob_threshold=self._wire.oob_threshold)
        if (
            self._batching
            and not no_batch
            and not buffers
            and len(head) < self._batch_cutoff
            and in_flight > 1
        ):
            # Another call is already in flight, so the channel's
            # latency is bounded by it anyway: queue this head for
            # the flusher and let it coalesce with its neighbours.
            with self._batch_cond:
                self._batch_queue.append((request.msg_id, head))
                self._batch_cond.notify()
            return
        self._sendmsg(
            encode_frame_v2(
                [head, *buffers],
                max_frame=self._max_frame,
                compress_threshold=self._wire.compress_threshold,
            )
        )

    def _sendmsg(self, parts: list) -> None:
        """Scatter-gather send: the bulk buffers go to the kernel as-is."""
        views = [memoryview(part) for part in parts]
        with self._send_lock:
            while views:
                sent = self._sock.sendmsg(views)
                while sent:
                    first = views[0]
                    if sent >= first.nbytes:
                        sent -= first.nbytes
                        views.pop(0)
                    else:
                        views[0] = first[sent:]
                        sent = 0

    # -- batching ----------------------------------------------------------------------
    def _flush_loop(self) -> None:
        """Group-commit batch flusher.

        The first batch goes out immediately.  While its responses are
        outstanding the queue keeps accumulating, and the *arrival of
        the last response* clocks the next flush — exactly the group
        commit discipline the metadata plane uses for publish.  Batch
        depth therefore adapts to the number of concurrent callers
        without a tuned timer.  ``_GROUP_COMMIT_CAP`` bounds the wait so
        a response lost to a timeout degrades the discipline to windowed
        batching instead of stalling the channel.
        """
        byte_cap = _batch_byte_cap(self._max_frame)
        while True:
            with self._batch_cond:
                while not self._batch_queue and not self._dead:
                    self._batch_cond.wait()
                if self._dead:
                    return
                deadline = time.monotonic() + _GROUP_COMMIT_CAP
                while (
                    self._batched_in_flight > 0
                    and not self._dead
                    and len(self._batch_queue) < BATCH_MAX_OPS
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # A response went missing (timed out caller):
                        # write the stragglers off so the channel keeps
                        # flowing; late replies are dropped harmlessly.
                        self._batched_ids.clear()
                        self._batched_in_flight = 0
                        break
                    self._batch_cond.wait(remaining)
                if self._dead:
                    return
                batch: list[bytes] = []
                size = 0
                while self._batch_queue and len(batch) < BATCH_MAX_OPS:
                    msg_id, head = self._batch_queue[0]
                    if batch and size + len(head) > byte_cap:
                        break
                    self._batch_queue.popleft()
                    self._batched_ids.add(msg_id)
                    batch.append(head)
                    size += len(head)
                self._batched_in_flight += len(batch)
            try:
                self._sendmsg(
                    encode_frame_v2(
                        batch, flags=FLAG_BATCH, max_frame=self._max_frame
                    )
                )
            except OSError as exc:
                self._fail_all(PeerUnavailableError(self._peer, repr(exc)))
                return
            if self._owner is not None:
                self._owner.batches_sent += 1
                self._owner.requests_batched += len(batch)

    # -- receiving ---------------------------------------------------------------------
    def _read_loop(self) -> None:
        # Exact-framed reads: the stream layout is self-describing, so
        # each bulk segment arrives as one MSG_WAITALL read into its own
        # immutable bytes — zero user-space copies beyond the kernel's.
        try:
            while True:
                frame = recv_frame(self._sock, max_frame=self._max_frame)
                if frame is None:
                    raise ConnectionError("peer closed the connection")
                if frame.is_batch:
                    messages = [decode_message(s) for s in frame.segments]
                else:
                    messages = [decode_message(frame.segments[0], frame.segments[1:])]
                self._deliver(messages)
        except Exception as exc:
            self._fail_all(PeerUnavailableError(self._peer, repr(exc)))

    def _deliver(self, messages: list[Request | Response]) -> None:
        """Deliver one response frame's messages (several for a batch).

        Callers are resolved under a single lock acquisition for the
        whole frame, and the batched-in-flight bookkeeping is settled
        only after every caller's event is set — so the flusher never
        races the wakeups it is about to clock on.
        """
        resolved: list[tuple[_PendingCall, Response]] = []
        with self._pending_lock:
            for message in messages:
                if not isinstance(message, Response):
                    raise MessageDecodeError("server sent a non-response message")
                pending = self._pending.pop(message.msg_id, None)
                if pending is not None:  # late reply after timeout: drop
                    resolved.append((pending, message))
        for pending, message in resolved:
            pending.response = message
            pending.event.set()
        if self._flusher is not None:
            with self._batch_cond:
                for message in messages:
                    if message.msg_id in self._batched_ids:
                        self._batched_ids.discard(message.msg_id)
                        self._batched_in_flight -= 1
                        if self._batched_in_flight == 0:
                            # Last response of the batch: clock the next flush.
                            self._batch_cond.notify()

    def _fail_all(self, error: Exception) -> None:
        with self._pending_lock:
            self._dead = True
            pending, self._pending = self._pending, {}
        with self._batch_cond:
            self._batch_cond.notify_all()
        for call in pending.values():
            call.failure = error
            call.event.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        self._fail_all(PeerUnavailableError(self._peer, "connection closed"))


class TcpTransport(Transport):
    """Pooled, multiplexed TCP channel to one :class:`RpcServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        peer: str | None = None,
        local: str = "client",
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        faults: NetworkFaultPlan | None = None,
        pool_size: int = 2,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire: WireConfig | None = None,
        batching: bool = False,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        super().__init__(
            peer=peer if peer is not None else f"{host}:{port}",
            local=local,
            timeout=timeout,
            retry=retry,
            faults=faults,
        )
        self._host = host
        self._port = port
        self._pool_size = pool_size
        self._max_frame = max_frame
        self._wire = wire if wire is not None else WireConfig()
        self._batching = batching
        self._pool_lock = threading.Lock()
        self._pool: list[_Connection] = []
        #: Batch frames sent across all connections (monitoring/tests).
        self.batches_sent = 0
        #: Requests that travelled inside batch frames (monitoring/tests).
        self.requests_batched = 0

    def _checkout(self) -> _Connection:
        """Pick the least-loaded live connection, dialling up to the cap."""
        with self._pool_lock:
            if self._closed:
                raise PeerUnavailableError(self.peer, "transport closed")
            self._pool = [c for c in self._pool if c.alive]
            if self._pool and (
                len(self._pool) >= self._pool_size
                or min(c.in_flight for c in self._pool) == 0
            ):
                return min(self._pool, key=lambda c: c.in_flight)
            connection = _Connection(
                self._host,
                self._port,
                peer=self.peer,
                max_frame=self._max_frame,
                wire=self._wire,
                batching=self._batching,
                owner=self,
            )
            self._pool.append(connection)
            return connection

    def _call_once(
        self,
        service: str,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: float,
        *,
        no_batch: bool = False,
    ) -> Any:
        self._check_faults(self.local, self.peer, method)
        with self._pool_lock:
            msg_id = next(self._msg_ids)
        request = Request(
            msg_id=msg_id, service=service, method=method, args=args, kwargs=kwargs
        )
        response = self._checkout().request(request, timeout, no_batch=no_batch)
        self._check_faults(self.peer, self.local, method)
        return self._unwrap(response)

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()
