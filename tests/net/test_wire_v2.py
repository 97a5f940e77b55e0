"""The wire path end-to-end: out-of-band bulk, batching, compression, identity.

The wire path must be invisible to everything above the transport: the
filesystems and the metadata plane read back exactly the bytes they
wrote.  These tests cover bulk round-trips over real sockets, the
out-of-band threshold, small-op batching semantics, and cross-backend
differential byte-identity — including mid-read replica failover and
wire faults, where the degraded path must stay byte-identical too.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core.dht import MetadataDHT, MetadataProvider
from repro.hdfs import HDFS, DataNode
from repro.net import (
    NetworkFaultPlan,
    NodeServer,
    RemoteCallError,
    RetryPolicy,
    RpcServer,
    ServiceRegistry,
    TcpTransport,
    WireConfig,
    connect_datanode,
    connect_metadata,
    connect_provider,
)
from repro.net.cluster import ClusterConfig
from repro.net.messages import Request, encode_message
from repro.net.stubs import (
    DATANODE_SERVICE,
    METADATA_SERVICE,
    PROVIDER_SERVICE,
    RemoteDataNode,
    RemoteDataProvider,
    RemoteMetadataProvider,
)
from repro.net.transport import LoopbackTransport

BLOCK = 16 * KB

#: The codec paths a payload can take: bulk exported out-of-band (the
#: default), everything kept inside the pickle stream, and zlib-compressed
#: segments.  The bytes read back must not depend on the path.
WIRE_PATHS = pytest.mark.parametrize(
    "wire",
    [
        WireConfig(),
        WireConfig(oob_threshold=1 << 30),
        WireConfig(compress_threshold=KB),
    ],
    ids=["out-of-band", "in-band", "compressed"],
)


class EchoService:
    def echo(self, value):
        return value

    def pair(self, a, b):
        return (a, b)


def echo_registry() -> ServiceRegistry:
    registry = ServiceRegistry()
    registry.register("echo", EchoService())
    return registry


#: Service name and stub class per backend type, as the
#: ``repro.net.loopback_*_stub`` helpers wire them.
STUB_KINDS = {
    DataProvider: (PROVIDER_SERVICE, RemoteDataProvider),
    DataNode: (DATANODE_SERVICE, RemoteDataNode),
    MetadataProvider: (METADATA_SERVICE, RemoteMetadataProvider),
}


def wired_stub(backend, *, wire, faults, retry=None):
    """A ``loopback_*_stub`` for ``backend`` whose transport uses ``wire``."""
    service, stub_class = STUB_KINDS[type(backend)]
    registry = ServiceRegistry()
    registry.register(service, backend)
    peer = getattr(backend, "host", None) or f"metadata-{backend.provider_id}"
    transport = LoopbackTransport(
        registry, peer=peer, faults=faults, retry=retry, wire=wire
    )
    return stub_class.connect(transport)


@pytest.fixture
def faults():
    return NetworkFaultPlan(sleep=lambda _s: None)


class TestWireConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            WireConfig(oob_threshold=0)
        with pytest.raises(ValueError):
            WireConfig(compress_threshold=0)


class TestOutOfBandThreshold:
    def test_small_payloads_stay_in_band(self):
        request = Request(1, "s", "m", (b"x" * 100,), {})
        head, buffers = encode_message(request, oob_threshold=KB)
        assert buffers == []
        assert b"x" * 100 in head

    def test_large_payloads_leave_the_pickle_stream(self):
        bulk = b"y" * (64 * KB)
        request = Request(1, "s", "m", (bulk,), {"page": b"z" * (32 * KB)})
        head, buffers = encode_message(request, oob_threshold=KB)
        assert len(buffers) == 2
        assert len(head) < KB  # the head holds structure, not payload
        assert sorted(len(memoryview(b)) for b in buffers) == [32 * KB, 64 * KB]

    def test_memoryview_arguments_always_travel_out_of_band(self):
        view = memoryview(b"view-payload")
        head, buffers = encode_message(
            Request(1, "s", "m", (view,), {}), oob_threshold=KB
        )
        assert len(buffers) == 1  # even below threshold: v1 can't pickle views

    def test_nested_containers_are_walked(self):
        bulk = b"n" * (64 * KB)
        head, buffers = encode_message(
            Request(1, "s", "m", ([{"chunk": bulk}],), {}), oob_threshold=KB
        )
        assert len(buffers) == 1


class TestTcpRoundTrip:
    def test_bulk_bytes_round_trip_without_protocol_errors(self):
        payload = bytes(range(256)) * (8 * KB)  # 2 MiB
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(host, port)
            try:
                assert transport.call("echo", "echo", payload) == payload
                assert transport.call("echo", "pair", 1, b"two") == (1, b"two")
            finally:
                transport.close()
            assert server.protocol_errors == 0


class TestBatching:
    def test_concurrent_small_ops_coalesce_and_stay_correct(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(
                host, port, batching=True, pool_size=1
            )
            try:
                results: list = []
                lock = threading.Lock()

                def worker(worker_id):
                    for i in range(40):
                        value = transport.call("echo", "echo", (worker_id, i))
                        with lock:
                            results.append(value)

                threads = [
                    threading.Thread(target=worker, args=(w,)) for w in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert sorted(results) == sorted(
                    (w, i) for w in range(8) for i in range(40)
                )
                # Coalescing actually happened, on both sides.
                assert transport.batches_sent > 0
                assert transport.requests_batched > transport.batches_sent
                assert server.batched_requests == transport.requests_batched
                # Group-commit bookkeeping drains once every response is
                # in: nothing left outstanding to clock the next flush.
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    if all(
                        connection._batched_in_flight == 0
                        and not connection._batched_ids
                        for connection in transport._pool
                    ):
                        break
                    time.sleep(0.01)
                for connection in transport._pool:
                    assert connection._batched_in_flight == 0
                    assert not connection._batched_ids
            finally:
                transport.close()

    def test_lone_caller_is_never_batched(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(
                host, port, batching=True, pool_size=1
            )
            try:
                for i in range(20):
                    assert transport.call("echo", "echo", i) == i
                # Sequential calls: no concurrency, so the fast path
                # (direct send) must be taken every time.
                assert transport.batches_sent == 0
            finally:
                transport.close()

    def test_no_batch_calls_bypass_the_queue(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(
                host, port, batching=True, pool_size=1
            )
            try:
                hold = threading.Event()

                def background():
                    hold.wait()
                    for _ in range(10):
                        transport.call("echo", "echo", "bg")

                thread = threading.Thread(target=background)
                thread.start()
                hold.set()
                for i in range(10):
                    value = transport.call(
                        "echo", "echo", ("fg", i), no_batch=True
                    )
                    assert value == ("fg", i)
                thread.join()
            finally:
                transport.close()

    def test_bulk_responses_escape_the_batch_envelope(self):
        # Small requests may coalesce, but a response with a bulk
        # payload must come back in its own scatter-gather frame.
        class Mixed:
            def small(self, i):
                return i

            def bulk(self, n):
                return b"B" * n

        registry = ServiceRegistry()
        registry.register("mixed", Mixed())
        with RpcServer(registry) as server:
            host, port = server.address
            transport = TcpTransport(
                host, port, batching=True, pool_size=1
            )
            try:
                results: dict[int, bytes] = {}

                def worker(i):
                    results[i] = transport.call("mixed", "bulk", 100_000 + i)

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                # Interleave small calls so batching engages around them.
                for i in range(30):
                    assert transport.call("mixed", "small", i) == i
                for thread in threads:
                    thread.join()
                for i in range(6):
                    assert results[i] == b"B" * (100_000 + i)
            finally:
                transport.close()


    def test_oversize_response_in_a_batch_fails_only_its_caller(self):
        # A response over the server's frame limit inside a batch must
        # come back as a RemoteCallError for its own caller; the small
        # responses batched with it must still be delivered.
        entered, release = threading.Event(), threading.Event()

        class Service:
            def slow(self):
                entered.set()
                release.wait(10.0)
                return "slow"

            def small(self, i):
                return i

            def big(self):
                return b"B" * 100_000

        registry = ServiceRegistry()
        registry.register("svc", Service())
        with RpcServer(registry, max_frame=64 * KB) as server:
            host, port = server.address
            transport = TcpTransport(
                host,
                port,
                batching=True,
                pool_size=1,
                timeout=5.0,
                retry=RetryPolicy.no_retry(),
            )
            outcomes: dict = {}

            def call(key, method, *args):
                try:
                    outcomes[key] = transport.call("svc", method, *args)
                except Exception as exc:  # surfaced by the asserts below
                    outcomes[key] = exc

            try:
                slow = threading.Thread(target=call, args=("slow", "slow"))
                slow.start()
                assert entered.wait(5.0)
                # With the slow call in flight, these queue for batching.
                threads = [
                    threading.Thread(target=call, args=(i, "small", i))
                    for i in range(6)
                ]
                threads.append(threading.Thread(target=call, args=("big", "big")))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                release.set()
                slow.join()
            finally:
                release.set()
                transport.close()
        assert transport.requests_batched > 0
        assert isinstance(outcomes["big"], RemoteCallError)
        assert "frame limit" in str(outcomes["big"])
        assert [outcomes[i] for i in range(6)] == list(range(6))
        assert outcomes["slow"] == "slow"


    @pytest.mark.parametrize(
        "max_frame, fat", [(16 * KB, 1500), (2 * KB, 1750)], ids=["16k", "2k"]
    )
    def test_batch_frames_fit_a_small_frame_limit(self, max_frame, fat):
        # Batch frames are bounded by max_frame on both sides: requests
        # whose heads sum past the limit, and small requests whose
        # responses do, split into several batch frames instead of
        # failing the flusher or the connection.  Under the 2 KiB limit
        # a single fat head (still below BATCH_THRESHOLD) outgrows a
        # batch's byte budget and must leave in a frame of its own.
        class Pad:
            def pad(self, data, n):
                return b"r" * n

        registry = ServiceRegistry()
        registry.register("pad", Pad())
        with RpcServer(registry, max_frame=max_frame) as server:
            host, port = server.address
            transport = TcpTransport(
                host,
                port,
                max_frame=max_frame,
                batching=True,
                pool_size=1,
                retry=RetryPolicy.no_retry(),
            )
            errors: list[BaseException] = []

            def worker(worker_id):
                # Even workers send fat requests, odd ones ask for fat
                # responses; every message stays under the batch cutoff.
                data, n = (b"q" * fat, 8) if worker_id % 2 else (b"", fat)
                try:
                    for _ in range(10):
                        assert transport.call("pad", "pad", data, n) == b"r" * n
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(32)]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
            finally:
                transport.close()
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert transport.requests_batched > 0
            assert server.protocol_errors == 0


class TestCompression:
    def test_compressed_connection_is_byte_identical(self):
        wire = WireConfig(compress_threshold=KB)
        with RpcServer(echo_registry(), wire=wire) as server:
            host, port = server.address
            transport = TcpTransport(host, port, wire=wire)
            try:
                compressible = b"c" * (1024 * KB)
                random_ish = bytes(range(256)) * (4 * KB)
                assert transport.call("echo", "echo", compressible) == compressible
                assert transport.call("echo", "echo", random_ish) == random_ish
            finally:
                transport.close()


class TestLoopbackProtocols:
    @WIRE_PATHS
    def test_loopback_round_trips_bulk(self, wire):
        transport = LoopbackTransport(echo_registry(), wire=wire)
        payload = bytes(range(256)) * (4 * KB)
        assert transport.call("echo", "echo", payload) == payload
        assert transport.call("echo", "pair", "a", 1) == ("a", 1)

    def test_loopback_reuses_one_decoder_across_calls(self):
        # No per-call throwaway decoder: the same parser instance drains
        # every frame of the transport's lifetime.
        transport = LoopbackTransport(echo_registry())
        decoder = transport._parser
        for i in range(5):
            transport.call("echo", "echo", i)
        assert transport._parser is decoder
        assert decoder.frames_decoded == 10  # request + response per call


def make_blobseer(faults, *, wire, replication=2):
    config = BlobSeerConfig(
        page_size=4 * KB,
        num_providers=4,
        num_metadata_providers=3,
        replication=replication,
        rng_seed=7,
    )
    backends = [
        DataProvider(i, host=f"node-{i}", rack=f"rack-{i % 2}")
        for i in range(config.num_providers)
    ]
    stubs = [
        wired_stub(p, wire=wire, faults=faults, retry=RetryPolicy.no_retry())
        for p in backends
    ]
    return BlobSeer(config, providers=stubs)


class TestDifferentialByteIdentity:
    """The same workload over loopback stubs must yield the same bytes."""

    @WIRE_PATHS
    def test_bsfs_write_read_identical(self, faults, wire):
        fs = BSFS(blobseer=make_blobseer(faults, wire=wire), default_block_size=BLOCK)
        payload = bytes(range(256)) * 128  # 32 KiB, multi-page
        fs.write_file("/wire.bin", payload)
        assert fs.read_file("/wire.bin") == payload

    @WIRE_PATHS
    def test_bsfs_read_failover_identical(self, faults, wire):
        # Mid-read replica failover: kill a node after the write; the
        # degraded read must still return the exact original bytes.
        fs = BSFS(blobseer=make_blobseer(faults, wire=wire), default_block_size=BLOCK)
        payload = b"f" * (2 * BLOCK)
        fs.write_file("/failover.bin", payload)
        faults.kill("node-1")
        assert fs.read_file("/failover.bin") == payload

    @WIRE_PATHS
    def test_hdfs_failover_identical(self, faults, wire):
        backends = [
            DataNode(i, host=f"node-{i}", rack=f"rack-{i % 3}") for i in range(4)
        ]
        stubs = [
            wired_stub(d, wire=wire, faults=faults, retry=RetryPolicy.no_retry())
            for d in backends
        ]
        fs = HDFS(datanodes=stubs, default_block_size=BLOCK, default_replication=2)
        payload = bytes(range(256)) * 256  # 64 KiB
        fs.write_file("/wire.bin", payload)
        meta = fs.namenode.file_blocks("/wire.bin")[0]
        victim = fs.namenode.datanode(meta.locations[0])
        faults.kill(victim.host)
        assert fs.read_file("/wire.bin") == payload

    @WIRE_PATHS
    def test_wire_faults_identical(self, faults, wire):
        # Dropped messages burn the transport retry, not the data: the
        # payload survives lossy delivery identically.
        backend = DataProvider(0, host="node-0")
        stub = wired_stub(backend, wire=wire, faults=faults)
        from repro.core.pages import PageKey

        payload = bytes(range(256)) * (2 * KB)
        faults.drop(src="client", dst="node-0", count=1)
        stub.put_page(PageKey(1, 1, 0), payload)  # retried after the drop
        faults.drop(src="node-0", dst="client", count=1)
        assert stub.get_page(PageKey(1, 1, 0)) == payload

    @WIRE_PATHS
    def test_metadata_dht_matches_in_process(self, faults, wire):
        backends = [MetadataProvider(i) for i in range(3)]
        stubs = [
            wired_stub(p, wire=wire, faults=faults, retry=RetryPolicy.no_retry())
            for p in backends
        ]
        local_backends = [MetadataProvider(i) for i in range(3)]
        remote = MetadataDHT(stubs, virtual_nodes=16)
        local = MetadataDHT(local_backends, virtual_nodes=16)
        for i in range(40):
            remote.put(f"key-{i}", {"value": i, "blob": bytes([i]) * 64})
            local.put(f"key-{i}", {"value": i, "blob": bytes([i]) * 64})
        for i in range(40):
            assert remote.get(f"key-{i}") == local.get(f"key-{i}")


class TestTcpDifferential:
    @pytest.mark.parametrize(
        "compress_threshold", [None, KB], ids=["uncompressed", "compressed"]
    )
    def test_hdfs_over_tcp_identical(self, compress_threshold):
        config = ClusterConfig(
            metadata_batching=False, compress_threshold=compress_threshold
        )
        backends = [DataNode(i, host=f"node-{i}", rack="r0") for i in range(3)]
        servers = [
            NodeServer(d, host="127.0.0.1", port=0, config=config)
            for d in backends
        ]
        stubs = []
        try:
            for server in servers:
                host, port = server.start()
                stubs.append(connect_datanode(host, port, config=config))
            fs = HDFS(
                datanodes=stubs, default_block_size=BLOCK, default_replication=2
            )
            payload = bytes(range(256)) * 256  # 64 KiB
            fs.write_file("/tcp.bin", payload)
            assert fs.read_file("/tcp.bin") == payload
        finally:
            for stub in stubs:
                stub.close()
            for server in servers:
                server.stop()

    def test_provider_bulk_pages_over_tcp_v2(self):
        from repro.core.pages import PageKey

        provider = DataProvider(5, host="node-5", rack="rack-0")
        server = NodeServer(provider, host="127.0.0.1", port=0)
        host, port = server.start()
        try:
            stub = connect_provider(host, port)
            payload = bytes(range(256)) * (4 * KB)  # 1 MiB page
            stub.put_page(PageKey(9, 1, 0), payload)
            assert stub.get_page(PageKey(9, 1, 0)) == payload
            assert provider.get_page(PageKey(9, 1, 0)) == payload
            stub.close()
        finally:
            server.stop()

    def test_metadata_stub_with_batching_over_tcp(self):
        config = ClusterConfig()
        backend = MetadataProvider(2)
        server = NodeServer(backend, host="127.0.0.1", port=0, config=config)
        host, port = server.start()
        try:
            stub = connect_metadata(host, port, config=config)
            errors: list[BaseException] = []

            def worker(worker_id):
                try:
                    for i in range(25):
                        stub.put(f"w{worker_id}-k{i}", {"v": (worker_id, i)})
                        assert stub.get(f"w{worker_id}-k{i}") == {
                            "v": (worker_id, i)
                        }
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(backend.keys()) == 150
            # The hot metadata path actually used the coalescing channel.
            assert stub.transport.requests_batched > 0
            stub.close()
        finally:
            server.stop()
