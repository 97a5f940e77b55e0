"""Cluster plumbing: node harness, control service, recovery coordinator.

This module assembles the service layer's pieces into the deployment
shapes the tests and ``scripts/run_node.py`` use:

* :class:`NodeServer` — the *worker process* harness.  It exposes one
  storage node (a :class:`~repro.core.provider.DataProvider` or an HDFS
  :class:`~repro.hdfs.datanode.DataNode`) through an
  :class:`~repro.net.tcp.RpcServer`, registers with the control endpoint,
  and keeps a :class:`~repro.net.liveness.HeartbeatPump` running — with a
  full block report attached every *n*-th beat.
* :class:`ControlService` — the *head process* RPC surface receiving
  those heartbeats and reports into a
  :class:`~repro.net.liveness.LivenessRegistry`.
* :class:`RecoveryCoordinator` — subscribes to death events and performs
  the BlobSeer reaction: deregister the dead node (idempotently) and
  re-replicate what it held — ``BlobSeer.repair`` per blob for
  providers, ``NameNode.handle_dead_datanode`` for datanodes.
* :func:`loopback_provider_stub` / :func:`loopback_datanode_stub` — the
  single-process deployment: the same stub/service/codec path as TCP,
  with a :class:`~repro.net.faults.NetworkFaultPlan` standing in for
  real network failures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .errors import NetError
from .faults import NetworkFaultPlan
from .liveness import HeartbeatPump, LivenessMonitor, LivenessRegistry
from .service import ServiceRegistry
from .stubs import (
    DATANODE_SERVICE,
    JOBSERVICE_SERVICE,
    METADATA_SERVICE,
    PROVIDER_SERVICE,
    RemoteDataNode,
    RemoteDataProvider,
    RemoteJobService,
    RemoteMetadataProvider,
)
from .tcp import RpcServer, TcpTransport
from .transport import LoopbackTransport, RetryPolicy, Transport, WireConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.client import BlobSeer
    from ..hdfs.namenode import NameNode

__all__ = [
    "ClusterConfig",
    "ControlService",
    "NodeServer",
    "RecoveryCoordinator",
    "loopback_provider_stub",
    "loopback_datanode_stub",
    "loopback_metadata_stub",
    "loopback_jobservice_stub",
    "connect_provider",
    "connect_datanode",
    "connect_metadata",
    "connect_jobservice",
]

#: Name the control-plane service is registered under.
CONTROL_SERVICE = "control"


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Tunables of one service-layer deployment."""

    #: Seconds between heartbeats from each node.
    heartbeat_interval: float = 0.5
    #: Beats a node may miss before being declared dead.
    max_missed_heartbeats: int = 3
    #: Every n-th heartbeat carries a full block report.
    block_report_every: int = 5
    #: Default RPC timeout, seconds.
    rpc_timeout: float = 5.0
    #: Transport-level retries per RPC (transient failures only).
    rpc_retries: int = 2
    #: TCP connections pooled per peer.
    pool_size: int = 2
    #: Coalesce sub-threshold metadata ops into batch frames.
    metadata_batching: bool = True
    #: Compress wire segments of at least this many bytes (None = never).
    compress_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.max_missed_heartbeats < 1:
            raise ValueError("max_missed_heartbeats must be at least 1")
        if self.block_report_every < 1:
            raise ValueError("block_report_every must be at least 1")
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive")
        if self.rpc_retries < 0:
            raise ValueError("rpc_retries must be non-negative")
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if self.compress_threshold is not None and self.compress_threshold < 1:
            raise ValueError("compress_threshold must be positive")

    def retry_policy(self) -> RetryPolicy:
        """The retry policy RPC clients of this deployment use."""
        return RetryPolicy(retries=self.rpc_retries)

    def wire_config(self) -> WireConfig:
        """The wire knobs of this deployment."""
        return WireConfig(compress_threshold=self.compress_threshold)

    def make_registry(
        self, *, clock: Callable[[], float] | None = None
    ) -> LivenessRegistry:
        """A liveness registry matching this deployment's intervals."""
        kwargs: dict[str, Any] = {}
        if clock is not None:
            kwargs["clock"] = clock
        return LivenessRegistry(
            heartbeat_interval=self.heartbeat_interval,
            max_missed=self.max_missed_heartbeats,
            **kwargs,
        )


class ControlService:
    """Head-process RPC surface for node registration and heartbeats."""

    def __init__(self, registry: LivenessRegistry) -> None:
        self.liveness = registry
        self._lock = threading.Lock()
        self._kinds: dict[str, tuple[str, int]] = {}
        self._listeners: list[Callable[[str, str, int], None]] = []

    def on_register(self, callback: Callable[[str, str, int], None]) -> None:
        """Run ``callback(node_name, kind, numeric_id)`` on registrations."""
        with self._lock:
            self._listeners.append(callback)

    def register(self, node_name: str, kind: str, numeric_id: int) -> None:
        """A node announces itself (idempotent — restarts re-register)."""
        with self._lock:
            self._kinds[node_name] = (kind, numeric_id)
            listeners = list(self._listeners)
        self.liveness.register(node_name, kind=kind, numeric_id=numeric_id)
        for callback in listeners:
            callback(node_name, kind, numeric_id)

    def heartbeat(self, node_name: str) -> None:
        """One beat from ``node_name``."""
        self.liveness.heartbeat(node_name)

    def block_report(self, node_name: str, blocks: list) -> None:
        """A full block report (counts as a heartbeat)."""
        self.liveness.block_report(node_name, blocks)

    def deregister(self, node_name: str) -> None:
        """Clean shutdown of a node — no death event will fire."""
        self.liveness.deregister(node_name)
        with self._lock:
            self._kinds.pop(node_name, None)

    def node_kind(self, node_name: str) -> tuple[str, int] | None:
        """``(kind, numeric_id)`` of a registered node, if known."""
        with self._lock:
            return self._kinds.get(node_name)

    def known_nodes(self) -> dict[str, tuple[str, int]]:
        """Snapshot of every registered node's ``(kind, numeric_id)``."""
        with self._lock:
            return dict(self._kinds)


class NodeServer:
    """Worker-process harness: RPC server + heartbeat pump for one node.

    ``node`` is duck-typed: anything with ``submit_job`` serves as a
    multi-tenant job service (service name ``"jobservice"``), anything
    with ``put_page`` as a data provider (service name ``"provider"``),
    anything with a ``node_id`` as an HDFS datanode (service name
    ``"datanode"``), and anything else with a ``provider_id`` as a
    metadata provider (service name ``"metadata"``) — the submission
    plane runs over the same RPC/heartbeat harness as the storage planes.
    """

    def __init__(
        self,
        node: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        control: Transport | None = None,
        config: ClusterConfig | None = None,
        node_name: str | None = None,
        should_beat: Callable[[], bool] | None = None,
    ) -> None:
        self.node = node
        self.config = config if config is not None else ClusterConfig()
        if hasattr(node, "submit_job"):
            self.kind, self.numeric_id = "jobservice", 0
            self.service_name = JOBSERVICE_SERVICE
        elif hasattr(node, "put_page"):
            self.kind, self.numeric_id = "provider", node.provider_id
            self.service_name = PROVIDER_SERVICE
        elif hasattr(node, "node_id"):
            self.kind, self.numeric_id = "datanode", node.node_id
            self.service_name = DATANODE_SERVICE
        elif hasattr(node, "provider_id"):
            self.kind, self.numeric_id = "metadata", node.provider_id
            self.service_name = METADATA_SERVICE
        else:
            raise TypeError(
                "node must expose submit_job (job service), put_page "
                "(provider), node_id (datanode) or provider_id (metadata "
                "provider)"
            )
        self.node_name = (
            node_name
            if node_name is not None
            else getattr(node, "host", f"{self.kind}-{self.numeric_id}")
        )
        self.registry = ServiceRegistry()
        self.registry.register(self.service_name, node)
        self.registry.register("node", self)
        self.rpc = RpcServer(
            self.registry, host=host, port=port, wire=self.config.wire_config()
        )
        self._control = control
        self._should_beat = should_beat
        self._pump: HeartbeatPump | None = None

    # -- control-plane RPCs (callable remotely through service "node") ----------------
    def ping(self) -> str:
        """Cheap reachability probe."""
        return self.node_name

    def describe(self) -> dict:
        """Identity and service layout of this node process."""
        return {
            "node_name": self.node_name,
            "kind": self.kind,
            "numeric_id": self.numeric_id,
            "services": self.registry.service_names,
        }

    def block_report_payload(self) -> list:
        """What this node stores, in control-plane terms."""
        if self.kind == "jobservice":
            return self.node.job_ids()
        if self.kind == "provider":
            return self.node.page_keys()
        if self.kind == "metadata":
            return self.node.keys()
        return self.node.block_ids()

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Serve RPCs; register with control and start heartbeating."""
        address = self.rpc.start()
        if self._control is not None:
            self._control.call(
                CONTROL_SERVICE,
                "register",
                self.node_name,
                self.kind,
                self.numeric_id,
            )
            self._pump = HeartbeatPump(
                self._send_heartbeat,
                interval=self.config.heartbeat_interval,
                report=self._send_block_report,
                report_every=self.config.block_report_every,
                should_beat=self._should_beat,
            ).start()
        return address

    def _send_heartbeat(self) -> None:
        assert self._control is not None
        self._control.call(CONTROL_SERVICE, "heartbeat", self.node_name)

    def _send_block_report(self) -> None:
        assert self._control is not None
        self._control.call(
            CONTROL_SERVICE,
            "block_report",
            self.node_name,
            self.block_report_payload(),
        )

    def stop(self, *, deregister: bool = False) -> None:
        """Stop pumping and serving; optionally announce clean shutdown."""
        if self._pump is not None:
            self._pump.stop()
            self._pump = None
        if deregister and self._control is not None:
            try:
                self._control.call(CONTROL_SERVICE, "deregister", self.node_name)
            except NetError:
                pass  # control gone; its timeout handles us
        self.rpc.stop()
        if self._control is not None:
            self._control.close()

    def __enter__(self) -> "NodeServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class RecoveryCoordinator:
    """Turns death events into re-replication.

    Wire it to a :class:`LivenessRegistry` (and usually a
    :class:`ControlService` for automatic kind tracking); on a node's
    death it deregisters the node from the owning manager and restores
    the replication factor of everything it held.
    """

    def __init__(
        self,
        registry: LivenessRegistry,
        *,
        blobseer: "BlobSeer | None" = None,
        namenode: "NameNode | None" = None,
        control: ControlService | None = None,
    ) -> None:
        self._registry = registry
        self._blobseer = blobseer
        self._namenode = namenode
        self._lock = threading.Lock()
        self._nodes: dict[str, tuple[str, int]] = {}
        #: ``[(node_name, kind, repaired_count)]`` — death events handled.
        self.recoveries: list[tuple[str, str, int]] = []
        registry.on_death(self._handle_death)
        if control is not None:
            control.on_register(self._track)
            for name, (kind, numeric_id) in control.known_nodes().items():
                self._track(name, kind, numeric_id)

    def _track(self, node_name: str, kind: str, numeric_id: int) -> None:
        with self._lock:
            self._nodes[node_name] = (kind, numeric_id)

    def track_provider(self, node_name: str, provider_id: int) -> None:
        """Associate a liveness node name with a BlobSeer provider id."""
        self._track(node_name, "provider", provider_id)

    def track_datanode(self, node_name: str, node_id: int) -> None:
        """Associate a liveness node name with an HDFS datanode id."""
        self._track(node_name, "datanode", node_id)

    def _handle_death(self, node_name: str) -> None:
        with self._lock:
            kind, numeric_id = self._nodes.get(node_name, (None, -1))
        repaired = 0
        if kind == "provider" and self._blobseer is not None:
            self._blobseer.provider_manager.deregister(numeric_id)
            for blob_id in self._blobseer.version_manager.blob_ids():
                try:
                    repaired += self._blobseer.repair(blob_id)
                except Exception:
                    continue  # a blob beyond repair must not block the rest
        elif kind == "datanode" and self._namenode is not None:
            self._namenode.deregister_datanode(numeric_id)
            repaired = self._namenode.handle_dead_datanode(numeric_id)
        with self._lock:
            self.recoveries.append((node_name, kind or "unknown", repaired))

    def monitor(self, *, poll_interval: float | None = None) -> LivenessMonitor:
        """A monitor thread driving this coordinator's registry."""
        return LivenessMonitor(self._registry, poll_interval=poll_interval)


# -- loopback deployments --------------------------------------------------------------


def loopback_provider_stub(
    provider: Any,
    *,
    faults: NetworkFaultPlan | None = None,
    local: str = "client",
    timeout: float = 5.0,
    retry: RetryPolicy | None = None,
) -> RemoteDataProvider:
    """Wrap a provider in the full stub/codec path without sockets.

    The returned stub is addressable by the provider's ``host`` in the
    fault plan, so ``faults.kill(provider.host)`` models a node-process
    crash in a single-process test.
    """
    registry = ServiceRegistry()
    registry.register(PROVIDER_SERVICE, provider)
    transport = LoopbackTransport(
        registry,
        peer=provider.host,
        local=local,
        timeout=timeout,
        retry=retry,
        faults=faults,
    )
    return RemoteDataProvider.connect(transport)


def loopback_datanode_stub(
    datanode: Any,
    *,
    faults: NetworkFaultPlan | None = None,
    local: str = "client",
    timeout: float = 5.0,
    retry: RetryPolicy | None = None,
) -> RemoteDataNode:
    """Wrap an HDFS datanode in the loopback stub/codec path."""
    registry = ServiceRegistry()
    registry.register(DATANODE_SERVICE, datanode)
    transport = LoopbackTransport(
        registry,
        peer=datanode.host,
        local=local,
        timeout=timeout,
        retry=retry,
        faults=faults,
    )
    return RemoteDataNode.connect(transport)


def loopback_metadata_stub(
    provider: Any,
    *,
    faults: NetworkFaultPlan | None = None,
    local: str = "client",
    timeout: float = 5.0,
    retry: RetryPolicy | None = None,
) -> RemoteMetadataProvider:
    """Wrap a metadata provider in the loopback stub/codec path.

    Metadata providers carry no ``host`` field, so the stub is
    addressable in the fault plan as ``metadata-<provider_id>``.
    """
    registry = ServiceRegistry()
    registry.register(METADATA_SERVICE, provider)
    transport = LoopbackTransport(
        registry,
        peer=f"metadata-{provider.provider_id}",
        local=local,
        timeout=timeout,
        retry=retry,
        faults=faults,
    )
    return RemoteMetadataProvider.connect(transport)


def loopback_jobservice_stub(
    endpoint: Any,
    *,
    faults: NetworkFaultPlan | None = None,
    local: str = "client",
    timeout: float = 30.0,
    retry: RetryPolicy | None = None,
) -> RemoteJobService:
    """Wrap a job-service endpoint in the loopback stub/codec path.

    ``endpoint`` is a
    :class:`~repro.mapreduce.service.JobServiceEndpoint`; the stub is
    addressable in the fault plan as ``"jobservice"``.  The default
    timeout is generous — ``wait_job`` blocks for the job's duration.
    """
    registry = ServiceRegistry()
    registry.register(JOBSERVICE_SERVICE, endpoint)
    transport = LoopbackTransport(
        registry,
        peer="jobservice",
        local=local,
        timeout=timeout,
        retry=retry,
        faults=faults,
    )
    return RemoteJobService.connect(transport)


def connect_provider(
    host: str,
    port: int,
    *,
    config: ClusterConfig | None = None,
    faults: NetworkFaultPlan | None = None,
) -> RemoteDataProvider:
    """Connect a provider stub to a :class:`NodeServer` over TCP."""
    config = config if config is not None else ClusterConfig()
    transport = TcpTransport(
        host,
        port,
        timeout=config.rpc_timeout,
        retry=config.retry_policy(),
        faults=faults,
        pool_size=config.pool_size,
        wire=config.wire_config(),
    )
    return RemoteDataProvider.connect(transport)


def connect_datanode(
    host: str,
    port: int,
    *,
    config: ClusterConfig | None = None,
    faults: NetworkFaultPlan | None = None,
) -> RemoteDataNode:
    """Connect a datanode stub to a :class:`NodeServer` over TCP."""
    config = config if config is not None else ClusterConfig()
    transport = TcpTransport(
        host,
        port,
        timeout=config.rpc_timeout,
        retry=config.retry_policy(),
        faults=faults,
        pool_size=config.pool_size,
        wire=config.wire_config(),
    )
    return RemoteDataNode.connect(transport)


def connect_metadata(
    host: str,
    port: int,
    *,
    config: ClusterConfig | None = None,
    faults: NetworkFaultPlan | None = None,
) -> RemoteMetadataProvider:
    """Connect a metadata-provider stub to a :class:`NodeServer` over TCP.

    The metadata channel carries uniformly tiny, high-rate ops (lookup,
    publish, ticket assignment), so it is where small-op batching pays:
    ``config.metadata_batching`` turns coalescing on for this transport.
    """
    config = config if config is not None else ClusterConfig()
    transport = TcpTransport(
        host,
        port,
        timeout=config.rpc_timeout,
        retry=config.retry_policy(),
        faults=faults,
        pool_size=config.pool_size,
        wire=config.wire_config(),
        batching=config.metadata_batching,
    )
    return RemoteMetadataProvider.connect(transport)


def connect_jobservice(
    host: str,
    port: int,
    *,
    config: ClusterConfig | None = None,
    faults: NetworkFaultPlan | None = None,
    timeout: float = 30.0,
) -> RemoteJobService:
    """Connect a job-service stub to a :class:`NodeServer` over TCP.

    ``timeout`` defaults above the deployment's RPC timeout because
    ``wait_job`` legitimately blocks for a whole job execution.
    """
    config = config if config is not None else ClusterConfig()
    transport = TcpTransport(
        host,
        port,
        timeout=max(timeout, config.rpc_timeout),
        retry=config.retry_policy(),
        faults=faults,
        pool_size=config.pool_size,
        wire=config.wire_config(),
    )
    return RemoteJobService.connect(transport)
