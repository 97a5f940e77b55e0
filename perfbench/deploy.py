"""The deployments the workloads run on, and their lifecycle.

Three shapes, all built through the public API:

* ``inprocess_bsfs`` — one process: ``BlobSeer`` with its default 16 data
  and 4 metadata providers, ``BSFS`` with 1 MiB blocks, a ``connect``
  session with its default cluster (4 trackers x 2 slots).
* ``tcp_bsfs`` — 2 data-provider processes (``scripts/run_node.py --kind
  provider``) and 1 metadata-provider process (``perfbench/node.py --kind
  metadata``) over TCP loopback; client, namespace and version manager run
  in the driver.
* ``tcp_hdfs`` — 2 datanode processes (``scripts/run_node.py --kind
  datanode``); the namenode runs in the driver; replication 1, 1 MiB blocks.

Storage is the same on every side of a comparison: volatile
``MemoryStore`` pages on the nodes, no control plane and no heartbeats,
the repository's default wire protocol, and version GC only where the
append workload asks for it.

Node processes are reaped on every exit path: :meth:`Deployment.close`
runs from ``finally`` blocks, SIGINT and SIGTERM stop every live node
before the driver exits (see ``run.py``), and each node asks the kernel
to SIGTERM it should the driver die without doing either.
"""

from __future__ import annotations

import os
import resource
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import Session, connect
from repro.bsfs import BSFS
from repro.core import MB, BlobSeer, BlobSeerConfig
from repro.core.dht import MetadataProvider
from repro.core.provider import DataProvider
from repro.hdfs import HDFS
from repro.net import connect_datanode, connect_metadata, connect_provider

NODE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "node.py")
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
BLOCK_SIZE = 1 * MB
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


#: Every node process started and not yet stopped, so that a signal handler
#: can reap them wherever the driver happens to be.
_live_nodes: set["NodeProcess"] = set()


def stop_all_nodes() -> None:
    """Stop every node process this driver started (idempotent)."""
    for node in list(_live_nodes):
        node.stop()


class NodeStartError(RuntimeError):
    """A node process exited or stayed silent instead of printing READY."""


class NodeProcess:
    """One storage node running in its own OS process."""

    def __init__(self, kind: str, node_id: int) -> None:
        self.kind = kind
        self.node_id = node_id
        env = dict(os.environ, PERFBENCH_PARENT_PID=str(os.getpid()))
        self.process = subprocess.Popen(
            [sys.executable, NODE_SCRIPT, "--kind", kind, "--node-id", str(node_id)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        _live_nodes.add(self)
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def await_ready(self, deadline: float) -> None:
        """Read the ``READY host port`` line, failing at ``deadline``."""
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise NodeStartError(
                    f"{self.kind}-{self.node_id} printed no READY line within "
                    f"{READY_TIMEOUT_S:.0f} s"
                )
        line = self.process.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            raise NodeStartError(
                f"{self.kind}-{self.node_id} exited with code "
                f"{self.process.poll()} before READY (got {line!r})"
            )
        self.host, self.port = line[1], int(line[2])

    def cpu_s(self) -> float:
        """User plus system CPU seconds the process has used so far."""
        with open(f"/proc/{self.pid}/stat") as stat:
            # Field 2 (comm) may hold spaces; fields after it are fixed.
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL if needed; always waits for the exit."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        _live_nodes.discard(self)


def start_nodes(specs: list[tuple[str, int]]) -> list[NodeProcess]:
    """Start every node at once, then wait for all READY lines."""
    nodes: list[NodeProcess] = []
    try:
        for kind, node_id in specs:
            nodes.append(NodeProcess(kind, node_id))
        deadline = time.monotonic() + READY_TIMEOUT_S
        for node in nodes:
            node.await_ready(deadline)
    except BaseException:
        for node in nodes:
            node.stop()
        raise
    return nodes


def driver_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Deployment:
    """A running deployment: the session, its parts, and its processes."""

    session: Session
    nodes: list[NodeProcess] = field(default_factory=list)
    blobseer: BlobSeer | None = None
    #: Provider, metadata and datanode objects the client talks to (stubs
    #: over TCP; the in-process objects otherwise).
    providers: list[Any] = field(default_factory=list)
    metadata: list[Any] = field(default_factory=list)
    datanodes: list[Any] = field(default_factory=list)

    @property
    def fs(self):
        return self.session.fs

    def node_cpu_s(self) -> float:
        return sum(node.cpu_s() for node in self.nodes)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the driver plus every node process."""
        return driver_peak_rss_mb() + sum(n.peak_rss_mb() for n in self.nodes)

    def stored_bytes(self) -> int:
        """Bytes the storage nodes hold right now."""
        if self.datanodes:
            return sum(d.stats().bytes_stored for d in self.datanodes)
        return sum(p.stats().bytes_stored for p in self.providers)

    def close(self) -> None:
        try:
            if self.blobseer is not None:
                self.blobseer.close()
            else:
                self.fs.close()
            # BlobSeer.close closes the data providers; the rest are ours.
            for stub in self.metadata + self.datanodes:
                close = getattr(stub, "close", None)
                if close is not None:
                    close()
        finally:
            for node in self.nodes:
                node.stop()


#: Wraps each provider/metadata/datanode object before the deployment uses
#: it (the traced run passes its recording proxies here).
Wrap = Callable[[str, Any], Any]


def _no_wrap(_layer: str, obj: Any) -> Any:
    return obj


def inprocess_bsfs(wrap: Wrap | None = None) -> Deployment:
    wrap = wrap or _no_wrap
    config = BlobSeerConfig()
    providers = [wrap("core.provider", DataProvider(i)) for i in range(config.num_providers)]
    metadata = [
        wrap("core.metadata", MetadataProvider(i))
        for i in range(config.num_metadata_providers)
    ]
    blobseer = BlobSeer(config, providers=providers, metadata_providers=metadata)
    fs = BSFS(blobseer=blobseer, default_block_size=BLOCK_SIZE)
    return Deployment(
        connect(fs),
        blobseer=blobseer,
        providers=providers,
        metadata=metadata,
    )


def tcp_bsfs(
    wrap: Wrap | None = None,
    *,
    shared_cache_blocks: int | None = None,
    config: BlobSeerConfig | None = None,
) -> Deployment:
    wrap = wrap or _no_wrap
    nodes = start_nodes([("provider", 0), ("provider", 1), ("metadata", 0)])
    try:
        providers = [
            wrap("net.provider", connect_provider(n.host, n.port)) for n in nodes[:2]
        ]
        metadata = [wrap("net.metadata", connect_metadata(nodes[2].host, nodes[2].port))]
        config = config or BlobSeerConfig()
        config = config.with_overrides(num_providers=2, num_metadata_providers=1)
        blobseer = BlobSeer(config, providers=providers, metadata_providers=metadata)
        fs = BSFS(
            blobseer=blobseer,
            default_block_size=BLOCK_SIZE,
            shared_cache_blocks=shared_cache_blocks,
        )
        return Deployment(
            connect(fs),
            nodes=nodes,
            blobseer=blobseer,
            providers=providers,
            metadata=metadata,
        )
    except BaseException:
        for node in nodes:
            node.stop()
        raise


def tcp_hdfs(wrap: Wrap | None = None) -> Deployment:
    wrap = wrap or _no_wrap
    nodes = start_nodes([("datanode", 0), ("datanode", 1)])
    try:
        datanodes = [wrap("net.datanode", connect_datanode(n.host, n.port)) for n in nodes]
        fs = HDFS(datanodes=datanodes, default_block_size=BLOCK_SIZE, default_replication=1)
        return Deployment(connect(fs), nodes=nodes, datanodes=datanodes)
    except BaseException:
        for node in nodes:
            node.stop()
        raise
