#!/usr/bin/env python3
"""Start one storage node process for the benchmark's TCP deployments.

    python perfbench/node.py --kind metadata --node-id 0
    python perfbench/node.py --kind provider --node-id 1
    python perfbench/node.py --kind datanode --node-id 1

Before anything else the process asks the kernel to SIGTERM it when its
parent dies (``PR_SET_PDEATHSIG``), so a benchmark killed with SIGKILL
cannot leave stray servers behind to skew later runs.

``provider`` and ``datanode`` then exec ``scripts/run_node.py`` unchanged
(the signal request survives ``exec``).  ``metadata`` has no such script,
so it is served here: one :class:`~repro.core.dht.MetadataProvider` behind
a :class:`~repro.net.cluster.NodeServer`, with the same ``READY host port``
handshake and SIGTERM handling as ``run_node.py``.  No node heartbeats: the
benchmark runs no control plane.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
import threading

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PR_SET_PDEATHSIG = 1


def die_with_parent(parent_pid: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    # The parent may have died before the request took effect.
    if os.getppid() != parent_pid:
        sys.exit(1)


def serve_metadata(node_id: int) -> int:
    sys.path.insert(0, os.path.join(CHECKOUT, "src"))
    from repro.core.dht import MetadataProvider
    from repro.net.cluster import NodeServer

    server = NodeServer(MetadataProvider(node_id))
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    host, port = server.start()
    print(f"READY {host} {port}", flush=True)
    stop.wait()
    server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kind", choices=("metadata", "provider", "datanode"), required=True
    )
    parser.add_argument("--node-id", type=int, required=True)
    args = parser.parse_args(argv)
    die_with_parent(int(os.environ.get("PERFBENCH_PARENT_PID", os.getppid())))
    if args.kind == "metadata":
        return serve_metadata(args.node_id)
    run_node = os.path.join(CHECKOUT, "scripts", "run_node.py")
    os.execv(
        sys.executable,
        [sys.executable, run_node, "--kind", args.kind, "--node-id", str(args.node_id)],
    )
    return 1  # unreachable: execv replaces the process


if __name__ == "__main__":
    sys.exit(main())
