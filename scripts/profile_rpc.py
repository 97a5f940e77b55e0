#!/usr/bin/env python3
"""cProfile harness for the RPC call path.

Profiles the client side of a tight call loop against an in-process
:class:`~repro.net.tcp.RpcServer` (or the loopback transport) and prints
the hottest functions, so codec and transport changes can be judged by
where the time actually goes rather than end-to-end numbers alone.

Examples:
    # 2000 small echo calls over TCP
    python scripts/profile_rpc.py --calls 2000

    # bulk payloads (1 MiB pages travel as out-of-band segments)
    python scripts/profile_rpc.py --payload 1048576 --calls 200

    # the loopback codec path only (no sockets)
    python scripts/profile_rpc.py --transport loopback --calls 5000
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.net.service import ServiceRegistry  # noqa: E402
from repro.net.tcp import RpcServer, TcpTransport  # noqa: E402
from repro.net.transport import LoopbackTransport, RetryPolicy  # noqa: E402


class EchoService:
    """Minimal service: the profile should show codec + transport, not work."""

    def echo(self, value):
        return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport",
        choices=("tcp", "loopback"),
        default="tcp",
        help="which client transport to profile",
    )
    parser.add_argument(
        "--calls", type=int, default=2000, help="number of round trips"
    )
    parser.add_argument(
        "--payload",
        type=int,
        default=0,
        help="bytes payload per call (0 = a small tuple)",
    )
    parser.add_argument(
        "--batching",
        action="store_true",
        help="enable small-op batching on the TCP transport",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows of the report to print"
    )
    args = parser.parse_args(argv)

    registry = ServiceRegistry()
    registry.register("echo", EchoService())
    payload = os.urandom(args.payload) if args.payload else ("ping", 42)

    def run(transport) -> None:
        for _ in range(args.calls):
            transport.call("echo", "echo", payload)

    profiler = cProfile.Profile()
    if args.transport == "loopback":
        transport = LoopbackTransport(registry)
        # Warm once (lazy imports, first-call setup), then measure.
        transport.call("echo", "echo", payload)
        profiler.runcall(run, transport)
        transport.close()
    else:
        with RpcServer(registry) as server:
            host, port = server.address
            transport = TcpTransport(
                host,
                port,
                batching=args.batching,
                retry=RetryPolicy.no_retry(),
            )
            transport.call("echo", "echo", payload)
            profiler.runcall(run, transport)
            transport.close()

    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    mb = args.calls * args.payload / 1e6
    print(
        f"# {args.transport} calls={args.calls} "
        f"payload={args.payload}B (~{mb:.1f} MB total one-way)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
