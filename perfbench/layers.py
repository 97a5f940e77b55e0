"""What the traced run wraps, and the per-layer metrics computed from it.

Counts and seconds are reported *per root*: per pipeline (ingest + job +
readback) on the job workloads, per client op on ``append-read-tcp``, so
they do not depend on how many roots fit in the window.  Rates and ratios
carry their base in the name or in ``README.md``.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any, Callable

from repro.bsfs import BSFS
from repro.core import MB

from .deploy import Deployment
from .trace import LAYERS, Span, Tracer, self_times, union_length

FS_METHODS = (
    "create",
    "open",
    "append",
    "open_write",
    "open_read",
    "concurrent_append",
    "mkdirs",
    "delete",
    "rename",
    "exists",
    "status",
    "list_dir",
    "list_files",
    "block_locations",
    "snapshot",
    "snapshot_size",
    "file_versions",
)
BLOBSEER_METHODS = (
    "create_blob",
    "write",
    "append",
    "append_batch",
    "read",
    "read_all",
    "open_read",
    "open_write",
    "get_size",
    "latest_version",
    "versions",
    "pin_version",
    "delete_blob",
    "page_locations",
    "blob_info",
)
STREAM_METHODS = {"write": 0, "flush": None, "close": None, "read": None, "pread": None}
TRACED_MARK = "_perfbench_traced"


def _wrap_stream(tracer: Tracer, stream: Any, prefix: str, tag: str | None) -> Any:
    if getattr(stream, TRACED_MARK, False):
        return stream
    for method, bytes_arg in STREAM_METHODS.items():
        fn = getattr(stream, method, None)
        if fn is not None:
            # The stream's calls carry the tag its open call got.
            wrapped = tracer.wrap(
                fn, f"{prefix}.stream.{method}", bytes_arg=bytes_arg, tag=lambda _args: tag
            )
            setattr(stream, method, wrapped)
    setattr(stream, TRACED_MARK, True)
    return stream


def instrument_fs_layer(
    tracer: Tracer, fs: Any, prefix: str, tag_path: Callable[[str], str | None]
) -> None:
    def path_tag(args: tuple) -> str | None:
        return tag_path(args[0]) if args and isinstance(args[0], str) else None

    def stream_result(result: Any, span: Span) -> Any:
        return _wrap_stream(tracer, result, prefix, span.tag)

    def iterator_result(result: Any, span: Span) -> Any:
        return tracer.wrap_iterator(result, f"{prefix}.open_read.next", span.tag)

    special = {name: {"tag": path_tag} for name in FS_METHODS}
    for name in ("create", "open", "append", "open_write"):
        special[name]["on_result"] = stream_result
    special["open_read"]["on_result"] = iterator_result
    special["concurrent_append"]["bytes_arg"] = 1
    tracer.instrument(fs, prefix, only=[m for m in FS_METHODS if hasattr(fs, m)], special=special)

    fs.pin = tracer.wrap(fs.pin, "versions.pin", tag=path_tag)


def instrument_transfer(tracer: Tracer, engine: Any) -> None:
    submit, map_ = engine.submit, engine.map

    def task(fn: Callable) -> Callable:
        return tracer.bind(tracer.wrap(fn, "core.transfer.task"))

    engine.submit = tracer.wrap(
        lambda fn, *args, **kwargs: submit(task(fn), *args, **kwargs),
        "core.transfer.submit",
    )
    engine.map = tracer.wrap(
        lambda fn, items, **kwargs: map_(task(fn), items, **kwargs),
        "core.transfer.map",
    )


def instrument_trackers(tracer: Tracer, trackers: list[Any]) -> None:
    for tracker in trackers:
        for method, name in (
            ("run_map_task", "mapreduce.map_task"),
            ("run_reduce_task", "mapreduce.reduce_task"),
        ):
            setattr(tracker, method, _task_wrapper(tracer, getattr(tracker, method), name))


def _task_wrapper(tracer: Tracer, fn: Callable, name: str) -> Callable:
    def run_task(job: Any, *args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return fn(job, *args, **kwargs)
        tracer.sample_threads()
        # The attempt runs on a job worker thread; its parent is the span
        # the job was submitted under, found by the job's (unique) name.
        span = tracer.start(name, parent=tracer.job_spans.get(job.conf.name))
        try:
            return fn(job, *args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            tracer.finish(span)
            tracer.sample_threads()

    return run_task


def instrument_deployment(
    tracer: Tracer, dep: Deployment, tag_path: Callable[[str], str | None]
) -> None:
    """Wrap every layer boundary of ``dep`` the benchmark can reach."""
    fs = dep.fs
    if isinstance(fs, BSFS):
        instrument_fs_layer(tracer, fs, "bsfs", tag_path)
        tracer.instrument(fs.namespace.tree, "fs.namespace")
    else:
        instrument_fs_layer(tracer, fs, "hdfs", tag_path)
        tracer.instrument(fs.namenode, "hdfs.namenode")
        tracer.instrument(fs.namenode.tree, "fs.namespace")
        instrument_transfer(tracer, fs.transfer)
    bs = dep.blobseer
    if bs is not None:
        def open_read_result(result: Any, span: Span) -> Any:
            return tracer.wrap_iterator(result, "core.blobseer.open_read.next", span.tag)

        def open_write_result(result: Any, span: Span) -> Any:
            return _wrap_stream(tracer, result, "core.blobseer", span.tag)

        tracer.instrument(
            bs,
            "core.blobseer",
            only=BLOBSEER_METHODS,
            special={
                "open_read": {"on_result": open_read_result},
                "open_write": {"on_result": open_write_result},
            },
        )
        tracer.instrument(bs.version_manager, "core.version_manager")
        tracer.instrument(bs.provider_manager, "core.provider_manager")
        # Snapshot handles are slotted; their release goes through the registry.
        tracer.instrument(bs.pins, "versions.pins")
        instrument_transfer(tracer, bs.transfer)
        run_once = bs.gc.run_once

        def sweep() -> Any:
            if not tracer.active:
                return run_once()
            # A sweep is background work of its own: a root, not an orphan.
            span = tracer.root("versions.gc.run_once")
            try:
                report = run_once()
            finally:
                tracer.finish(span)
            span.nbytes = report.bytes_reclaimed
            return report

        bs.gc.run_once = sweep
    instrument_trackers(tracer, dep.session.service.tracker.trackers)


# -- user functions ----------------------------------------------------------------------


class _ShimCounters:
    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls: list[tuple[str, int]] = []

    def increment(self, name: str, amount: int = 1) -> None:
        self.calls.append((name, amount))


class _ShimContext:
    """What a user function sees while it is timed.

    ``emit`` and counter increments are recorded and replayed into the
    framework's context after the call, so framework work (partitioning,
    buffering, spills, counter locks) is never timed as user work.
    """

    __slots__ = ("job_conf", "task_id", "counters", "pairs")

    def __init__(self, real: Any) -> None:
        self.job_conf = getattr(real, "job_conf", None)
        self.task_id = getattr(real, "task_id", None)
        self.counters = _ShimCounters()
        self.pairs: list[tuple[Any, Any]] = []

    def emit(self, key: Any, value: Any) -> None:
        self.pairs.append((key, value))


def _shim_for(context: Any) -> _ShimContext:
    shim = context.__dict__.get("_perfbench_shim")
    if shim is None:
        shim = context.__dict__["_perfbench_shim"] = _ShimContext(context)
    return shim


def _replay(shim: _ShimContext, context: Any) -> None:
    emit = context.emit
    for key, value in shim.pairs:
        emit(key, value)
    if shim.counters.calls:
        increment = context.counters.increment
        for name, amount in shim.counters.calls:
            increment(name, amount)
        shim.counters.calls.clear()
    shim.pairs.clear()


def _timed_map(tracer: Tracer, fn: Callable) -> Callable:
    def mapper(key: Any, value: Any, context: Any) -> None:
        shim = _shim_for(context)
        clock = tracer.user_clock()
        started = perf_counter()
        fn(key, value, shim)
        clock.seconds += perf_counter() - started
        _replay(shim, context)

    return mapper


def _timed_reduce(tracer: Tracer, fn: Callable) -> Callable:
    def reducer(key: Any, values: Any, context: Any) -> None:
        # Pulling the values runs the framework's merge (and its storage
        # reads); that happens before the clock starts.
        values = list(values)
        shim = _shim_for(context)
        clock = tracer.user_clock()
        started = perf_counter()
        fn(key, values, shim)
        clock.seconds += perf_counter() - started
        _replay(shim, context)

    return reducer


def timed_job(tracer: Tracer, job: Any) -> Any:
    """``job`` with its mapper, combiner and reducer timed as user work."""
    return dataclasses.replace(
        job,
        mapper=_timed_map(tracer, job.mapper),
        reducer=_timed_reduce(tracer, job.reducer),
        combiner=None if job.combiner is None else _timed_reduce(tracer, job.combiner),
    )


# -- the layer table ---------------------------------------------------------------------

#: What a client calls to pin a snapshot and to drop the pin.
PIN_CALLS = ("versions.pin", "versions.pins.release")


def _is_storage_entry(span: Span) -> bool:
    """A call the benchmark or the framework makes into the storage stack."""
    if span.name in PIN_CALLS:
        return True
    return span.name.startswith(("bsfs.", "hdfs.")) and not span.name.startswith("hdfs.namenode")


@dataclasses.dataclass
class WindowFacts:
    """What the workload measured in the traced window, besides spans."""

    roots: int
    job_results: list[Any]
    job_wall_s: float
    slots: int
    driver_cpu_s: float
    node_cpu_s: float
    metadata_batches: int
    user_bytes_written: int


def layer_metrics(tracer: Tracer, facts: WindowFacts) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics, and the self-time table by layer."""
    # Layer spans only: the benchmark's own root and phase spans are left out.
    spans = [s for s in tracer.spans if s.layer in LAYERS]
    by_id = {s.id: s for s in tracer.spans}
    selfs = self_times(tracer.spans)
    roots = max(facts.roots, 1)

    def parent_of(span: Span) -> Span | None:
        return by_id.get(span.parent) if span.parent is not None else None

    def outermost(prefix: str) -> list[Span]:
        out = []
        for span in spans:
            if not span.name.startswith(prefix):
                continue
            parent = parent_of(span)
            if parent is None or not parent.name.startswith(prefix):
                out.append(span)
        return out

    def named(*names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in spans if s.name in wanted]

    def total(items: list[Span]) -> float:
        return sum(s.duration for s in items)

    def mean_us(items: list[Span]) -> float:
        return total(items) / len(items) * 1e6 if items else 0.0

    def mbps(items: list[Span]) -> float:
        seconds = total(items)
        return sum(s.nbytes for s in items) / MB / seconds if seconds else 0.0

    layer_self: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    for span in spans:
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + selfs[span.id]
        layer_calls[span.layer] = layer_calls.get(span.layer, 0) + 1
        if span.name.startswith("core.transfer."):
            layer_self["core.transfer"] = layer_self.get("core.transfer", 0.0) + selfs[span.id]

    # MapReduce: task attempts, user functions, shuffle.
    tasks = [s for s in spans if s.name in ("mapreduce.map_task", "mapreduce.reduce_task")]
    map_tasks = [s for s in tasks if s.name == "mapreduce.map_task"]
    user_s = tracer.user_fn_seconds()
    jobs = facts.job_results
    njobs = max(len(jobs), 1)
    map_records = sum(
        r.records_in for j in jobs for r in j.task_results if r.kind == "map" and r.succeeded
    )
    attempts = sum(len(j.task_results) for j in jobs)
    task_count = sum(j.map_tasks + j.reduce_tasks for j in jobs)
    shuffles = [j.shuffle for j in jobs if j.shuffle]
    storage = [s for s in spans if _is_storage_entry(s)]
    storage_top = [
        s for s in storage if (p := parent_of(s)) is None or not _is_storage_entry(p)
    ]

    def storage_s(tag: str) -> float:
        return total([s for s in storage_top if s.tag == tag])

    metadata = [s for s in spans if s.name.startswith(("core.metadata.", "net.metadata."))]
    providers = [s for s in spans if s.name.startswith(("core.provider.", "net.provider."))]
    puts = [s for s in providers if s.name.endswith(".put_page")]
    gets = [s for s in providers if s.name.endswith(".get_page")]
    net = [s for s in spans if s.layer == "net"]
    net_provider = [s for s in net if s.name.startswith("net.provider.")]
    net_metadata = [s for s in net if s.name.startswith("net.metadata.")]
    net_datanode = [s for s in net if s.name.startswith("net.datanode.")]
    appends = [s for s in tracer.spans if s.root and s.name == "op.append"]
    read_tags = ("readback", "read")
    read_bytes = sum(
        s.nbytes
        for s in storage_top
        if s.tag in read_tags and s.name.endswith((".read", ".pread", ".next"))
    )
    gc_sweeps = named("versions.gc.run_once")
    vm = "core.version_manager."
    orphans = [s for s in tracer.spans if s.parent is None and not s.root]

    metrics = {
        "mapreduce.map_records_per_s": map_records / total(map_tasks) if map_tasks else 0.0,
        "mapreduce.framework_self_s": (sum(selfs[s.id] for s in tasks) - user_s) / roots,
        "mapreduce.threads_peak": float(tracer.threads_peak),
        "mapreduce.user_fn_s": user_s / roots,
        "mapreduce.slot_busy_ratio": (
            total(tasks) / (facts.slots * facts.job_wall_s) if facts.job_wall_s else 0.0
        ),
        "mapreduce.attempts_per_task": attempts / task_count if task_count else 0.0,
        "mapreduce.shuffle.bytes_spilled": sum(s["bytes_spilled"] for s in shuffles) / njobs,
        "mapreduce.shuffle.segments_fetched": sum(s["segments_fetched"] for s in shuffles) / njobs,
        "mapreduce.shuffle.merge_passes": sum(s["merge_passes"] for s in shuffles) / njobs,
        "mapreduce.shuffle.fetch_lead_s": sum(
            s["last_map_done_time"] - s["first_fetch_time"]
            for s in shuffles
            if s["first_fetch_time"] is not None and s["last_map_done_time"] is not None
        )
        / njobs,
        "mapreduce.shuffle.storage_s": storage_s("shuffle") / njobs,
        "mapreduce.input_read_s": storage_s("input") / njobs,
        "mapreduce.output_write_s": storage_s("output") / njobs,
        "fs.namespace_ops": len(outermost("fs.namespace.")) / roots,
        "fs.namespace_s": total(outermost("fs.namespace.")) / roots,
        "bsfs.self_s": layer_self.get("bsfs", 0.0) / roots,
        "hdfs.namenode_calls": len(outermost("hdfs.namenode.")) / roots,
        "hdfs.namenode_s": total(outermost("hdfs.namenode.")) / roots,
        "hdfs.block_write_mbps": mbps(named("net.datanode.write_block")),
        "hdfs.block_read_mbps": mbps(named("net.datanode.read_block")),
        "core.version_manager.ticket_s": total(
            named(vm + "assign_ticket", vm + "assign_append_tickets")
        )
        / roots,
        "core.version_manager.publish_s": total(named(vm + "publish", vm + "publish_batch"))
        / roots,
        "core.version_manager.publish_wait_s": total(named(vm + "wait_for_publication")) / roots,
        "core.metadata.ops_per_append": (
            sum(1 for s in metadata if s.tag == "append") / len(appends) if appends else 0.0
        ),
        "core.metadata.ops_per_mib_read": (
            sum(1 for s in metadata if s.tag in read_tags) / (read_bytes / MB)
            if read_bytes
            else 0.0
        ),
        "core.metadata.s": total(metadata) / roots,
        "core.provider.pages_written": len(puts) / roots,
        "core.provider.pages_read": len(gets) / roots,
        "core.provider.put_s": total(puts) / roots,
        "core.provider.get_s": total(gets) / roots,
        "core.provider.bytes_written_per_user_byte": (
            sum(s.nbytes for s in puts) / facts.user_bytes_written
            if facts.user_bytes_written
            else 0.0
        ),
        "core.provider_manager.allocate_s": total(
            named("core.provider_manager.allocate", "core.provider_manager.allocate_ranges")
        )
        / roots,
        "core.transfer.fanout_calls": len(named("core.transfer.map", "core.transfer.submit"))
        / roots,
        "core.transfer.s": layer_self.get("core.transfer", 0.0) / roots,
        "net.provider.rpc_calls": len(net_provider) / roots,
        "net.provider.rpc_us_mean": mean_us(net_provider),
        "net.metadata.rpc_calls": len(net_metadata) / roots,
        "net.metadata.rpc_us_mean": mean_us(net_metadata),
        "net.datanode.rpc_us_mean": mean_us(net_datanode),
        "net.bytes_per_rpc": sum(s.nbytes for s in net) / len(net) if net else 0.0,
        "net.metadata.ops_per_batch": (
            len(net_metadata) / facts.metadata_batches if facts.metadata_batches else 0.0
        ),
        "net.rpc_errors": float(sum(1 for s in net if s.error)),
        "net.node_cpu_s": facts.node_cpu_s / roots,
        "driver_cpu_s": facts.driver_cpu_s / roots,
        "versions.pin_s": total(named(*PIN_CALLS)) / roots,
        "versions.gc.sweeps": float(len(gc_sweeps)),
        "versions.gc.sweep_s": total(gc_sweeps) / len(gc_sweeps) if gc_sweeps else 0.0,
        "versions.gc.bytes_reclaimed": float(sum(s.nbytes for s in gc_sweeps)),
        "trace.orphan_spans": float(len(orphans)),
        "trace.spans": float(len(tracer.spans)),
    }
    table = {
        layer: {
            "self_s_per_root": layer_self.get(layer, 0.0) / roots,
            "spans": layer_calls.get(layer, 0),
        }
        for layer in LAYERS
    }
    return metrics, table


def coverage(tracer: Tracer, root_names: tuple[str, ...]) -> float:
    """Share of root wall time covered by layer spans of the same trace."""
    by_trace: dict[int, list[tuple[float, float]]] = {}
    for span in tracer.spans:
        if span.trace is not None and not span.root and span.layer in LAYERS:
            by_trace.setdefault(span.trace, []).append((span.start, span.end))
    covered = wall = 0.0
    for span in tracer.spans:
        if span.root and span.name in root_names:
            wall += span.duration
            covered += union_length(by_trace.get(span.trace, []), span.start, span.end)
    return covered / wall if wall else 0.0
