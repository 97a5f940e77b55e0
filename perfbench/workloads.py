"""The four workloads: deployment, closed loop, oracle and metrics.

Every workload is a closed loop driven from this process: a client sends
its next request only after the previous one returned.  The job workloads
run one pipeline at a time (ingest, job, readback); ``append-read-tcp``
runs two client threads.  Inputs come from ``--seed`` only, and are made
before any timed region; oracles run after it.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import math
import random
import statistics
import threading
from time import perf_counter
from typing import Any, Callable

from repro.core import KB, MB, BlobSeerConfig
from repro.mapreduce.applications.sort import make_sort_job
from repro.mapreduce.applications.wordcount import make_wordcount_job
from repro.workloads.generators import random_text

from . import deploy
from .deploy import Deployment
from .layers import WindowFacts, coverage, instrument_deployment, layer_metrics, timed_job
from .trace import Tracer, TracedProxy

SETUP_REPEATS = 5
REDUCERS = 4
SPLIT_SIZE = 1 * MB
#: Session default cluster: 4 trackers x 2 slots.
SLOTS = 8
INGEST_CHUNK = 1 * MB


class OracleError(AssertionError):
    """A workload's output differs from what its inputs imply."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest rank."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def beyond(samples: list[float], q: float) -> int:
    """How many samples lie beyond the ``q``-quantile."""
    return len(samples) - math.ceil(q * len(samples))


@contextlib.contextmanager
def traced(tracer: Tracer | None, name: str, *, root: bool = False, tag: str | None = None):
    """A benchmark span around a block; nothing when the run is untraced."""
    if tracer is None:
        yield None
        return
    span = tracer.start(name, root=root, tag=tag)
    try:
        yield span
    finally:
        tracer.finish(span)


@dataclasses.dataclass
class Outcome:
    """One run's result: metrics, op counts, and the human-readable lines."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    report: list[str]
    #: The traced window's spans (none for an untraced run).
    spans: list = dataclasses.field(default_factory=list)


class Window:
    """One measured window on one deployment (traced or not)."""

    def __init__(self, dep: Deployment, tracer: Tracer | None) -> None:
        self.dep = dep
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.roots = 0
        self.job_results: list[Any] = []
        self.job_wall_s = 0.0
        self.driver_cpu_s = 0.0
        self.node_cpu_s = 0.0
        self.batches = 0

    @contextlib.contextmanager
    def metered(self):
        """Count CPU and metadata batches of the timed work in the block."""
        driver, nodes = deploy.driver_cpu_s(), self.dep.node_cpu_s()
        batches = self.metadata_batches()
        yield
        self.driver_cpu_s += deploy.driver_cpu_s() - driver
        self.node_cpu_s += self.dep.node_cpu_s() - nodes
        self.batches += self.metadata_batches() - batches

    def untimed(self) -> contextlib.AbstractContextManager:
        """Oracles and clean-up: no spans are recorded."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def metadata_batches(self) -> int:
        return sum(
            getattr(getattr(stub, "transport", None), "batches_sent", 0)
            for stub in self.dep.metadata
        )

    def facts(self, user_bytes: int) -> WindowFacts:
        return WindowFacts(
            roots=self.roots,
            job_results=self.job_results,
            job_wall_s=self.job_wall_s,
            slots=SLOTS,
            driver_cpu_s=self.driver_cpu_s,
            node_cpu_s=self.node_cpu_s,
            metadata_batches=self.batches,
            user_bytes_written=user_bytes,
        )


class Workload:
    """Shared run structure: repeated set-up, then one measured window."""

    name = ""
    root_names: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    # Subclasses provide these.
    def deploy(self, wrap: Callable[[str, Any], Any] | None) -> Deployment:
        raise NotImplementedError

    def warm_up(self, dep: Deployment) -> None:
        raise NotImplementedError

    def measure(self, window: Window, seconds: float) -> dict[str, float]:
        raise NotImplementedError

    def report_lines(self, samples: dict[str, Any]) -> list[str]:
        raise NotImplementedError

    # -- shared ------------------------------------------------------------------------
    def e2e(self, samples: dict[str, Any], dep: Deployment, setup_s: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (dep.peak_rss_mb(), "MB"),
            "pipeline_mbps": (samples["pipeline_mbps"], "MB/s"),
            "ingest_mbps": (samples["ingest_mbps"], "MB/s"),
            "space_amplification": (samples["space_amplification"], "ratio"),
        }

    def set_up(self, tracer: Tracer | None = None) -> tuple[Deployment, float]:
        """Deploy and warm up; returns the deployment and the seconds it took."""
        wrap = None
        if tracer is not None:
            wrap = lambda layer, obj: TracedProxy(tracer, layer, obj)  # noqa: E731
        started = perf_counter()
        dep = self.deploy(wrap)
        try:
            if tracer is not None:
                instrument_deployment(tracer, dep, self.tag_path)
            self.warm_up(dep)
        except BaseException:
            dep.close()
            raise
        return dep, perf_counter() - started

    def tag_path(self, path: str) -> str | None:
        return None

    def run(self) -> Outcome:
        """The untraced run: every end-to-end metric."""
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            dep, seconds = self.set_up()
            setups.append(seconds)
            dep.close()
        dep, seconds = self.set_up()
        setups.append(seconds)
        try:
            window = Window(dep, None)
            samples = self.measure(window, self.seconds)
            metrics = self.e2e(samples, dep, statistics.median(setups))
            return Outcome(
                metrics=metrics,
                attempted=window.attempted,
                failed=window.failed,
                report=self.report_lines(samples) + [f"setup_s samples: {setups}"],
            )
        finally:
            dep.close()

    def run_traced(self) -> Outcome:
        """Half the window untraced, half traced: the per-layer metrics."""
        half = self.seconds / 2
        dep, _ = self.set_up()
        try:
            plain = Window(dep, None)
            plain_samples = self.measure(plain, half)
        finally:
            dep.close()
        tracer = Tracer()
        dep, _ = self.set_up(tracer)
        try:
            tracer.spans.clear()  # drop the warm-up's spans
            traced = Window(dep, tracer)
            traced_samples = self.measure(traced, half)
            metrics, table = layer_metrics(tracer, traced.facts(traced_samples["user_bytes"]))
        finally:
            dep.close()
        base = plain_samples["rate"]
        metrics["trace.overhead_pct"] = (base - traced_samples["rate"]) / base * 100
        metrics["trace.coverage"] = coverage(tracer, self.root_names)
        report = [
            f"layer {layer:<10} self {row['self_s_per_root']:.6f} s/root  spans {row['spans']}"
            for layer, row in table.items()
        ]
        report.append(
            f"roots {traced.roots}, spans {metrics['trace.spans']:.0f}, "
            f"orphans {metrics['trace.orphan_spans']:.0f}"
        )
        return Outcome(
            metrics={name: (value, unit_of(name)) for name, value in metrics.items()},
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            report=report,
            spans=tracer.spans,
        )


# -- job workloads -----------------------------------------------------------------------


class JobWorkload(Workload):
    """Ingest a seeded input, run one MapReduce job on it, read the output."""

    root_names = ("pipeline",)
    input_bytes = 0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.data = self.make_input(self.input_bytes)
        self._phase = "ingest"
        self._pipelines = 0

    def make_input(self, size: int) -> bytes:
        raise NotImplementedError

    def make_job(self, input_path: str, output_dir: str) -> Any:
        raise NotImplementedError

    def verify(self, parts: list[bytes]) -> None:
        raise NotImplementedError

    def tag_path(self, path: str) -> str | None:
        if self._phase != "job":
            return self._phase
        if "/_shuffle" in path:
            return "shuffle"
        if path.startswith("/in"):
            return "input"
        if path.startswith("/out"):
            return "output"
        return None

    def warm_up(self, dep: Deployment) -> None:
        tiny = self.data[: self.data.index(b"\n", 64 * KB) + 1]
        self.settle(dep, self.pipeline(dep, tiny, None, "warmup"), tiny, check_output=False)

    def pipeline(self, dep: Deployment, data: bytes, tracer: Tracer | None, label: str) -> dict:
        """One timed ingest -> job -> readback pass."""
        session = dep.session
        in_path, out_dir = f"/in/{label}", f"/out/{label}"
        job = self.make_job(in_path, out_dir)
        job = dataclasses.replace(
            job,
            conf=dataclasses.replace(
                job.conf, name=f"{self.name}-{label}", spill_to_fs=True
            ),
        )
        if tracer is not None:
            job = timed_job(tracer, job)
        with traced(tracer, "pipeline", root=True):
            self._phase = "ingest"
            with traced(tracer, "phase.ingest"):
                t0 = perf_counter()
                with session.create(in_path) as out:
                    for offset in range(0, len(data), INGEST_CHUNK):
                        out.write(data[offset : offset + INGEST_CHUNK])
                t1 = perf_counter()
            self._phase = "job"
            with traced(tracer, "phase.job") as span:
                if span is not None:
                    tracer.job_spans[job.conf.name] = span
                result = session.submit(job).wait()
                t2 = perf_counter()
            if not result.succeeded:
                raise RuntimeError(f"job {job.conf.name} failed: {result.failed_tasks[0].error}")
            self._phase = "readback"
            with traced(tracer, "phase.readback"):
                parts = [session.read(path) for path in result.output_paths]
                t3 = perf_counter()
        return {
            "ingest_s": t1 - t0,
            "job_s": t2 - t1,
            "readback_s": t3 - t2,
            "parts": parts,
            "result": result,
            "paths": (in_path, out_dir),
        }

    def settle(self, dep: Deployment, run: dict, data: bytes, *, check_output: bool) -> None:
        """After a pipeline: check the output, measure space, delete the files."""
        parts = run.pop("parts")
        if check_output:
            self.verify(parts)
        run["output_bytes"] = sum(len(p) for p in parts)
        run["space_amplification"] = dep.stored_bytes() / (len(data) + run["output_bytes"])
        in_path, out_dir = run["paths"]
        dep.session.delete(in_path)
        dep.session.delete(out_dir, recursive=True)

    def measure(self, window: Window, seconds: float) -> dict[str, Any]:
        runs = []
        # The window counts timed work only; oracles and clean-up are extra.
        timed = 0.0
        while not runs or timed < seconds:
            self._pipelines += 1
            # Ingest, job and readback; a failure raises and ends the run.
            window.attempted += 3
            with window.metered():
                run = self.pipeline(window.dep, self.data, window.tracer, str(self._pipelines))
            with window.untimed():
                self.settle(window.dep, run, self.data, check_output=True)
            runs.append(run)
            timed += run["ingest_s"] + run["job_s"] + run["readback_s"]
            window.job_results.append(run["result"])
            window.job_wall_s += run["job_s"]
        window.roots = len(runs)
        mib = len(self.data) / MB

        return {
            "runs": runs,
            "pipeline_mbps": statistics.median(
                mib / (r["ingest_s"] + r["job_s"] + r["readback_s"]) for r in runs
            ),
            "ingest_mbps": statistics.median(mib / r["ingest_s"] for r in runs),
            "job_mbps": statistics.median(mib / r["job_s"] for r in runs),
            "readback_mbps": statistics.median(
                r["output_bytes"] / MB / r["readback_s"] for r in runs
            ),
            "space_amplification": statistics.median(r["space_amplification"] for r in runs),
            "user_bytes": sum(len(self.data) + r["output_bytes"] for r in runs),
            # What the trace overhead is measured on: pipelines per second.
            "rate": len(runs) / timed,
        }

    def report_lines(self, samples: dict[str, Any]) -> list[str]:
        runs = samples["runs"]
        return [
            f"pipelines {len(runs)}, input {len(self.data) / MB:.2f} MiB each",
            f"job_mbps {samples['job_mbps']:.4f} MB/s (median of {len(runs)})",
            f"readback_mbps {samples['readback_mbps']:.4f} MB/s (median of {len(runs)})",
            "error_rate 0 (failed ops / attempted)",
        ]


def seeded_text(size: int, seed: int) -> bytes:
    """The whole lines of seeded random text that fit in ``size`` bytes."""
    text = random_text(size, seed=seed)
    return text[: text.rindex(b"\n", 0, size) + 1]


class WordCount(JobWorkload):
    name = "wordcount"
    input_bytes = 4 * MB

    def deploy(self, wrap):
        return deploy.inprocess_bsfs(wrap)

    def make_input(self, size: int) -> bytes:
        data = seeded_text(size, self.seed)
        self.expected = collections.Counter(data.split())
        return data

    def make_job(self, input_path: str, output_dir: str) -> Any:
        return make_wordcount_job(
            [input_path],
            output_dir=output_dir,
            num_reduce_tasks=REDUCERS,
            split_size=SPLIT_SIZE,
        )

    def verify(self, parts: list[bytes]) -> None:
        counts: dict[bytes, int] = {}
        for part in parts:
            for line in part.splitlines():
                word, _, count = line.rpartition(b"\t")
                check(word not in counts, f"word {word!r} output twice")
                counts[word] = int(count)
        check(counts == self.expected, "word counts differ from the input's Counter")


class Sort(JobWorkload):
    input_bytes = 4 * MB

    def make_input(self, size: int) -> bytes:
        # key = the first three words, value = the rest: mostly distinct keys.
        lines = []
        for line in seeded_text(size, self.seed).splitlines():
            words = line.split(b" ")
            lines.append(b" ".join(words[:3]) + b"\t" + b" ".join(words[3:]))
        self.expected = collections.Counter(lines)
        return b"\n".join(lines) + b"\n"

    def make_job(self, input_path: str, output_dir: str) -> Any:
        return make_sort_job(
            [input_path],
            output_dir=output_dir,
            num_reduce_tasks=REDUCERS,
            split_size=SPLIT_SIZE,
        )

    def verify(self, parts: list[bytes]) -> None:
        seen: collections.Counter = collections.Counter()
        for part in parts:
            lines = part.splitlines()
            keys = [line.split(b"\t", 1)[0].decode() for line in lines]
            check(keys == sorted(keys), "a part file is not sorted by key")
            seen.update(lines)
        check(seen == self.expected, "output lines differ from the input's multiset")


class SortBsfsTcp(Sort):
    name = "sort-bsfs-tcp"

    def deploy(self, wrap):
        return deploy.tcp_bsfs(wrap, shared_cache_blocks=SORT_CACHE_BLOCKS)


class SortHdfsTcp(Sort):
    name = "sort-hdfs-tcp"

    def deploy(self, wrap):
        return deploy.tcp_hdfs(wrap)


#: BSFS shared block cache for the sort workload: the input is twice its size.
SORT_CACHE_BLOCKS = Sort.input_bytes // deploy.BLOCK_SIZE // 2


# -- append-read ----------------------------------------------------------------------------

LOG_PATH = "/appends/log"
CLIENTS = 2
#: Each client reads after every six appends: 86% appends, 14% reads.  A
#: fixed schedule keeps the read share, and so the bytes moved, from
#: varying with the seed.
READ_EVERY = 7
RECORD_MIN, RECORD_MAX = 128, 4 * KB
READ_SPAN = 64 * KB
KEEP_VERSIONS = 64
GC_INTERVAL_S = 1.0


class AppendRead(Workload):
    """Two clients append tagged records to one file and read snapshots."""

    name = "append-read-tcp"
    root_names = ("op.append", "op.read")

    def deploy(self, wrap):
        config = BlobSeerConfig(max_versions_kept=KEEP_VERSIONS)
        dep = deploy.tcp_bsfs(wrap, config=config)
        dep.session.write(LOG_PATH, b"")
        return dep

    def warm_up(self, dep: Deployment) -> None:
        dep.blobseer.gc.start(GC_INTERVAL_S)
        dep.session.fs.concurrent_append(LOG_PATH, b"warm-up\n")
        with dep.session.open(LOG_PATH) as stream:
            stream.read()

    def guarded_client(self, *args: Any) -> None:
        try:
            self.client(*args)
        except Exception as exc:  # re-raised by measure() on the main thread
            args[-1]["error"] = exc

    def client(
        self, index: int, fs: Any, session: Any, deadline: float, tracer: Tracer | None, out: dict
    ) -> None:
        rng = random.Random(self.seed * 1009 + index)
        appends, reads = out["appends"], out["reads"]
        append_ms, read_ms = out["append_ms"], out["read_ms"]
        seq = 0
        ops = 0
        while perf_counter() < deadline:
            ops += 1
            if ops % READ_EVERY:
                size = rng.randint(RECORD_MIN, RECORD_MAX)
                header = b"<%d:%d:%d>" % (index, seq, size)
                record = header + bytes([97 + seq % 26]) * (size - len(header) - 1) + b"\n"
                seq += 1
                out["attempted"] += 1
                t0 = perf_counter()
                try:
                    with traced(tracer, "op.append", root=True, tag="append"):
                        offset = fs.concurrent_append(LOG_PATH, record)
                except Exception:
                    out["failed"] += 1
                    continue
                append_ms.append((perf_counter() - t0) * 1000)
                appends.append((offset, record))
            else:
                out["attempted"] += 1
                t0 = perf_counter()
                try:
                    with traced(tracer, "op.read", root=True, tag="read"):
                        handle = session.pin(LOG_PATH)
                        try:
                            with session.open(f"{LOG_PATH}@v{handle.version}") as stream:
                                start = max(0, stream.size - READ_SPAN)
                                data = stream.pread(start, stream.size - start)
                        finally:
                            handle.release()
                except Exception:
                    out["failed"] += 1
                    continue
                read_ms.append((perf_counter() - t0) * 1000)
                reads.append((handle.version, start, len(data), hashlib.blake2b(data).digest()))

    def measure(self, window: Window, seconds: float) -> dict[str, Any]:
        dep = window.dep
        fs = dep.session.fs
        v0 = fs.snapshot(LOG_PATH)
        base = fs.status(LOG_PATH).size
        outs = [
            dict(appends=[], reads=[], append_ms=[], read_ms=[], attempted=0, failed=0)
            for _ in range(CLIENTS)
        ]
        started = perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=self.guarded_client,
                args=(i, fs, dep.session, deadline, window.tracer, outs[i]),
                name=f"client-{i}",
            )
            for i in range(CLIENTS)
        ]
        with window.metered():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = perf_counter() - started
        window.attempted = sum(o["attempted"] for o in outs)
        window.failed = sum(o["failed"] for o in outs)
        errors = [o["error"] for o in outs if o.get("error")]
        if errors:
            raise errors[0]
        appends = [a for o in outs for a in o["appends"]]
        reads = [r for o in outs for r in o["reads"]]
        append_ms = [x for o in outs for x in o["append_ms"]]
        read_ms = [x for o in outs for x in o["read_ms"]]
        window.roots = len(append_ms) + len(read_ms)

        dep.blobseer.gc.stop()
        with window.untimed():
            final = dep.session.read(LOG_PATH)
            self.verify(fs, final, base, v0, appends, reads)
            dep.blobseer.gc.run_once()
            stored = dep.stored_bytes()
        appended = sum(len(r) for _o, r in appends)
        read_bytes = sum(r[2] for r in reads)
        return {
            "append_ms": append_ms,
            "read_ms": read_ms,
            "pipeline_mbps": (appended + read_bytes) / MB / wall,
            "ingest_mbps": appended / MB / wall,
            "append_ops_per_s": len(appends) / wall,
            "attempted": window.attempted,
            "failed": window.failed,
            "space_amplification": stored / len(final),
            "user_bytes": appended,
            # What the trace overhead is measured on: client ops per second.
            "rate": (len(appends) + len(reads)) / wall,
        }

    def verify(self, fs, final: bytes, base: int, v0: int, appends, reads) -> None:
        cursor = base
        for offset, record in sorted(appends):
            check(offset == cursor, f"gap or overlap at byte {cursor} (next record at {offset})")
            check(final[offset : offset + len(record)] == record, f"record at {offset} differs")
            cursor += len(record)
        check(cursor == len(final), f"{len(final) - cursor} unacknowledged bytes at the tail")
        latest = fs.snapshot(LOG_PATH)
        check(latest - v0 == len(appends), f"{latest - v0} versions for {len(appends)} appends")
        # Retention keeps the newest versions (plus any that were pinned).
        newest = fs.file_versions(LOG_PATH)[-KEEP_VERSIONS:]
        check(
            newest == list(range(latest - KEEP_VERSIONS + 1, latest + 1)),
            f"the newest retained versions have gaps: {newest}",
        )
        for _version, start, length, digest in reads:
            check(
                hashlib.blake2b(final[start : start + length]).digest() == digest,
                f"snapshot read at {start} is not a prefix of the final file",
            )

    def report_lines(self, samples: dict[str, Any]) -> list[str]:
        a, r = samples["append_ms"], samples["read_ms"]
        return [
            f"append_ops_per_s {samples['append_ops_per_s']:.2f} 1/s",
            f"append_p50_ms {percentile(a, 0.5):.4f} ms, append_p99_ms "
            f"{percentile(a, 0.99):.4f} ms ({len(a)} appends, {beyond(a, 0.99)} beyond p99)",
            f"read_p50_ms {percentile(r, 0.5):.4f} ms, read_p90_ms "
            f"{percentile(r, 0.9):.4f} ms ({len(r)} reads, {beyond(r, 0.9)} beyond p90)",
            "error_rate "
            f"{samples['failed'] / samples['attempted']:.6f} (failed ops / attempted)",
        ]


WORKLOADS = {
    cls.name: cls for cls in (WordCount, SortBsfsTcp, SortHdfsTcp, AppendRead)
}


def unit_of(name: str) -> str:
    if name.endswith(("ratio", "per_task", "per_user_byte")) or name == "trace.coverage":
        return "ratio"
    if "bytes" in name:
        return "B"
    if name.endswith("_mbps"):
        return "MB/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us_mean"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "count"
