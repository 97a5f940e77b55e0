"""Shuffle phase: partitioning, sorting, grouping, and output formats.

Between the map and reduce phases Hadoop partitions every intermediate pair
by key, sorts each partition and groups values by key before handing them
to the reducer.  The same steps live here, in process: map outputs are
collected per partition by :class:`MapOutputCollector`, merged across map
tasks by :func:`merge_map_outputs`, and reduce outputs are written back to
the file system by an output format (one ``part-*`` file per reduce task,
exactly the layout the paper mentions when motivating concurrent appends —
"the MapReduce workers write the reduce output to the same file, instead of
creating several output files, as it is currently done in Hadoop").
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

from ..core.transfer import ChunkBuffer
from ..fs.interface import FileSystem
from ..fs import path as fspath
from .job import Counters, TaskContext

__all__ = [
    "hash_partitioner",
    "MapOutputCollector",
    "merge_map_outputs",
    "group_by_key",
    "group_sorted_pairs",
    "TextOutputFormat",
    "SingleFileOutputFormat",
]


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """Deterministic hash partitioner (stable across processes and runs)."""
    if num_partitions <= 1:
        return 0
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_partitions


#: Key types whose partition :class:`MapOutputCollector` memoises.  Exact
#: types only: ``1``, ``True`` and ``1.0`` are equal dict keys but have
#: different reprs, hence possibly different partitions.
_MEMO_KEY_TYPES = frozenset((str, bytes, int))


def _memoised_collect(
    partitions: list[list[tuple[Any, Any]]], num_partitions: int
) -> Callable[[Any, Any], None]:
    """A ``collect`` for :func:`hash_partitioner` that hashes each key once.

    The memo maps a key to its partition's list.  The closure references
    the lists, not the collector, so dropping the collector frees the memo
    by reference counting (a bound method stored on the instance would form
    a cycle left to the cyclic collector).
    """
    memo: dict[Any, list[tuple[Any, Any]]] = {}

    def collect(key: Any, value: Any) -> None:
        if type(key) in _MEMO_KEY_TYPES:
            bucket = memo.get(key)
            if bucket is None:
                bucket = memo[key] = partitions[hash_partitioner(key, num_partitions)]
        else:
            bucket = partitions[hash_partitioner(key, num_partitions)]
        bucket.append((key, value))

    return collect


class MapOutputCollector:
    """Collects one map task's output, split by reduce partition.

    With the default :func:`hash_partitioner`, each key of an exact
    ``str``, ``bytes`` or ``int`` type is hashed once per collector: the
    key's partition list is memoised, and the memo is dropped with the
    collector.  Other keys, and every key under a custom partitioner, go
    through the partitioner on every record.

    An optional combiner is applied when the collector is sealed, reducing
    the volume handed to the shuffle exactly like Hadoop's map-side combine.
    """

    def __init__(
        self,
        num_partitions: int,
        *,
        partitioner: Callable[[Any, int], int] = hash_partitioner,
        combiner: Callable[[Any, Iterable[Any], Any], None] | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be at least 1")
        self._num_partitions = num_partitions
        self._partitioner = partitioner
        self._combiner = combiner
        self._partitions: list[list[tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        if partitioner is hash_partitioner:
            self.collect = _memoised_collect(self._partitions, num_partitions)

    @property
    def records_collected(self) -> int:
        """Number of pairs collected so far."""
        return sum(map(len, self._partitions))

    def collect(self, key: Any, value: Any) -> None:
        """Add one intermediate pair."""
        partition = self._partitioner(key, self._num_partitions)
        self._partitions[partition].append((key, value))

    def _apply_combiner(
        self, pairs: list[tuple[Any, Any]], context: TaskContext
    ) -> list[tuple[Any, Any]]:
        if self._combiner is None or not pairs:
            return pairs
        combined: list[tuple[Any, Any]] = []
        combine_context = TaskContext(
            job_conf=context.job_conf,
            task_id=context.task_id,
            emit=lambda key, value: combined.append((key, value)),
            counters=context.counters,
        )
        for key, values in group_by_key(pairs):
            self._combiner(key, values, combine_context)
        return combined

    def partitions(
        self, context: TaskContext | None = None
    ) -> list[list[tuple[Any, Any]]]:
        """Finalised per-partition outputs (combiner applied, sorted by key).

        The combiner runs with a :class:`TaskContext` that shares
        ``context``'s job configuration, task id and counters (a map task
        passes its own context); its ``emit`` collects the combined pairs.
        Without a ``context`` (a standalone collector) the combiner sees no
        job configuration and counters private to this call.
        """
        if context is None:
            context = TaskContext(
                job_conf=None, task_id="", emit=self.collect, counters=Counters()
            )
        result = []
        for pairs in self._partitions:
            combined = self._apply_combiner(pairs, context)
            result.append(sorted(combined, key=lambda kv: repr(kv[0])))
        return result


def merge_map_outputs(
    map_outputs: Iterable[list[list[tuple[Any, Any]]]], partition: int
) -> list[tuple[Any, Any]]:
    """Merge one partition's pairs from every map task and sort them by key."""
    merged: list[tuple[Any, Any]] = []
    for output in map_outputs:
        merged.extend(output[partition])
    merged.sort(key=lambda kv: repr(kv[0]))
    return merged


def group_by_key(pairs: Iterable[tuple[Any, Any]]) -> Iterator[tuple[Any, list[Any]]]:
    """Group sorted (or unsorted) pairs by key, preserving value order per key."""
    grouped: dict[Any, list[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    for key in sorted(grouped, key=repr):
        yield key, grouped[key]


def group_sorted_pairs(
    pairs: Iterable[tuple[Any, Any]]
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a key-sorted pair stream into ``(key, values)`` runs.

    The streaming counterpart of :func:`group_by_key` for the spill-based
    shuffle: the input (an external k-way merge over sorted segments) is
    already ordered by ``repr(key)``, so equal keys are adjacent and only
    the current key's values are ever held in memory — a reduce partition
    larger than memory still reduces.
    """
    for key, group in itertools.groupby(pairs, key=operator.itemgetter(0)):
        yield key, [value for _key, value in group]


class TextOutputFormat:
    """Writes reduce (or map-only) output as ``key\\tvalue`` text lines.

    One ``part-XXXXX`` file per task under the job's output directory —
    the standard Hadoop layout.
    """

    def __init__(self, *, separator: bytes = b"\t") -> None:
        self._separator = separator

    def output_path(self, output_dir: str, task_index: int, *, map_only: bool) -> str:
        """Path of the part file written by task ``task_index``."""
        prefix = "part-m-" if map_only else "part-r-"
        return fspath.join(output_dir, f"{prefix}{task_index:05d}")

    def write(
        self,
        fs: FileSystem,
        output_dir: str,
        task_index: int,
        pairs: Iterable[tuple[Any, Any]],
        *,
        map_only: bool = False,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> str:
        """Write one task's output pairs; returns the part file path.

        Pairs are encoded and written line by line through the streaming
        sink, so a task's output never has to fit in memory at once.
        """
        fs.mkdirs(output_dir)
        path = self.output_path(output_dir, task_index, map_only=map_only)
        with fs.open_write(
            path, overwrite=True, replication=replication, client_host=client_host
        ) as stream:
            for key, value in pairs:
                line = self._encode(key) + self._separator + self._encode(value) + b"\n"
                stream.write(line)
        return path

    @staticmethod
    def _encode(value: Any) -> bytes:
        if isinstance(value, bytes):
            return value
        return str(value).encode("utf-8")


class SingleFileOutputFormat(TextOutputFormat):
    """Extension output format: every reduce task appends to one shared file.

    This is the §V "future work" scenario enabled by BlobSeer's concurrent
    appends: instead of one ``part-*`` file per reducer, all reducers append
    their output to a single file.  It requires the target file system to
    expose ``concurrent_append`` (BSFS does; HDFS raises).

    Output streams through bounded appends: encoded lines accumulate in a
    chunk list and are appended once ``append_chunk_bytes`` is reached, so
    a reducer with output larger than memory still commits.  Flushes only
    ever happen at line boundaries — concurrent reducers may interleave
    *between* appends, so a line must never straddle two of them.
    """

    def __init__(
        self,
        *,
        filename: str = "output.txt",
        separator: bytes = b"\t",
        append_chunk_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        super().__init__(separator=separator)
        if append_chunk_bytes < 1:
            raise ValueError("append_chunk_bytes must be positive")
        self._filename = filename
        self._append_chunk_bytes = append_chunk_bytes

    def shared_path(self, output_dir: str) -> str:
        """Path of the single shared output file under ``output_dir``."""
        return fspath.join(output_dir, self._filename)

    def prepare(
        self, fs: FileSystem, output_dir: str, *, replication: int | None = None
    ) -> str:
        """Create-or-truncate the shared file before any reducer appends.

        Called once per job by the jobtracker: without it, rerunning a job
        into the same output directory would *append* to the previous run's
        file (concurrent_append never truncates), silently duplicating
        output — unlike the part-file path, which overwrites.
        """
        fs.mkdirs(output_dir)
        path = self.shared_path(output_dir)
        with fs.create(path, overwrite=True, replication=replication):
            pass
        return path

    def write(
        self,
        fs: FileSystem,
        output_dir: str,
        task_index: int,
        pairs: Iterable[tuple[Any, Any]],
        *,
        map_only: bool = False,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> str:
        concurrent_append = getattr(fs, "concurrent_append", None)
        if concurrent_append is None:
            from ..fs.errors import UnsupportedOperationError

            raise UnsupportedOperationError(
                f"{fs.scheme} cannot write a shared output file: "
                "concurrent appends are not supported"
            )
        fs.mkdirs(output_dir)
        path = self.shared_path(output_dir)
        if not fs.exists(path):
            try:
                with fs.create(path, replication=replication):
                    pass
            except Exception:
                # Another reducer created it concurrently; that is fine.
                pass
        payload = ChunkBuffer()
        for key, value in pairs:
            payload.append(
                self._encode(key) + self._separator + self._encode(value) + b"\n"
            )
            if len(payload) >= self._append_chunk_bytes:
                concurrent_append(path, payload.take_all())
        if len(payload):
            concurrent_append(path, payload.take_all())
        return path
