"""Task trackers: the worker daemons executing map and reduce tasks.

"The framework consists of a single master jobtracker, and multiple slave
tasktrackers, one per node."  A :class:`TaskTracker` models one such slave:
it owns a host name (used for data-locality scoring), a number of task
slots, and the code that actually runs a map task over an input split or a
reduce task over a merged partition.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..fs.interface import FileSystem
from .faults import FaultPlan
from .job import Counters, Job, TaskContext
from .shuffle import (
    MapOutputCollector,
    TextOutputFormat,
    group_by_key,
    group_sorted_pairs,
)
from .shuffle_service import ShuffleService
from .splitter import InputSplit

__all__ = ["TaskResult", "TaskTracker"]


@dataclass(frozen=True, slots=True)
class TaskResult:
    """Outcome of one task attempt execution."""

    task_id: str
    tracker_host: str
    kind: str
    duration: float
    records_in: int
    records_out: int
    locality: str = "n/a"
    output_path: str | None = None
    #: Map tasks: per-partition intermediate pairs; reduce tasks — and map
    #: tasks that spilled through a :class:`ShuffleService` — ``None``.
    map_output: list[list[tuple[Any, Any]]] | None = field(default=None, repr=False)
    #: ``False`` when the task raised; ``error`` then carries the exception.
    succeeded: bool = True
    error: str | None = None
    #: Zero-based attempt number of this execution (0 = first attempt).
    attempt: int = 0
    #: Whether this attempt was a speculative backup of a straggler.
    speculative: bool = False
    #: ``True`` when the attempt finished fine but *lost* the race against
    #: another attempt of the same task: its output was not committed.
    discarded: bool = False
    #: The counters this attempt incremented.  The jobtracker hands every
    #: attempt its own instance and folds only the *winning* attempt's
    #: counters into the job totals (Hadoop semantics: killed and failed
    #: attempts do not pollute job counters).
    attempt_counters: Counters | None = field(default=None, repr=False)


class TaskTracker:
    """One worker node of the MapReduce engine."""

    def __init__(self, host: str, *, slots: int = 2) -> None:
        if slots < 1:
            raise ValueError("a task tracker needs at least one slot")
        self.host = host
        self.slots = slots
        self._lock = threading.Lock()
        self._running = 0
        self.tasks_executed = 0

    # -- slot management ------------------------------------------------------------
    @property
    def running_tasks(self) -> int:
        """Number of tasks currently executing on this tracker."""
        with self._lock:
            return self._running

    @property
    def free_slots(self) -> int:
        """Number of task slots currently free."""
        with self._lock:
            return max(self.slots - self._running, 0)

    def _acquire_slot(self) -> None:
        with self._lock:
            self._running += 1

    def _release_slot(self) -> None:
        with self._lock:
            self._running = max(self._running - 1, 0)
            self.tasks_executed += 1

    # -- map tasks -------------------------------------------------------------------
    def run_map_task(
        self,
        job: Job,
        fs: FileSystem,
        split: InputSplit,
        *,
        num_partitions: int,
        reader_factory: Callable[[FileSystem, InputSplit], Any],
        counters: Counters,
        locality: str = "n/a",
        output_format: TextOutputFormat | None = None,
        shuffle: ShuffleService | None = None,
        attempt: int = 0,
        speculative: bool = False,
        fault_plan: FaultPlan | None = None,
        commit_check: Callable[[], bool] | None = None,
    ) -> TaskResult:
        """Execute the map function over one input split.

        For map-only jobs (``num_partitions == 0``) the mapper's output is
        written directly to the job output directory through the output
        format; otherwise it is partitioned for the shuffle — spilled as
        segment files through ``shuffle`` when a service is given (waking
        waiting reducers), or returned in memory otherwise.

        ``fault_plan`` injects failures/delays before the attempt touches
        data; ``commit_check`` gates the map-only output write so that only
        one attempt of a task ever commits (the shuffle service enforces
        the same first-completion rule for spilled output itself).
        """
        task_id = f"map-{split.split_id:05d}"
        self._acquire_slot()
        started = time.perf_counter()
        try:
            if fault_plan is not None:
                fault_plan.on_task_start(
                    kind="map",
                    index=split.split_id,
                    attempt=attempt,
                    tracker_host=self.host,
                    fs=fs,
                )
            records_in = 0
            map_only = num_partitions == 0
            collector = MapOutputCollector(
                max(num_partitions, 1), combiner=job.combiner
            )
            context = TaskContext(
                job_conf=job.conf,
                task_id=task_id,
                emit=collector.collect,
                counters=counters,
            )
            for key, value in reader_factory(fs, split):
                job.mapper(key, value, context)
                records_in += 1
            records_out = collector.records_collected
            if records_in:
                counters.increment("map_input_records", records_in)
            counters.increment("map_output_records", records_out)
            output_path: str | None = None
            discarded = False
            partitions = collector.partitions(context)
            if map_only:
                partitions_out: list[list[tuple[Any, Any]]] | None = None
                if commit_check is None or commit_check():
                    fmt = output_format or TextOutputFormat()
                    pairs = [pair for partition in partitions for pair in partition]
                    output_path = fmt.write(
                        fs,
                        job.conf.output_dir,
                        split.split_id,
                        pairs,
                        map_only=True,
                        replication=job.conf.output_replication,
                        client_host=self.host,
                    )
                else:
                    discarded = True
            elif shuffle is not None:
                spilled, won = shuffle.spill_map_output(
                    split.split_id, partitions, attempt=attempt
                )
                counters.increment("map_spilled_bytes", spilled)
                partitions_out = None
                discarded = not won
            else:
                partitions_out = partitions
            duration = time.perf_counter() - started
            return TaskResult(
                task_id=task_id,
                tracker_host=self.host,
                kind="map",
                duration=duration,
                records_in=records_in,
                records_out=records_out,
                locality=locality,
                output_path=output_path,
                map_output=partitions_out,
                attempt=attempt,
                speculative=speculative,
                discarded=discarded,
                attempt_counters=counters,
            )
        finally:
            self._release_slot()

    # -- reduce tasks ----------------------------------------------------------------
    def run_reduce_task(
        self,
        job: Job,
        fs: FileSystem,
        partition_index: int,
        pairs: Iterable[tuple[Any, Any]],
        *,
        counters: Counters,
        output_format: TextOutputFormat | None = None,
        presorted: bool = False,
        attempt: int = 0,
        speculative: bool = False,
        fault_plan: FaultPlan | None = None,
        commit_check: Callable[[], bool] | None = None,
    ) -> TaskResult:
        """Execute the reduce function over one merged, grouped partition.

        ``pairs`` may be any iterable; with ``presorted=True`` it is assumed
        to be ordered by ``repr(key)`` (the spill-based shuffle's external
        merge) and is grouped in streaming fashion without materialising the
        partition.

        ``commit_check`` implements the output-committer handshake: right
        before writing, the attempt asks whether it is the first of its
        task to finish — a losing (speculative or duplicate) attempt skips
        the write entirely, so retries and backups can never duplicate
        reduce output, including on the shared single-output-file path.
        """
        task_id = f"reduce-{partition_index:05d}"
        self._acquire_slot()
        started = time.perf_counter()
        try:
            if fault_plan is not None:
                fault_plan.on_task_start(
                    kind="reduce",
                    index=partition_index,
                    attempt=attempt,
                    tracker_host=self.host,
                    fs=fs,
                )
            emitted: list[tuple[Any, Any]] = []
            context = TaskContext(
                job_conf=job.conf,
                task_id=task_id,
                emit=lambda key, value: emitted.append((key, value)),
                counters=counters,
            )
            records_in = 0
            groups = group_sorted_pairs(pairs) if presorted else group_by_key(pairs)
            for key, values in groups:
                job.reducer(key, values, context)
                records_in += len(values)
                counters.increment("reduce_input_records", len(values))
            counters.increment("reduce_output_records", len(emitted))
            output_path: str | None = None
            discarded = False
            if commit_check is None or commit_check():
                fmt = output_format or TextOutputFormat()
                output_path = fmt.write(
                    fs,
                    job.conf.output_dir,
                    partition_index,
                    emitted,
                    map_only=False,
                    replication=job.conf.output_replication,
                    client_host=self.host,
                )
            else:
                discarded = True
            duration = time.perf_counter() - started
            return TaskResult(
                task_id=task_id,
                tracker_host=self.host,
                kind="reduce",
                duration=duration,
                records_in=records_in,
                records_out=len(emitted),
                output_path=output_path,
                attempt=attempt,
                speculative=speculative,
                discarded=discarded,
                attempt_counters=counters,
            )
        finally:
            self._release_slot()
