"""Job tracker: the master orchestrating a MapReduce job end to end.

"A MapReduce job is split into a set of tasks, which are executed by the
tasktrackers, as assigned by the jobtracker.  The input data is also split
into chunks of equal size, that are stored in a distributed file system
across the cluster.  First, the map tasks are run, each processing a chunk
of the input file ...  After all the maps have finished, the tasktrackers
execute the reduce function on the map outputs."

:class:`JobTracker.run` follows exactly that structure: compute splits,
schedule map tasks (locality-aware), execute them (optionally in parallel
threads, one slot per tracker slot), shuffle, execute reduce tasks, and
return a :class:`JobResult` with timings, counters and locality statistics.
The engine is storage-agnostic: pass a BSFS or an HDFS instance.

Two shuffle paths exist.  The default keeps intermediate pairs in memory
and runs reduce after a global map barrier.  With
``JobConf(spill_to_fs=True)`` the shuffle is routed through the job's file
system instead: maps spill sorted segment files, reduce tasks start
*alongside* the map phase and fetch segments as individual maps complete
(overlapped shuffle), then merge them externally — so shuffle I/O exercises
the storage backend under measurement and a partition larger than memory
still reduces.  ``JobConf(single_output_file=True)`` additionally makes all
reducers write one shared output file via ``concurrent_append`` — the
paper's §V scenario — on backends that support it.

Fault tolerance.  Every task is executed as a sequence of *attempts*
(bounded by ``JobConf.max_task_attempts``): a failed attempt is re-executed
on a different tracker, hosts accumulating failures are blacklisted for the
job (:class:`~repro.mapreduce.scheduler.LocalityAwareScheduler`), and with
``JobConf(speculative_execution=True)`` stragglers near the end of a phase
get a speculative backup attempt — the first completion wins and the loser
is discarded, mirroring Hadoop semantics.  Exactly one attempt per task
ever commits output: the shuffle service publishes only the winning
attempt's (attempt-id-suffixed) segments, and reduce/map-only writes are
gated by an output-committer handshake.  Failure *injection* for all of
this lives in :mod:`repro.mapreduce.faults`.
"""

from __future__ import annotations

import threading
import time
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterator

from ..core.transfer import TransferEngine
from ..fs import path as fspath
from ..fs.interface import FileSystem
from ..fs.quota import tenant_scope
from ..fs.registry import get_filesystem
from ..net.liveness import HeartbeatPump, LivenessMonitor, LivenessRegistry
from .faults import FaultPlan, TrackerDeadError
from .job import Counters, Job
from .scheduler import (
    LocalityAwareScheduler,
    LocalityStats,
    NoHealthyTrackerError,
    SlotLedger,
)
from .shuffle import SingleFileOutputFormat, TextOutputFormat, merge_map_outputs
from .shuffle_service import ShuffleAbortedError, ShuffleService
from .splitter import SyntheticInputFormat, TextInputFormat
from .tasktracker import TaskResult, TaskTracker

#: Job-conf property keys the :class:`~repro.mapreduce.service.JobService`
#: uses to thread runtime controls into an execution without widening the
#: ``JobConf`` schema (they are implementation detail, not user API).
CANCEL_EVENT_PROPERTY = "__cancel_event"
SPECULATION_GATE_PROPERTY = "__speculation_gate"
INFLIGHT_BUDGET_PROPERTY = "__inflight_budget"
PROGRESS_PROPERTY = "__progress"

__all__ = [
    "JobResult",
    "JobTracker",
    "make_cluster",
    "CANCEL_EVENT_PROPERTY",
    "SPECULATION_GATE_PROPERTY",
    "INFLIGHT_BUDGET_PROPERTY",
    "PROGRESS_PROPERTY",
]

#: How often the phase orchestrator wakes to look for stragglers.
_SPECULATION_POLL_SECONDS = 0.02
#: An attempt younger than this is never considered a straggler, however
#: fast the rest of the phase was (guards against sub-millisecond medians).
_MIN_STRAGGLER_RUNTIME = 0.05


@dataclass
class JobResult:
    """Outcome of one job execution."""

    job_name: str
    succeeded: bool
    elapsed: float
    map_tasks: int
    reduce_tasks: int
    counters: Counters
    locality: LocalityStats
    #: Every executed task *attempt*, including failed, retried, speculative
    #: and discarded (race-losing) ones.
    task_results: list[TaskResult] = field(default_factory=list)
    output_paths: list[str] = field(default_factory=list)
    #: Spill-based shuffle statistics (``None`` for the in-memory shuffle).
    shuffle: dict | None = None
    #: Tracker hosts blacklisted during the run (flaky/killed trackers).
    blacklisted_hosts: list[str] = field(default_factory=list)

    def counter(self, name: str) -> int:
        """Shortcut for ``result.counters.get(name)``."""
        return self.counters.get(name)

    @property
    def failed_tasks(self) -> list[TaskResult]:
        """The attempts that raised during this run (empty on success)."""
        return [r for r in self.task_results if not r.succeeded]

    @property
    def winning_tasks(self) -> list[TaskResult]:
        """The attempts whose output was committed (one per completed task)."""
        return [r for r in self.task_results if r.succeeded and not r.discarded]

    @property
    def retries(self) -> int:
        """Re-executions triggered by task failures (speculation excluded)."""
        return sum(
            1 for r in self.task_results if r.attempt > 0 and not r.speculative
        )

    @property
    def speculative_attempts(self) -> int:
        """Backup attempts launched for stragglers."""
        return sum(1 for r in self.task_results if r.speculative)

    @property
    def speculative_wins(self) -> int:
        """Speculative attempts that beat the original and committed output."""
        return sum(
            1
            for r in self.task_results
            if r.speculative and r.succeeded and not r.discarded
        )

    def summary(self) -> dict[str, Any]:
        """JSON-friendly summary used by reports and benchmarks.

        Beyond the task counts it reports the *recovery overhead*: total
        attempts executed, retries, and speculative launches/wins — the
        numbers benchmark tables need to show what fault tolerance cost.
        """
        summary = {
            "job": self.job_name,
            "succeeded": self.succeeded,
            "elapsed_seconds": self.elapsed,
            "map_tasks": self.map_tasks,
            "reduce_tasks": self.reduce_tasks,
            "task_attempts": len(self.task_results),
            "retries": self.retries,
            "locality": self.locality.as_dict(),
            "counters": self.counters.as_dict(),
        }
        if self.speculative_attempts:
            summary["speculative"] = {
                "launched": self.speculative_attempts,
                "wins": self.speculative_wins,
            }
        if self.blacklisted_hosts:
            summary["blacklisted_hosts"] = sorted(self.blacklisted_hosts)
        if self.shuffle is not None:
            summary["shuffle"] = self.shuffle
        failed = self.failed_tasks
        if failed:
            summary["failed_tasks"] = sorted({r.task_id for r in failed})
        return summary


def _failed_result(
    task_id: str,
    tracker_host: str,
    kind: str,
    exc: BaseException,
    *,
    locality: str = "n/a",
    attempt: int = 0,
    speculative: bool = False,
) -> TaskResult:
    """Record one raising task attempt as a failed :class:`TaskResult`."""
    error = "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()
    return TaskResult(
        task_id=task_id,
        tracker_host=tracker_host,
        kind=kind,
        duration=0.0,
        records_in=0,
        records_out=0,
        locality=locality,
        succeeded=False,
        error=error,
        attempt=attempt,
        speculative=speculative,
    )


def _counted(
    pairs: Iterator[tuple[Any, Any]], counters: Counters
) -> Iterator[tuple[Any, Any]]:
    """Pass pairs through, folding their count into ``reduce_shuffle_records``."""
    count = 0
    try:
        for pair in pairs:
            count += 1
            yield pair
    finally:
        counters.increment("reduce_shuffle_records", count)


class _TaskEntry:
    """Mutable per-task attempt bookkeeping (guarded by the phase lock)."""

    __slots__ = (
        "index",
        "attempts_started",
        "running",
        "running_hosts",
        "banned_hosts",
        "winner",
        "permanent_failure",
        "done",
        "committed",
        "commit_attempt",
        "speculated",
        "last_start",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempts_started = 0
        self.running = 0
        self.running_hosts: list[str] = []
        self.banned_hosts: set[str] = set()
        self.winner: TaskResult | None = None
        self.permanent_failure: TaskResult | None = None
        self.done = False
        self.committed = False
        self.commit_attempt: int | None = None
        self.speculated = False
        self.last_start = 0.0


class _RetryingPhase:
    """Executes one phase's tasks as bounded, speculating attempt sequences.

    The phase owns the full fault-tolerance protocol for its tasks:

    * a failed attempt is retried on a different tracker (``pick_tracker``
      receives the set of hosts that already failed this task) until
      ``max_attempts`` executions are spent or a non-retryable error hits;
    * every failure is reported to ``on_attempt_failed`` (feeding the
      scheduler blacklist; a :class:`TrackerDeadError` is *fatal* and
      blacklists the host immediately);
    * near the end of the phase, stragglers get one speculative backup
      attempt; the first attempt to *commit* (:meth:`try_commit`) wins and
      every other attempt of the task is discarded;
    * a task with no surviving attempt triggers ``on_permanent_failure``
      (used to abort the shuffle so overlapped reducers do not wait
      forever) and fails the phase.

    The ``execute`` callable runs one attempt and returns ``(result,
    retryable, fatal_host)`` — ``fatal_host`` flags a dead-tracker failure
    that must blacklist the host immediately.  It must only raise
    ``BaseException``s (SystemExit and friends), which the phase records
    and re-raises from :meth:`finish`.
    """

    def __init__(
        self,
        *,
        total: int,
        max_attempts: int,
        execute: Callable[
            [int, int, TaskTracker, bool], tuple[TaskResult, bool, bool]
        ],
        pick_tracker: Callable[[int, int, set[str]], TaskTracker],
        speculative: bool = False,
        slow_task_threshold: float = 2.0,
        speculative_fraction: float = 0.5,
        on_winner: Callable[[TaskResult], None] | None = None,
        on_attempt_failed: Callable[[str, bool], None] | None = None,
        on_permanent_failure: Callable[[int, TaskResult], None] | None = None,
        make_failure: Callable[[int, int, BaseException], TaskResult] | None = None,
        speculation_gate: Callable[[], bool] | None = None,
    ) -> None:
        self._max_attempts = max_attempts
        self._execute = execute
        self._pick_tracker = pick_tracker
        self._speculative = speculative
        self._slow_task_threshold = slow_task_threshold
        self._speculative_fraction = speculative_fraction
        self._on_winner = on_winner
        self._on_attempt_failed = on_attempt_failed
        self._on_permanent_failure = on_permanent_failure
        self._make_failure = make_failure
        self._speculation_gate = speculation_gate
        self._cond = threading.Condition()
        self._entries = [_TaskEntry(i) for i in range(total)]
        self._results: list[TaskResult] = []
        self._pool: ThreadPoolExecutor | None = None
        self._fatal: BaseException | None = None

    # -- results -----------------------------------------------------------------------
    @property
    def results(self) -> list[TaskResult]:
        """Every attempt result recorded so far (read after the pool closed)."""
        with self._cond:
            return list(self._results)

    @property
    def succeeded(self) -> bool:
        """Whether every task of the phase committed a winning attempt."""
        with self._cond:
            return all(e.winner is not None for e in self._entries)

    def winner_map_outputs(self) -> list[list[list[tuple[Any, Any]]]]:
        """The winning attempts' in-memory map outputs, in task order."""
        with self._cond:
            return [
                e.winner.map_output
                for e in self._entries
                if e.winner is not None and e.winner.map_output is not None
            ]

    def try_commit(self, index: int, attempt: int) -> bool:
        """Output-committer handshake: may attempt ``attempt`` of task
        ``index`` commit its output?  Exactly one attempt per task wins."""
        with self._cond:
            entry = self._entries[index]
            if entry.committed:
                return False
            entry.committed = True
            entry.commit_attempt = attempt
            return True

    # -- parallel orchestration --------------------------------------------------------
    def _fail_no_tracker(
        self, entry: _TaskEntry, attempt: int, exc: NoHealthyTrackerError
    ) -> None:
        """Record a permanent failure for a task that cannot be placed.

        Every tracker host is dead/blacklisted, so the attempt fails without
        ever launching; re-raised instead when no failure factory was given.
        """
        if self._make_failure is None:
            raise exc
        result = self._make_failure(entry.index, attempt, exc)
        permanent: TaskResult | None = None
        with self._cond:
            self._results.append(result)
            if entry.winner is None and not entry.done and entry.running == 0:
                entry.permanent_failure = result
                entry.done = True
                permanent = result
            self._cond.notify_all()
        if permanent is not None and self._on_permanent_failure is not None:
            self._on_permanent_failure(entry.index, permanent)

    def start(self, pool: ThreadPoolExecutor) -> None:
        """Submit attempt 0 of every task to ``pool`` and return immediately."""
        self._pool = pool
        with self._cond:
            for entry in self._entries:
                try:
                    tracker = self._pick_tracker(entry.index, 0, set())
                except NoHealthyTrackerError as exc:
                    self._fail_no_tracker(entry, 0, exc)
                    continue
                self._launch(entry, tracker, speculative=False)

    def finish(self) -> list[TaskResult]:
        """Block until every task is decided, speculating on stragglers.

        Race-losing attempts may still be running when this returns; their
        results land in :attr:`results` once the worker pool is joined.
        """
        # Only a speculating phase needs timed wakeups to probe for
        # stragglers; otherwise every state change notifies the condition.
        timeout = _SPECULATION_POLL_SECONDS if self._speculative else None
        with self._cond:
            while self._fatal is None and not all(e.done for e in self._entries):
                self._cond.wait(timeout=timeout)
                self._maybe_speculate()
        if self._fatal is not None:
            raise self._fatal
        return self.results

    def run(self, pool: ThreadPoolExecutor) -> list[TaskResult]:
        """``start`` + ``finish`` for phases without an overlap window."""
        self.start(pool)
        return self.finish()

    def _launch(
        self, entry: _TaskEntry, tracker: TaskTracker, *, speculative: bool
    ) -> None:
        """Submit one attempt of ``entry`` (phase lock held)."""
        attempt = entry.attempts_started
        entry.attempts_started += 1
        entry.running += 1
        entry.running_hosts.append(tracker.host)
        entry.last_start = time.perf_counter()
        assert self._pool is not None
        try:
            self._pool.submit(self._attempt, entry, attempt, tracker, speculative)
        except RuntimeError:
            # The pool is shutting down (fatal error elsewhere): undo the
            # launch bookkeeping so the entry does not look in-flight.
            entry.attempts_started -= 1
            entry.running -= 1
            entry.running_hosts.remove(tracker.host)

    def _attempt(
        self,
        entry: _TaskEntry,
        attempt: int,
        tracker: TaskTracker,
        speculative: bool,
    ) -> None:
        try:
            result, retryable, fatal_host = self._execute(
                entry.index, attempt, tracker, speculative
            )
        except BaseException as exc:
            # ``execute`` traps Exception; anything escaping is a
            # SystemExit-class event that must fail the whole phase instead
            # of vanishing inside the worker pool.
            with self._cond:
                if self._fatal is None:
                    self._fatal = exc
                entry.running -= 1
                self._cond.notify_all()
            raise
        self._record(entry, tracker, result, retryable, fatal_host)

    def _record(
        self,
        entry: _TaskEntry,
        tracker: TaskTracker,
        result: TaskResult,
        retryable: bool,
        fatal_host: bool,
    ) -> None:
        """Fold one finished attempt into the entry's state machine."""
        relaunch = False
        permanent: TaskResult | None = None
        host_failed = False
        won = False
        with self._cond:
            entry.running -= 1
            if tracker.host in entry.running_hosts:
                entry.running_hosts.remove(tracker.host)
            if result.succeeded and not result.discarded:
                if entry.winner is None:
                    entry.winner = result
                    entry.committed = True
                    entry.done = True
                    won = True
                else:
                    # An in-memory race loser (speculation): another attempt
                    # already won, so this one's output is discarded.
                    result = replace(result, discarded=True)
            elif result.succeeded:
                # A committed-side race loser: its write was skipped.
                pass
            else:
                entry.banned_hosts.add(result.tracker_host)
                host_failed = True
                if entry.commit_attempt == result.attempt:
                    # The failed attempt died *after* claiming the commit
                    # (e.g. mid-write); release it so a retry can commit.
                    entry.committed = False
                    entry.commit_attempt = None
                if (
                    entry.winner is None
                    and retryable
                    and entry.attempts_started < self._max_attempts
                    and self._fatal is None
                ):
                    relaunch = True
                elif entry.winner is None and entry.running == 0 and not entry.done:
                    entry.permanent_failure = result
                    entry.done = True
                    permanent = result
            self._results.append(result)
            self._cond.notify_all()
        if won and self._on_winner is not None:
            self._on_winner(result)
        if host_failed and self._on_attempt_failed is not None:
            self._on_attempt_failed(result.tracker_host, fatal_host)
        if relaunch:
            with self._cond:
                banned = set(entry.banned_hosts)
                next_attempt = entry.attempts_started
            try:
                tracker = self._pick_tracker(entry.index, next_attempt, banned)
            except NoHealthyTrackerError as exc:
                self._fail_no_tracker(entry, next_attempt, exc)
                if entry.permanent_failure is not None:
                    return
                tracker = None
            if tracker is None:
                return
            with self._cond:
                if entry.winner is None and self._fatal is None:
                    self._launch(entry, tracker, speculative=False)
                elif entry.running == 0 and entry.winner is None and not entry.done:
                    entry.permanent_failure = result
                    entry.done = True
                    permanent = result
                    self._cond.notify_all()
        if permanent is not None and self._on_permanent_failure is not None:
            self._on_permanent_failure(entry.index, permanent)

    def _maybe_speculate(self) -> None:
        """Launch backup attempts for stragglers (phase lock held).

        Hadoop semantics: only near the end of the phase (at most
        ``speculative_fraction`` of its tasks still incomplete), only for
        attempts running longer than ``slow_task_threshold ×`` the median
        successful attempt duration, and at most one backup per task.
        """
        if not self._speculative or not self._entries or self._pool is None:
            return
        if self._speculation_gate is not None and not self._speculation_gate():
            # Cooperative preemption: the service closes the gate while a
            # starved tenant waits, so backup attempts stop competing for
            # slots the waiting tenant needs.
            return
        total = len(self._entries)
        remaining = sum(1 for e in self._entries if not e.done)
        if remaining == 0 or remaining / total > self._speculative_fraction:
            return
        durations = sorted(
            e.winner.duration for e in self._entries if e.winner is not None
        )
        if not durations:
            return
        median = durations[len(durations) // 2]
        straggler_after = max(
            self._slow_task_threshold * median, _MIN_STRAGGLER_RUNTIME
        )
        now = time.perf_counter()
        for entry in self._entries:
            if (
                entry.done
                or entry.speculated
                or entry.running == 0
                or entry.attempts_started >= self._max_attempts
                or now - entry.last_start < straggler_after
            ):
                continue
            exclude = entry.banned_hosts | set(entry.running_hosts)
            try:
                tracker = self._pick_tracker(
                    entry.index, entry.attempts_started, exclude
                )
            except NoHealthyTrackerError:
                continue  # no backup possible; the primary may still finish
            entry.speculated = True
            self._launch(entry, tracker, speculative=True)

    # -- serial orchestration ----------------------------------------------------------
    def run_serial(self) -> list[TaskResult]:
        """Sequential execution with retries (no speculation — there is no
        concurrency for a backup attempt to exploit)."""
        for entry in self._entries:
            while not entry.done:
                attempt = entry.attempts_started
                entry.attempts_started += 1
                try:
                    tracker = self._pick_tracker(
                        entry.index, attempt, set(entry.banned_hosts)
                    )
                except NoHealthyTrackerError as exc:
                    self._fail_no_tracker(entry, attempt, exc)
                    if not entry.done:
                        entry.done = True
                    break
                entry.last_start = time.perf_counter()
                result, retryable, fatal_host = self._execute(
                    entry.index, attempt, tracker, False
                )
                self._results.append(result)
                if result.succeeded and not result.discarded:
                    entry.winner = result
                    entry.committed = True
                    entry.done = True
                    if self._on_winner is not None:
                        self._on_winner(result)
                    break
                if result.succeeded:
                    entry.done = True
                    break
                entry.banned_hosts.add(result.tracker_host)
                if self._on_attempt_failed is not None:
                    self._on_attempt_failed(result.tracker_host, fatal_host)
                if entry.commit_attempt == result.attempt:
                    entry.committed = False
                    entry.commit_attempt = None
                if not retryable or entry.attempts_started >= self._max_attempts:
                    entry.permanent_failure = result
                    entry.done = True
                    if self._on_permanent_failure is not None:
                        self._on_permanent_failure(entry.index, result)
        return self.results


class JobTracker:
    """Master node of the MapReduce engine."""

    def __init__(
        self,
        fs: FileSystem | str,
        trackers: list[TaskTracker],
        *,
        parallel: bool = True,
        slot_ledger: SlotLedger | None = None,
        _from_factory: bool = False,
    ) -> None:
        """Create a job tracker.

        .. deprecated::
            Direct construction is deprecated in favour of
            :meth:`repro.mapreduce.service.JobService.local` (or
            :func:`make_cluster` for a bare cluster): the service fronts
            the same engine with concurrent submission, fair-share
            scheduling and admission control.  Construction keeps working
            — it only warns.

        Parameters
        ----------
        fs:
            File system used for job input and output: a concrete
            instance (BSFS, HDFS, LocalFS) or a URI string such as
            ``"bsfs://demo"`` resolved through the scheme registry.
        trackers:
            Worker task trackers (typically one per storage node so
            locality is possible).
        parallel:
            Execute tasks concurrently with one thread per tracker slot
            (default).  Sequential execution is available for debugging
            and deterministic tests.
        slot_ledger:
            Shared per-tenant slot accounting, injected by the
            :class:`~repro.mapreduce.service.JobService` so concurrent
            jobs report their slot usage to one ledger.
        """
        if not _from_factory:
            warnings.warn(
                "constructing JobTracker(...) directly is deprecated; use "
                "JobService.local(...) (multi-tenant submission) or "
                "make_cluster(...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        if not trackers:
            raise ValueError("a job tracker needs at least one task tracker")
        if isinstance(fs, str):
            fs = get_filesystem(fs)
        self.fs = fs
        self.trackers = list(trackers)
        self.parallel = parallel
        self.slot_ledger = slot_ledger
        # Re-entrant: JobService.__init__ registers itself under this lock
        # while _embedded_service holds it during lazy construction.
        self._service_lock = threading.RLock()
        self._service = None

    # -- public API -----------------------------------------------------------------
    def run(self, job: Job, *, fault_plan: FaultPlan | None = None) -> JobResult:
        """Execute ``job`` to completion and return its result.

        This is now a thin submit-and-wait wrapper over an embedded
        single-tenant :class:`~repro.mapreduce.service.JobService` — the
        blocking call every pre-service caller knows, with identical
        semantics (exceptions included), while concurrent submitters go
        through :meth:`~repro.mapreduce.service.JobService.submit`.

        Input paths and the output directory of the job configuration may
        be URIs; they are validated against this tracker's file system and
        reduced to plain paths before splitting.

        A raising map or reduce task attempt no longer aborts the run: the
        failure is recorded as a :class:`TaskResult` with
        ``succeeded=False`` and the task is re-executed on a different
        tracker up to ``JobConf.max_task_attempts`` times; only a task with
        no surviving attempt fails the job
        (``JobResult(succeeded=False, ...)``).

        ``fault_plan`` (or a ``"fault_plan"`` entry in the job conf's free
        -form properties) injects deterministic failures, stragglers,
        tracker deaths and storage-node crashes — see
        :mod:`repro.mapreduce.faults`.
        """
        handle = self._embedded_service().submit(job, fault_plan=fault_plan)
        return handle.wait()

    def _embedded_service(self):
        """The lazily built single-tenant service backing :meth:`run`.

        Unbounded concurrency and no admission limits: each blocking
        ``run`` call occupies its own submitter thread, exactly as before
        the service existed.
        """
        with self._service_lock:
            if self._service is None:
                from .service import JobService

                self._service = JobService(self, max_concurrent_jobs=None)
            return self._service

    def _execute(self, job: Job, fault_plan: FaultPlan | None = None) -> JobResult:
        """Run one job to completion on the calling thread (service internal)."""
        resolved_conf = job.conf.resolve_for(self.fs)
        if resolved_conf is not job.conf:
            job = replace(job, conf=resolved_conf)
        if fault_plan is None:
            fault_plan = job.conf.get("fault_plan")
        started = time.perf_counter()
        counters = Counters()
        scheduler = LocalityAwareScheduler(
            self.trackers, tenant=job.conf.tenant, slot_ledger=self.slot_ledger
        )
        # Runtime controls threaded in by the JobService (absent for a
        # direct blocking run): cooperative cancellation, the speculation
        # gate, the tenant's inflight-byte budget and progress reporting.
        cancel_event: threading.Event | None = job.conf.get(CANCEL_EVENT_PROPERTY)
        speculation_gate = job.conf.get(SPECULATION_GATE_PROPERTY)
        inflight_budget = job.conf.get(INFLIGHT_BUDGET_PROPERTY)
        progress_callback = job.conf.get(PROGRESS_PROPERTY)

        # Tracker failure detection.  With tracker faults in play, a
        # killed tracker is no longer blacklisted synchronously from the
        # TrackerDeadError its attempts raise: every tracker heartbeats a
        # liveness registry, a killed one falls silent, and the registry
        # declares it dead after max_missed intervals — that death event
        # is what blacklists the host, the way a real jobtracker learns
        # of a crashed tasktracker.
        tracker_liveness: LivenessRegistry | None = None
        liveness_monitor: LivenessMonitor | None = None
        heartbeat_pumps: list[HeartbeatPump] = []
        if fault_plan is not None and fault_plan.tracker_faults:
            tracker_liveness = LivenessRegistry(
                heartbeat_interval=0.02, max_missed=2
            )
            # A death event blacklists the host unconditionally (even the
            # last one): retrying against a dead process is futile, and a
            # fully dead cluster surfaces as NoHealthyTrackerError-backed
            # permanent task failures instead of burning every attempt.
            tracker_liveness.on_death(scheduler.mark_dead)
            for tracker in self.trackers:
                tracker_liveness.register(tracker.host)
                pump = HeartbeatPump(
                    partial(tracker_liveness.heartbeat, tracker.host),
                    interval=tracker_liveness.heartbeat_interval,
                    should_beat=partial(
                        lambda plan, host: not plan.tracker_is_dead(host),
                        fault_plan,
                        tracker.host,
                    ),
                )
                heartbeat_pumps.append(pump.start())
            liveness_monitor = LivenessMonitor(tracker_liveness).start()
        input_format = job.input_format or (
            TextInputFormat() if job.conf.input_paths else SyntheticInputFormat()
        )
        map_format, reduce_format = self._select_output_formats(job)
        splits = input_format.get_splits(self.fs, job.conf)
        assignments = scheduler.assign(splits)
        num_partitions = job.conf.num_reduce_tasks
        if isinstance(reduce_format, SingleFileOutputFormat):
            # Truncate the shared file so rerunning the job does not append
            # to a previous run's output — but only after the inputs were
            # split successfully, so a rerun with a bad input path fails
            # without destroying the existing output.
            reduce_format.prepare(
                self.fs,
                job.conf.output_dir,
                replication=job.conf.output_replication,
            )

        shuffle_service: ShuffleService | None = None
        shuffle_transfer: TransferEngine | None = None
        if job.conf.spill_to_fs and not job.conf.is_map_only:
            # A per-job prefetch engine keeps one heavy shuffle from
            # starving the process-wide fallback pool that other jobs (or
            # the benchmarks) share; it is shut down with the job.
            shuffle_transfer = TransferEngine(
                max(2, min(2 * max(num_partitions, 1), 16)),
                budget=inflight_budget,
                name=f"shuffle-{job.name[:16]}",
            )
            shuffle_service = ShuffleService(
                self.fs,
                num_maps=len(assignments),
                num_partitions=num_partitions,
                shuffle_dir=fspath.join(job.conf.output_dir, "_shuffle"),
                segment_size=job.conf.shuffle_segment_size,
                transfer=shuffle_transfer,
            )

        map_only = job.conf.is_map_only

        def report_host_failure(host: str, fatal: bool) -> None:
            scheduler.report_task_failure(host, fatal=fatal)

        def cancelled_result(
            task_id: str, kind: str, attempt: int, speculative: bool
        ) -> tuple[TaskResult, bool, bool]:
            failed = _failed_result(
                task_id,
                "n/a",
                kind,
                RuntimeError("job cancelled before the attempt started"),
                attempt=attempt,
                speculative=speculative,
            )
            return failed, False, False  # not retryable: the job is going away

        def make_map_placement_failure(
            index: int, attempt: int, exc: BaseException
        ) -> TaskResult:
            split_id = assignments[index].split.split_id
            return _failed_result(
                f"map-{split_id:05d}", "n/a", "map", exc, attempt=attempt
            )

        def make_reduce_placement_failure(
            index: int, attempt: int, exc: BaseException
        ) -> TaskResult:
            return _failed_result(
                f"reduce-{index:05d}", "n/a", "reduce", exc, attempt=attempt
            )

        # -- map phase ------------------------------------------------------------
        def pick_map_tracker(
            index: int, attempt: int, banned: set[str]
        ) -> TaskTracker:
            assignment = assignments[index]
            if (
                attempt == 0
                and assignment.tracker.host not in banned
                and not scheduler.is_blacklisted(assignment.tracker.host)
            ):
                return assignment.tracker
            return scheduler.pick_tracker(exclude=banned)

        def execute_map(
            index: int, attempt: int, tracker: TaskTracker, speculative: bool
        ) -> tuple[TaskResult, bool, bool]:
            assignment = assignments[index]
            split = assignment.split
            task_id = f"map-{split.split_id:05d}"
            if tracker is assignment.tracker:
                locality = assignment.locality
            else:
                locality = (
                    "node-local" if tracker.host in split.hosts else "remote"
                )
            if cancel_event is not None and cancel_event.is_set():
                return cancelled_result(task_id, "map", attempt, speculative)
            commit_check = None
            if map_only:
                commit_check = partial(map_phase.try_commit, index, attempt)
            # Each attempt gets its own counter set; only the winner's is
            # folded into the job counters (see merge_winner_counters).
            attempt_counters = Counters()
            scheduler.task_started()
            try:
                # The tenant scope wraps the *attempt* (running in a pool
                # thread): every namespace write the task performs is
                # attributed to — and enforced against — the job's tenant.
                with tenant_scope(job.conf.tenant):
                    result = tracker.run_map_task(
                        job,
                        self.fs,
                        split,
                        num_partitions=num_partitions,
                        reader_factory=input_format.create_reader,
                        counters=attempt_counters,
                        locality=locality,
                        output_format=map_format,
                        shuffle=shuffle_service,
                        attempt=attempt,
                        speculative=speculative,
                        fault_plan=fault_plan,
                        commit_check=commit_check,
                    )
            except Exception as exc:
                failed = _failed_result(
                    task_id,
                    tracker.host,
                    "map",
                    exc,
                    locality=locality,
                    attempt=attempt,
                    speculative=speculative,
                )
                return failed, True, (
                    isinstance(exc, TrackerDeadError) and tracker_liveness is None
                )
            finally:
                scheduler.task_finished()
            return result, True, False

        def on_map_permanent_failure(index: int, result: TaskResult) -> None:
            if shuffle_service is not None:
                # Unblock reduce fetchers waiting on a map that will never
                # complete: no surviving attempt exists.
                shuffle_service.abort(
                    RuntimeError(
                        f"{result.task_id} failed permanently: {result.error}"
                    )
                )

        completed_tasks = {"map": 0, "reduce": 0}
        progress_lock = threading.Lock()
        phase_totals = {
            "map": len(assignments),
            "reduce": 0 if map_only else num_partitions,
        }

        def merge_winner_counters(result: TaskResult) -> None:
            if result.attempt_counters is not None:
                counters.merge(result.attempt_counters)
            if progress_callback is not None:
                with progress_lock:
                    completed_tasks[result.kind] += 1
                    done = completed_tasks[result.kind]
                try:
                    progress_callback(result.kind, done, phase_totals[result.kind])
                except Exception:
                    pass  # a broken observer must not fail the job

        map_phase = _RetryingPhase(
            total=len(assignments),
            max_attempts=job.conf.max_task_attempts,
            execute=execute_map,
            pick_tracker=pick_map_tracker,
            speculative=job.conf.speculative_execution,
            slow_task_threshold=job.conf.slow_task_threshold,
            speculative_fraction=job.conf.speculative_fraction,
            on_winner=merge_winner_counters,
            on_attempt_failed=report_host_failure,
            on_permanent_failure=on_map_permanent_failure,
            make_failure=make_map_placement_failure,
            speculation_gate=speculation_gate,
        )

        # -- reduce phase ---------------------------------------------------------
        map_outputs: list[list[list[tuple[Any, Any]]]] = []

        def pick_reduce_tracker(
            index: int, attempt: int, banned: set[str]
        ) -> TaskTracker:
            if attempt == 0 and not banned:
                return scheduler.pick_tracker_round_robin()
            return scheduler.pick_tracker(exclude=banned)

        def execute_reduce(
            index: int, attempt: int, tracker: TaskTracker, speculative: bool
        ) -> tuple[TaskResult, bool, bool]:
            task_id = f"reduce-{index:05d}"
            if cancel_event is not None and cancel_event.is_set():
                return cancelled_result(task_id, "reduce", attempt, speculative)
            attempt_counters = Counters()
            scheduler.task_started()
            try:
                if shuffle_service is not None:
                    pairs: Any = _counted(
                        shuffle_service.merged_pairs(index), attempt_counters
                    )
                    presorted = True
                else:
                    pairs = merge_map_outputs(map_outputs, index)
                    attempt_counters.increment("reduce_shuffle_records", len(pairs))
                    presorted = False
                with tenant_scope(job.conf.tenant):
                    result = tracker.run_reduce_task(
                        job,
                        self.fs,
                        index,
                        pairs,
                        counters=attempt_counters,
                        output_format=reduce_format,
                        presorted=presorted,
                        attempt=attempt,
                        speculative=speculative,
                        fault_plan=fault_plan,
                        commit_check=partial(reduce_phase.try_commit, index, attempt),
                    )
            except ShuffleAbortedError as exc:
                # The shuffle is dead; retrying this reduce cannot succeed.
                failed = _failed_result(
                    task_id,
                    tracker.host,
                    "reduce",
                    exc,
                    attempt=attempt,
                    speculative=speculative,
                )
                return failed, False, False
            except Exception as exc:
                failed = _failed_result(
                    task_id,
                    tracker.host,
                    "reduce",
                    exc,
                    attempt=attempt,
                    speculative=speculative,
                )
                return failed, True, (
                    isinstance(exc, TrackerDeadError) and tracker_liveness is None
                )
            finally:
                scheduler.task_finished()
            return result, True, False

        reduce_phase = _RetryingPhase(
            total=0 if map_only else num_partitions,
            max_attempts=job.conf.max_task_attempts,
            execute=execute_reduce,
            pick_tracker=pick_reduce_tracker,
            speculative=job.conf.speculative_execution,
            slow_task_threshold=job.conf.slow_task_threshold,
            speculative_fraction=job.conf.speculative_fraction,
            on_winner=merge_winner_counters,
            on_attempt_failed=report_host_failure,
            make_failure=make_reduce_placement_failure,
            speculation_gate=speculation_gate,
        )

        # -- execution ------------------------------------------------------------
        # An AS OF job leases every snapshot it reads for its duration, so
        # the version GC cannot retire a snapshot while map attempts (and
        # late retries) are still streaming it.  Pinning also fails fast —
        # with a clear VersionRetiredError — if a requested snapshot was
        # already reclaimed, instead of mid-task.
        snapshot_pins = self._pin_snapshots(job, splits)
        reduce_ran = False
        max_workers = max(sum(t.slots for t in self.trackers), 1)
        try:
            if shuffle_service is not None and self.parallel:
                # Overlapped shuffle: reduce workers start alongside the map
                # phase and fetch segments as individual maps complete; the
                # separate pools keep blocked reducers from starving maps.
                # Speculative reduce backups need headroom beyond one
                # worker per partition, since primaries block on fetches.
                reduce_workers = max(num_partitions, 1) * (
                    2 if job.conf.speculative_execution else 1
                )
                reduce_ran = True
                with ThreadPoolExecutor(max_workers=reduce_workers) as reduce_pool:
                    reduce_phase.start(reduce_pool)
                    try:
                        with ThreadPoolExecutor(max_workers=max_workers) as map_pool:
                            map_phase.run(map_pool)
                    except BaseException as exc:
                        # A SystemExit/KeyboardInterrupt escaping a map
                        # would otherwise leave the reducers blocked forever
                        # on maps that will never complete, hanging the
                        # reduce pool's shutdown below.
                        shuffle_service.abort(exc)
                        raise
                    reduce_phase.finish()
            elif self.parallel:
                with ThreadPoolExecutor(max_workers=max_workers) as map_pool:
                    map_phase.run(map_pool)
                if not map_only and map_phase.succeeded:
                    reduce_ran = True
                    map_outputs.extend(map_phase.winner_map_outputs())
                    with ThreadPoolExecutor(max_workers=max_workers) as reduce_pool:
                        reduce_phase.run(reduce_pool)
            else:
                # Serial mode: the whole map phase completes before reduce,
                # with retries but no speculation.
                map_phase.run_serial()
                if not map_only and map_phase.succeeded:
                    reduce_ran = True
                    map_outputs.extend(map_phase.winner_map_outputs())
                    reduce_phase.run_serial()
        finally:
            for pin in snapshot_pins:
                try:
                    pin.release()
                except Exception:
                    pass
            shuffle_stats = None
            if shuffle_service is not None:
                shuffle_stats = shuffle_service.stats()
                counters.increment(
                    "shuffle_segments_spilled", shuffle_service.segments_spilled
                )
                counters.increment(
                    "shuffle_segments_fetched", shuffle_service.segments_fetched
                )
                shuffle_service.cleanup()
            if shuffle_transfer is not None:
                shuffle_transfer.close()
            if tracker_liveness is not None and fault_plan is not None:
                # A short job can finish before the detector's deadline
                # passes; wait out the missed-heartbeat window for every
                # tracker the plan actually killed so the blacklist is
                # deterministic — the detection still happens through the
                # registry, never synchronously.  The pumps keep beating
                # until this wait is over: a live tracker silenced first
                # would be declared dead alongside the killed one.
                for tracker in self.trackers:
                    if fault_plan.tracker_is_dead(tracker.host):
                        tracker_liveness.await_death(tracker.host, timeout=2.0)
            if liveness_monitor is not None:
                liveness_monitor.stop()
            for pump in heartbeat_pumps:
                pump.stop()

        # Results are read only now, after every pool joined: race-losing
        # attempts finishing during pool shutdown are included too.
        map_results = map_phase.results
        reduce_results = reduce_phase.results
        task_results = map_results + reduce_results
        output_paths = [r.output_path for r in task_results if r.output_path]
        succeeded = map_phase.succeeded and (
            map_only or (reduce_ran and reduce_phase.succeeded)
        )
        elapsed = time.perf_counter() - started
        return JobResult(
            job_name=job.name,
            succeeded=succeeded,
            elapsed=elapsed,
            map_tasks=len(assignments),
            reduce_tasks=len({r.task_id for r in reduce_results}),
            counters=counters,
            locality=scheduler.stats,
            task_results=task_results,
            output_paths=sorted(set(output_paths)),
            shuffle=shuffle_stats,
            blacklisted_hosts=sorted(scheduler.blacklisted_hosts),
        )

    def _pin_snapshots(self, job: Job, splits: list) -> list:
        """Lease every distinct ``(path, version)`` snapshot the job reads.

        Returns the acquired pin handles (released by the caller's
        ``finally``); a pin failing mid-way releases the ones already
        taken before re-raising, so an aborted submission leaks nothing.
        """
        pins: list = []
        seen: set[tuple[str, int]] = set()
        try:
            for split in splits:
                path = getattr(split, "path", None)
                version = getattr(split, "version", None)
                if path is None or version is None or (path, version) in seen:
                    continue
                seen.add((path, version))
                pins.append(
                    self.fs.pin(path, version, owner=f"job:{job.name}")
                )
        except Exception:
            for pin in pins:
                try:
                    pin.release()
                except Exception:
                    pass
            raise
        return pins

    def _select_output_formats(
        self, job: Job
    ) -> tuple[TextOutputFormat, TextOutputFormat]:
        """Output formats for the map and reduce sides of ``job``.

        ``single_output_file`` swaps the reduce side to
        :class:`SingleFileOutputFormat` (all reducers appending to one
        shared file — the §V scenario) when the backend supports concurrent
        appends, and falls back to per-reducer part files otherwise.  An
        explicit ``job.output_format`` always wins.
        """
        fmt = job.output_format or TextOutputFormat()
        reduce_fmt = fmt
        if (
            job.output_format is None
            and job.conf.single_output_file
            and not job.conf.is_map_only
            and hasattr(self.fs, "concurrent_append")
        ):
            reduce_fmt = SingleFileOutputFormat()
        return fmt, reduce_fmt


def make_cluster(
    fs: FileSystem | str,
    *,
    hosts: list[str] | None = None,
    num_trackers: int = 4,
    slots_per_tracker: int = 2,
    parallel: bool = True,
) -> JobTracker:
    """Convenience factory building a jobtracker with one tracker per host.

    ``fs`` may be a file-system instance or a URI string (``"hdfs://demo"``)
    resolved through the scheme registry, making the storage backend of a
    whole MapReduce cluster a one-string choice.  When ``hosts`` is omitted
    the tracker hosts are derived from the file system's storage nodes
    (BlobSeer providers for BSFS, datanodes for HDFS) so that data-local
    scheduling is possible, mirroring the paper's co-deployment of Hadoop
    tasktrackers and storage daemons.
    """
    if isinstance(fs, str):
        fs = get_filesystem(fs)
    if hosts is None:
        hosts = []
        blobseer = getattr(fs, "blobseer", None)
        if blobseer is not None:
            hosts = [p.host for p in blobseer.provider_manager.providers]
        namenode = getattr(fs, "namenode", None)
        if namenode is not None and not hosts:
            hosts = [d.host for d in namenode.datanodes]
        if not hosts:
            hosts = [f"tracker-{i}" for i in range(num_trackers)]
    trackers = [TaskTracker(host, slots=slots_per_tracker) for host in hosts]
    return JobTracker(fs, trackers, parallel=parallel, _from_factory=True)
