"""Tests for the jobtracker/tasktracker/scheduler engine and the applications."""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import KB
from repro.mapreduce import (
    Job,
    JobConf,
    JobTracker,
    LocalityAwareScheduler,
    TaskTracker,
    make_cluster,
)
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_random_text_writer_job,
    make_sort_job,
    make_wordcount_job,
)
from repro.mapreduce.job import Counters, identity_mapper, identity_reducer
from repro.mapreduce.splitter import InputSplit
from repro.workloads import write_text_file


class TestJobConf:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobConf(name="bad", num_reduce_tasks=-1)
        with pytest.raises(ValueError):
            JobConf(name="bad", num_map_tasks=0)
        with pytest.raises(ValueError):
            JobConf(name="bad", split_size=0)

    def test_map_only_flag_and_properties(self):
        conf = JobConf(name="j", num_reduce_tasks=0, properties={"x": 1})
        assert conf.is_map_only
        assert conf.get("x") == 1
        assert conf.get("missing", "default") == "default"


class TestCounters:
    def test_increment_get_merge(self):
        counters = Counters()
        counters.increment("a")
        counters.increment("a", 4)
        other = Counters()
        other.increment("a", 10)
        other.increment("b")
        counters.merge(other)
        assert counters.get("a") == 15
        assert counters.get("b") == 1
        assert counters.get("missing") == 0
        assert counters.as_dict() == {"a": 15, "b": 1}

    def test_concurrent_increments_are_exact_under_reads_and_merges(self):
        writers, per_writer, merges = 8, 40_000, 500
        counters = Counters()
        one = Counters()
        one.increment("merged")
        sink = Counters()
        start = threading.Barrier(writers + 3)
        writing = threading.Event()
        seen: list[int] = []

        def write() -> None:
            start.wait()
            for _ in range(per_writer):
                counters.increment("n")

        def read() -> None:
            start.wait()
            while writing.is_set():
                seen.append(counters.get("n"))
                seen.append(counters.as_dict().get("n", 0))
                sink.merge(counters)

        def merge() -> None:
            start.wait()
            for _ in range(merges):
                counters.merge(one)

        producers = [threading.Thread(target=write) for _ in range(writers)]
        producers.append(threading.Thread(target=merge))
        readers = [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writing.set()
        try:
            for thread in producers + readers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        for thread in readers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in producers + readers)
        assert counters.get("n") == writers * per_writer
        assert counters.as_dict() == {"n": writers * per_writer, "merged": merges}
        assert seen and all(0 <= value <= writers * per_writer for value in seen)
        assert sink.get("n") > 0


class TestScheduler:
    def make_splits(self, hosts_list):
        return [
            InputSplit(i, f"/f{i}", 0, 100, hosts=tuple(hosts))
            for i, hosts in enumerate(hosts_list)
        ]

    def test_prefers_node_local_trackers(self):
        trackers = [TaskTracker(f"node-{i}", slots=2) for i in range(4)]
        scheduler = LocalityAwareScheduler(trackers)
        splits = self.make_splits([["node-1"], ["node-2"], ["node-3"], ["node-0"]])
        assignments = scheduler.assign(splits)
        for assignment in assignments:
            assert assignment.tracker.host in assignment.split.hosts
            assert assignment.locality == "node-local"
        assert scheduler.stats.locality_ratio == 1.0

    def test_falls_back_to_least_loaded_for_remote_splits(self):
        trackers = [TaskTracker(f"node-{i}", slots=1) for i in range(3)]
        scheduler = LocalityAwareScheduler(trackers)
        splits = self.make_splits([["elsewhere"]] * 6)
        assignments = scheduler.assign(splits)
        per_tracker = {}
        for assignment in assignments:
            per_tracker[assignment.tracker.host] = per_tracker.get(assignment.tracker.host, 0) + 1
            assert assignment.locality == "remote"
        assert set(per_tracker.values()) == {2}

    def test_saturated_local_tracker_spills_to_others(self):
        trackers = [TaskTracker("hot", slots=1), TaskTracker("cold-1", slots=1), TaskTracker("cold-2", slots=1)]
        scheduler = LocalityAwareScheduler(trackers)
        splits = self.make_splits([["hot"]] * 9)
        assignments = scheduler.assign(splits)
        hot_count = sum(1 for a in assignments if a.tracker.host == "hot")
        assert hot_count < 9  # not everything piled on the one local tracker

    def test_requires_trackers(self):
        with pytest.raises(ValueError):
            LocalityAwareScheduler([])

    def test_round_robin_is_thread_safe(self):
        # Regression: the shared cycle iterator used to be advanced from
        # concurrent reduce worker threads without a lock; under contention
        # picks could be lost or duplicated.  With the lock, N*k picks land
        # exactly k times on each of the N trackers.
        trackers = [TaskTracker(f"node-{i}") for i in range(5)]
        scheduler = LocalityAwareScheduler(trackers)
        picks_per_thread = 200
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        picked: list[list[str]] = [[] for _ in range(num_threads)]

        def worker(index: int) -> None:
            barrier.wait()
            for _ in range(picks_per_thread):
                picked[index].append(scheduler.pick_tracker_round_robin().host)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts = Counter(host for row in picked for host in row)
        expected = num_threads * picks_per_thread // len(trackers)
        assert counts == {f"node-{i}": expected for i in range(5)}


class TestTaskTracker:
    def test_slot_accounting(self):
        tracker = TaskTracker("host", slots=2)
        assert tracker.free_slots == 2
        with pytest.raises(ValueError):
            TaskTracker("bad", slots=0)


class TestEndToEndJobs:
    def prepare_input(self, fs) -> str:
        write_text_file(fs, "/input/data.txt", num_lines=3000, seed=3)
        return "/input/data.txt"

    @pytest.mark.parametrize("parallel", [True, False])
    def test_wordcount_matches_reference(self, any_fs, parallel):
        path = self.prepare_input(any_fs)
        reference: dict[str, int] = {}
        for line in any_fs.read_file(path).decode().splitlines():
            for word in line.split():
                reference[word] = reference.get(word, 0) + 1
        jobtracker = make_cluster(any_fs, slots_per_tracker=2, parallel=parallel)
        job = make_wordcount_job([path], output_dir="/wc", num_reduce_tasks=3, split_size=8 * KB)
        result = jobtracker.run(job)
        assert result.succeeded
        assert result.map_tasks > 1
        assert result.reduce_tasks == 3
        produced: dict[str, int] = {}
        for part in result.output_paths:
            for line in any_fs.read_file(part).decode().splitlines():
                word, count = line.split("\t")
                produced[word] = int(count)
        assert produced == reference
        assert result.counter("map_input_records") == 3000

    @pytest.mark.parametrize("parallel", [True, False])
    def test_wordcount_job_counters_are_exact(self, bsfs, parallel):
        path = self.prepare_input(bsfs)
        text = bsfs.read_file(path).decode()
        words = sum(len(line.split()) for line in text.splitlines())
        jobtracker = make_cluster(bsfs, slots_per_tracker=2, parallel=parallel)
        job = make_wordcount_job(
            [path], output_dir="/wc-counters", num_reduce_tasks=2, split_size=8 * KB
        )
        result = jobtracker.run(job)
        assert result.succeeded
        assert result.map_tasks > 1
        assert result.counter("map_input_records") == len(text.splitlines()) == 3000
        assert result.counter("map_output_records") == words
        assert result.counter("wordcount.words") == words

    @pytest.mark.parametrize("spill", [False, True])
    def test_combiner_counters_reach_the_job(self, any_fs, spill):
        seen: list[tuple[str, str]] = []

        def counting_combiner(key, values, context):
            context.counters.increment("combine.input", len(values))
            seen.append((context.job_conf.name, context.task_id))
            context.emit(key, sum(values))

        path = self.prepare_input(any_fs)
        job = make_wordcount_job(
            [path], output_dir="/wc-combine", num_reduce_tasks=3, split_size=8 * KB
        )
        job = replace(
            job,
            combiner=counting_combiner,
            conf=replace(job.conf, spill_to_fs=spill),
        )
        result = make_cluster(any_fs, slots_per_tracker=2).run(job)
        assert result.succeeded
        # Every map output record passes through the combiner exactly once.
        assert result.counter("combine.input") == result.counter("map_output_records") > 0
        assert {name for name, _ in seen} == {"wordcount"}
        assert {task for _, task in seen} == {
            f"map-{index:05d}" for index in range(result.map_tasks)
        }
        produced = Counter()
        for part in result.output_paths:
            for line in any_fs.read_file(part).decode().splitlines():
                word, count = line.split("\t")
                produced[word] += int(count)
        assert produced == Counter(any_fs.read_file(path).decode().split())

    def test_distributed_grep_counts_matches(self, any_fs):
        path = self.prepare_input(any_fs)
        text = any_fs.read_file(path).decode()
        expected = text.count("hellbender")
        jobtracker = make_cluster(any_fs, slots_per_tracker=2)
        job = make_distributed_grep_job("hellbender", [path], output_dir="/grep", split_size=8 * KB)
        result = jobtracker.run(job)
        assert result.counter("grep.matches") == expected
        output = b"".join(any_fs.read_file(p) for p in result.output_paths).decode()
        if expected:
            assert f"hellbender\t{expected}" in output

    def test_random_text_writer_is_map_only_and_writes_files(self, any_fs):
        jobtracker = make_cluster(any_fs, slots_per_tracker=2)
        job = make_random_text_writer_job(
            output_dir="/rtw", num_map_tasks=3, bytes_per_map=20 * KB, seed=9
        )
        result = jobtracker.run(job)
        assert result.reduce_tasks == 0
        assert result.map_tasks == 3
        files = any_fs.list_files("/rtw")
        assert len(files) == 3
        total = sum(f.size for f in files)
        assert total >= 3 * 20 * KB
        assert result.counter("random_text.bytes_generated") > 0

    def test_sort_job_produces_sorted_output(self, bsfs):
        records = [f"{key:04d}\tvalue-{key}" for key in range(200, 0, -1)]
        bsfs.write_file("/sort-in.txt", ("\n".join(records) + "\n").encode())
        jobtracker = make_cluster(bsfs, slots_per_tracker=2)
        job = make_sort_job(["/sort-in.txt"], output_dir="/sorted", num_reduce_tasks=1, split_size=2 * KB)
        result = jobtracker.run(job)
        output = bsfs.read_file(result.output_paths[0]).decode().splitlines()
        keys = [line.split("\t")[0] for line in output]
        assert keys == sorted(keys)
        assert len(output) == 200

    def test_locality_is_achieved_on_bsfs(self, bsfs):
        path = self.prepare_input(bsfs)
        jobtracker = make_cluster(bsfs, slots_per_tracker=2)
        job = make_wordcount_job([path], output_dir="/wc-loc", split_size=8 * KB)
        result = jobtracker.run(job)
        assert result.locality.total == result.map_tasks
        assert result.locality.locality_ratio > 0.5

    def test_identity_job_round_trips_records(self, bsfs):
        bsfs.write_file("/id.txt", b"a\nb\nc\n")
        jobtracker = make_cluster(bsfs, parallel=False)
        job = Job(
            conf=JobConf(name="identity", input_paths=("/id.txt",), output_dir="/id-out"),
            mapper=identity_mapper,
            reducer=identity_reducer,
        )
        result = jobtracker.run(job)
        output = bsfs.read_file(result.output_paths[0])
        assert output.count(b"\n") == 3

    def test_grep_requires_pattern(self):
        with pytest.raises(ValueError):
            make_distributed_grep_job("", ["/x"])

    def test_jobtracker_requires_trackers(self, bsfs):
        with pytest.raises(ValueError):
            JobTracker(bsfs, [])
