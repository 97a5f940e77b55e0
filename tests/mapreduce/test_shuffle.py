"""Unit tests for partitioning, shuffle merge, grouping and output formats."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.errors import UnsupportedOperationError
from repro.mapreduce.job import Counters, Job, JobConf
from repro.mapreduce.shuffle import (
    MapOutputCollector,
    SingleFileOutputFormat,
    TextOutputFormat,
    group_by_key,
    hash_partitioner,
    merge_map_outputs,
)
from repro.mapreduce.splitter import InputSplit
from repro.mapreduce.tasktracker import TaskTracker

#: Keys of every kind a mapper may emit, including the trio ``1``, ``True``
#: and ``1.0``: equal as dict keys, distinct reprs.
MIXED_KEYS = st.one_of(
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers(-1000, 1000),
    st.booleans(),
    st.floats(allow_nan=False),
    st.tuples(st.text(max_size=4), st.integers(0, 9)),
    st.none(),
    st.sampled_from([1, True, 1.0, 0, False, 0.0]),
)


def _summing_combiner(key, values, context):
    context.emit(key, sum(values))


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        for key in ["a", "b", 42, ("x", 1), "word"]:
            partition = hash_partitioner(key, 7)
            assert 0 <= partition < 7
            assert hash_partitioner(key, 7) == partition

    def test_single_partition(self):
        assert hash_partitioner("anything", 1) == 0
        assert hash_partitioner("anything", 0) == 0

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.text(), min_size=20, max_size=100), partitions=st.integers(2, 8))
    def test_property_reasonable_spread(self, keys, partitions):
        assignments = {hash_partitioner(k, partitions) for k in set(keys)}
        assert assignments <= set(range(partitions))


class TestMapOutputCollector:
    def test_collect_partitions_by_key(self):
        collector = MapOutputCollector(3)
        for i in range(30):
            collector.collect(f"key-{i}", i)
        partitions = collector.partitions()
        assert sum(len(p) for p in partitions) == 30
        assert collector.records_collected == 30
        for partition_index, pairs in enumerate(partitions):
            for key, _value in pairs:
                assert hash_partitioner(key, 3) == partition_index

    def test_partitions_sorted_by_key(self):
        collector = MapOutputCollector(1)
        for key in ["zebra", "apple", "mango"]:
            collector.collect(key, 1)
        keys = [k for k, _ in collector.partitions()[0]]
        assert keys == sorted(keys)

    def test_combiner_reduces_volume(self):
        def combiner(key, values, context):
            context.emit(key, sum(values))

        collector = MapOutputCollector(2, combiner=combiner)
        for _ in range(10):
            collector.collect("hot", 1)
        collector.collect("cold", 1)
        partitions = collector.partitions()
        flattened = [pair for partition in partitions for pair in partition]
        assert sorted(flattened) == [("cold", 1), ("hot", 10)]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            MapOutputCollector(0)

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(MIXED_KEYS, max_size=60),
        partitions=st.integers(1, 7),
        combine=st.booleans(),
    )
    # 1, True and 1.0 land in three different partitions out of five.
    @example(keys=[1, True, 1.0] * 3, partitions=5, combine=False)
    @example(keys=[1, True, 1.0] * 3, partitions=5, combine=True)
    def test_property_memo_matches_partitioner_and_reference(
        self, keys, partitions, combine
    ):
        combiner = _summing_combiner if combine else None
        collector = MapOutputCollector(partitions, combiner=combiner)
        # A custom partitioner disables the memo: the reference hashes every record.
        reference = MapOutputCollector(
            partitions,
            partitioner=lambda key, n: hash_partitioner(key, n),
            combiner=combiner,
        )
        for value, key in enumerate(keys):
            collector.collect(key, value)
            reference.collect(key, value)
        assert collector.records_collected == len(keys)
        for index, pairs in enumerate(collector._partitions):
            for key, _value in pairs:
                assert hash_partitioner(key, partitions) == index
        assert collector.partitions() == reference.partitions()

    def test_custom_partitioner_called_for_every_record(self):
        calls = []

        def partitioner(key, n):
            calls.append(key)
            return 0

        collector = MapOutputCollector(3, partitioner=partitioner)
        for _ in range(5):
            collector.collect("same", 1)
        assert calls == ["same"] * 5

    def test_standalone_combiner_may_increment_counters(self):
        def counting_combiner(key, values, context):
            context.counters.increment("combine.groups")
            context.emit(key, sum(values))

        collector = MapOutputCollector(2, combiner=counting_combiner)
        for key in ["a", "b", "a"]:
            collector.collect(key, 1)
        # A standalone collector: the combiner's counters are private.
        flattened = [pair for part in collector.partitions() for pair in part]
        assert sorted(flattened) == [("a", 2), ("b", 1)]


def _repeated_words_mapper(key, value, context):
    for word in value.split():
        context.emit(word, 1)
        context.emit(word.encode(), 1)
        context.emit(len(word), 1)


class TestMapRecordPathOpCount:
    """The default partitioner hashes each exact-typed key once per task."""

    def run_map_task(self, monkeypatch, mapper, lines):
        hashes = []
        real_blake2b = hashlib.blake2b

        def counting_blake2b(data, **kwargs):
            hashes.append(data)
            return real_blake2b(data, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counting_blake2b)
        job = Job(conf=JobConf(name="op-count", num_reduce_tasks=4), mapper=mapper)
        result = TaskTracker("node-0").run_map_task(
            job,
            None,
            InputSplit(0, None, 0, 0),
            num_partitions=4,
            reader_factory=lambda fs, split: enumerate(lines),
            counters=Counters(),
        )
        monkeypatch.undo()
        return result, hashes

    def test_one_hash_per_distinct_key(self, monkeypatch):
        lines = ["alpha beta gamma alpha", "beta beta delta", "gamma alpha"] * 200
        result, hashes = self.run_map_task(monkeypatch, _repeated_words_mapper, lines)
        words = {word for line in lines for word in line.split()}
        distinct = (
            {("str", w) for w in words}
            | {("bytes", w) for w in words}
            | {("int", len(w)) for w in words}
        )
        assert result.records_out == 3 * sum(len(line.split()) for line in lines)
        assert len(hashes) == len(distinct)
        assert len(set(hashes)) == len(hashes)

    def test_non_memoised_types_hash_every_record(self, monkeypatch):
        def bool_mapper(key, value, context):
            context.emit(True, value)
            context.emit(1.0, value)

        result, hashes = self.run_map_task(monkeypatch, bool_mapper, ["x"] * 50)
        assert result.records_out == 100
        assert len(hashes) == 100


class TestMergeAndGroup:
    def test_merge_map_outputs(self):
        out_a = [[("a", 1)], [("b", 2)]]
        out_b = [[("a", 3)], [("c", 4)]]
        merged0 = merge_map_outputs([out_a, out_b], 0)
        assert merged0 == [("a", 1), ("a", 3)]
        merged1 = merge_map_outputs([out_a, out_b], 1)
        assert sorted(merged1) == [("b", 2), ("c", 4)]

    def test_group_by_key_preserves_value_order(self):
        pairs = [("k", 1), ("j", 9), ("k", 2), ("k", 3)]
        grouped = dict(group_by_key(pairs))
        assert grouped == {"k": [1, 2, 3], "j": [9]}
        assert [k for k, _ in group_by_key(pairs)] == ["j", "k"]


class TestTextOutputFormat:
    def test_writes_part_file(self, bsfs):
        fmt = TextOutputFormat()
        path = fmt.write(bsfs, "/out", 3, [("a", 1), ("b", 2)])
        assert path == "/out/part-r-00003"
        assert bsfs.read_file(path) == b"a\t1\nb\t2\n"

    def test_map_only_prefix(self, bsfs):
        fmt = TextOutputFormat()
        path = fmt.write(bsfs, "/out", 0, [("k", "v")], map_only=True)
        assert path == "/out/part-m-00000"

    def test_bytes_keys_and_custom_separator(self, bsfs):
        fmt = TextOutputFormat(separator=b",")
        path = fmt.write(bsfs, "/out", 0, [(b"raw", 7)])
        assert bsfs.read_file(path) == b"raw,7\n"


class TestSingleFileOutputFormat:
    def test_all_tasks_append_to_one_file_on_bsfs(self, bsfs):
        fmt = SingleFileOutputFormat(filename="merged.txt")
        for task in range(4):
            fmt.write(bsfs, "/merged-out", task, [(f"task{task}", task)])
        content = bsfs.read_file("/merged-out/merged.txt").decode()
        for task in range(4):
            assert f"task{task}\t{task}" in content

    def test_rejected_on_hdfs(self, hdfs):
        fmt = SingleFileOutputFormat()
        with pytest.raises(UnsupportedOperationError):
            fmt.write(hdfs, "/merged-out", 0, [("k", 1)])
