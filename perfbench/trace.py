"""Span tracing from outside the program.

Nothing under ``src/`` knows about this module.  The traced run wraps the
public methods of objects the benchmark builds itself (the file system and
the streams it returns, ``BlobSeer`` and its parts, the namenode, the task
trackers, the job's user functions) and passes recording proxies in place
of the provider, metadata and datanode objects.  Each wrapped call records
one span in memory; ``layers.py`` turns them into metrics when the run
ends.

A span's parent is the innermost span open on the same thread.  Work
handed to another thread keeps its parent only where the benchmark can
see the hand-off: callables given to the transfer engine's ``submit`` and
``map``, and task attempts (whose job span is looked up by job name).
Spans opened on any other thread with nothing open are orphans: they are
counted, never attached by guesswork.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import itertools
import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

#: Layers of this repository, by span-name prefix.
LAYERS = ("mapreduce", "fs", "bsfs", "hdfs", "core", "net", "versions")
BYTES_TYPES = (bytes, bytearray, memoryview)


class Span:
    __slots__ = (
        "id",
        "parent",
        "trace",
        "name",
        "thread",
        "start",
        "end",
        "tag",
        "nbytes",
        "error",
        "root",
    )

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _UserFnClock:
    """Per-thread time spent inside user map/combine/reduce functions."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class Tracer:
    """Records spans in memory; one trace id per root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._clocks: list[_UserFnClock] = []
        #: Job name -> the span the job was submitted under.
        self.job_spans: dict[str, Span] = {}
        #: Most live threads seen at a task attempt's start or end.
        self.threads_peak = 0
        #: False while the benchmark does untimed work (oracles, clean-up):
        #: wrapped calls then pass straight through.
        self.active = True

    # -- spans -------------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def start(
        self,
        name: str,
        *,
        root: bool = False,
        parent: Span | None = None,
        tag: str | None = None,
    ) -> Span:
        stack = self._stack()
        if parent is None and stack and not root:
            parent = stack[-1]
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.root = root
        span.thread = threading.get_ident()
        span.nbytes = 0
        span.error = False
        if parent is not None:
            span.parent = parent.id
            span.trace = parent.trace
            span.tag = tag if tag is not None else parent.tag
        else:
            span.parent = None
            span.trace = next(self._trace_ids) if root else None
            span.tag = tag
        stack.append(span)
        span.start = perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # a generator span closed out of order
            stack.remove(span)
        self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def root(self, name: str, tag: str | None = None) -> Span:
        return self.start(name, root=True, tag=tag)

    def bind(self, fn: Callable) -> Callable:
        """``fn`` run on another thread, parented to the current span."""
        stack = self._stack()
        if not stack:
            return fn
        context = stack[-1]

        def bound(*args: Any, **kwargs: Any) -> Any:
            local = self._stack()
            local.append(context)
            try:
                return fn(*args, **kwargs)
            finally:
                local.pop()

        return bound

    def sample_threads(self) -> None:
        count = threading.active_count()
        if count > self.threads_peak:
            self.threads_peak = count

    # -- user functions ----------------------------------------------------------------
    def user_clock(self) -> _UserFnClock:
        try:
            return self._local.clock
        except AttributeError:
            clock = self._local.clock = _UserFnClock()
            with self._lock:
                self._clocks.append(clock)
            return clock

    def user_fn_seconds(self) -> float:
        with self._lock:
            return sum(c.seconds for c in self._clocks)

    # -- wrapping ----------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        tag: Callable[[tuple], str | None] | None = None,
        bytes_arg: int | None = None,
        on_result: Callable[[Any, Span], Any] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``bytes_arg`` names the positional argument whose length is the
        bytes the call moves in; otherwise a bytes-like result counts.
        ``on_result`` may replace the result (to wrap returned streams).
        """
        start, finish = self.start, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            span = start(name, tag=tag(args) if tag is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                finish(span)
            if bytes_arg is not None:
                if len(args) > bytes_arg and isinstance(args[bytes_arg], BYTES_TYPES):
                    span.nbytes = len(args[bytes_arg])
            elif isinstance(result, BYTES_TYPES):
                span.nbytes = len(result)
            if on_result is not None:
                return on_result(result, span)
            return result

        return traced

    def wrap_iterator(self, iterator: Iterable, name: str, tag: str | None) -> "TracedIterator":
        return TracedIterator(self, iter(iterator), name, tag)

    def instrument(
        self,
        obj: Any,
        prefix: str,
        *,
        only: Iterable[str] | None = None,
        special: dict[str, dict] | None = None,
    ) -> Any:
        """Replace public methods of ``obj`` (on the instance) with traced ones.

        Instance attributes shadow the class's methods, so the object's own
        ``self.method(...)`` calls go through the wrappers too.
        """
        special = special or {}
        names = only if only is not None else public_methods(obj)
        for method in names:
            fn = getattr(obj, method)
            setattr(obj, method, self.wrap(fn, f"{prefix}.{method}", **special.get(method, {})))
        return obj


def public_methods(obj: Any) -> list[str]:
    """Public plain methods of ``obj``'s class (no properties)."""
    names = []
    for name in dir(type(obj)):
        if name.startswith("_"):
            continue
        if inspect.isfunction(inspect.getattr_static(type(obj), name)):
            names.append(name)
    return names


class TracedIterator:
    """An iterator recording one span per ``next``."""

    def __init__(self, tracer: Tracer, iterator, name: str, tag: str | None) -> None:
        self._tracer = tracer
        self._iterator = iterator
        self._name = name
        self._tag = tag

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        if not self._tracer.active:
            return next(self._iterator)
        span = self._tracer.start(self._name, tag=self._tag)
        try:
            item = next(self._iterator)  # StopIteration is the end, not a failure
        finally:
            self._tracer.finish(span)
        span.nbytes = len(item) if isinstance(item, BYTES_TYPES) else 0
        return item

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


class TracedProxy:
    """Stands in for a provider, metadata provider or datanode object.

    Every public method call records a span named ``<layer>.<method>``, and
    so does reading ``available`` (an RPC on a stub).  Other attributes are
    identity fields (``provider_id``, ``host``, ``rack``) that the
    allocation loops read often: they are fetched once and kept.
    """

    RPC_PROPERTIES = ("available",)

    def __init__(self, tracer: Tracer, layer: str, target: Any) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_layer", layer)
        bytes_args = {"put_page": 1, "write_block": 1}
        for method in public_methods(target):
            wrapped = tracer.wrap(
                getattr(target, method),
                f"{layer}.{method}",
                bytes_arg=bytes_args.get(method),
            )
            object.__setattr__(self, method, wrapped)

    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_target")
        tracer = object.__getattribute__(self, "_tracer")
        if name in TracedProxy.RPC_PROPERTIES and tracer.active:
            span = tracer.start(f"{object.__getattribute__(self, '_layer')}.{name}")
            try:
                return getattr(target, name)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.finish(span)
        value = getattr(target, name)
        if not isinstance(inspect.getattr_static(type(target), name, None), property):
            object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)

    def __len__(self) -> int:
        return len(object.__getattribute__(self, "_target"))

    def __repr__(self) -> str:
        return f"TracedProxy({object.__getattribute__(self, '_target')!r})"


SPAN_FIELDS = ("id", "parent", "trace", "name", "thread", "start", "end", "tag", "nbytes", "error")


def write_spans(spans: list[Span], path: str) -> None:
    """Write spans as gzipped JSON lines: a header of field names, then one
    list of values per span (times are ``perf_counter`` seconds)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write(json.dumps(SPAN_FIELDS) + "\n")
        for span in spans:
            out.write(json.dumps([getattr(span, field) for field in SPAN_FIELDS]) + "\n")


# -- interval arithmetic -----------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(children.get(span.id, []), span.start, span.end)
        for span in spans
    }
