"""Spans recorded around calls into the program, installed from outside it.

The traced mode replaces public entry points (``Engine.run``,
``Policy.decide_many``, ``ResultCache.put``, ...) with thin timing
wrappers for the duration of one repetition and restores the originals
afterwards.  Nothing inside ``repro`` changes: in particular its own
tracer (``$REPRO_TRACE``) stays off, because the engine skips batched
decisions whenever that tracer is enabled, and a traced run must take
the code path the measured run took.

Spans live in memory.  Each keeps its name, start, end and the index of
the span that was open when it began, so a layer's self time is its
duration minus the child spans it encloses.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: Counts derived from a wrapped call: ``(args, kwargs, result) -> int``.
CountFn = Callable[[tuple, dict, object], int]


class SpanRecorder:
    """In-memory spans and counters of one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, *, nested: bool = True) -> int:
        """Open a span; ``nested=False`` neither takes nor becomes a parent."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._open[-1] if nested and self._open else -1)
        if nested:
            self._open.append(index)
        return index

    def end(self, index: int, *, nested: bool = True) -> None:
        self.ends[index] = time.perf_counter()
        if nested:
            self._open.pop()

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def _has_ancestor(self, index: int, names: frozenset[str]) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] in names:
                return True
            parent = self.parents[parent]
        return False

    def has_ancestor(self, index: int, name: str) -> bool:
        """Whether span ``index`` runs inside another span called ``name``."""
        return self._has_ancestor(index, frozenset((name,)))

    def total(self, name: str) -> float:
        """Seconds inside ``name`` spans, counting nested repeats once.

        A wrapper policy's ``decide`` calls its inner policy's ``decide``;
        both are ``policies.decide`` spans, and only the outer one counts.
        """
        names = frozenset((name,))
        return sum(
            self.duration(index)
            for index, span_name in enumerate(self.names)
            if span_name == name and not self._has_ancestor(index, names)
        )

    def calls(self, name: str) -> int:
        """Outermost ``name`` spans (nested repeats excluded)."""
        names = frozenset((name,))
        return sum(
            1
            for index, span_name in enumerate(self.names)
            if span_name == name and not self._has_ancestor(index, names)
        )

    def self_time(self, name: str, minus: Iterable[str]) -> float:
        """``total(name)`` minus the outermost ``minus`` spans inside it."""
        excluded = frozenset(minus)
        owner = frozenset((name,))
        inside = 0.0
        for index, span_name in enumerate(self.names):
            if span_name not in excluded or self._has_ancestor(index, excluded):
                continue
            if self._has_ancestor(index, owner):
                inside += self.duration(index)
        return self.total(name) - inside

    def top_level(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(
            self.duration(index)
            for index, parent in enumerate(self.parents)
            if parent < 0
        )

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SpanRecorder":
        recorder = cls()
        recorder.names = list(payload["names"])
        recorder.starts = list(payload["starts"])
        recorder.ends = list(payload["ends"])
        recorder.parents = list(payload["parents"])
        recorder.counters = Counter(payload["counters"])
        return recorder


@dataclass(frozen=True)
class WrapPoint:
    """One attribute to replace with a timing wrapper.

    ``owner`` is a class or module; ``count`` optionally derives a count
    from the call (added to ``recorder.counters[counter]``).
    """

    owner: object
    attribute: str
    span: str
    count: CountFn | None = None
    counter: str = ""


def _timed(recorder: SpanRecorder, point: WrapPoint, original: Callable) -> Callable:
    name, count, counter = point.span, point.count, point.counter or point.span
    if inspect.iscoroutinefunction(original):
        # Coroutines interleave on the event loop, so their spans are
        # recorded flat rather than pushed on the parent stack.
        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            index = recorder.begin(name, nested=False)
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.end(index, nested=False)

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        # A wrapper policy's batch delegates to its inner policy's; only
        # the outermost call's count is the work done.
        if count is not None and not recorder.has_ancestor(index, name):
            recorder.counters[counter] += count(args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(recorder: SpanRecorder, points: Iterable[WrapPoint]) -> Iterator[None]:
    """Replace every point with its wrapper; restore the originals on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for point in points:
            original = point.owner.__dict__[point.attribute]
            saved.append((point.owner, point.attribute, original))
            setattr(point.owner, point.attribute, _timed(recorder, point, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class TimedPickle:
    """Stands in for the ``pickle`` module inside the result cache.

    ``ResultCache.put`` and its disk read call ``pickle.dump`` and
    ``pickle.load`` through their module's global ``pickle`` name; this
    object times those two calls and counts the bytes written, and
    forwards every other attribute to the real module.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def __getattr__(self, attribute: str):
        return getattr(pickle, attribute)

    def dump(self, obj, stream, *args, **kwargs) -> None:
        before = stream.tell()
        index = self._recorder.begin("results.pickle")
        try:
            pickle.dump(obj, stream, *args, **kwargs)
        finally:
            self._recorder.end(index)
        self._recorder.counters["results.pickle_bytes"] += stream.tell() - before

    def load(self, stream, *args, **kwargs):
        index = self._recorder.begin("results.unpickle")
        try:
            return pickle.load(stream, *args, **kwargs)
        finally:
            self._recorder.end(index)


@contextmanager
def timed_pickle(recorder: SpanRecorder, module) -> Iterator[None]:
    """Swap ``module.pickle`` for a :class:`TimedPickle` while active."""
    original = module.pickle
    module.pickle = TimedPickle(recorder)
    try:
        yield
    finally:
        module.pickle = original


def policy_classes() -> list[type]:
    """Every loaded ``Policy`` subclass, parents before children."""
    from repro.policies.base import Policy

    found: list[type] = []
    pending = [Policy]
    while pending:
        cls = pending.pop(0)
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def policy_points() -> list[WrapPoint]:
    """``decide`` / ``decide_many`` on each class that defines them.

    Each method is replaced in the class that defines it, so the
    engine's MRO check of which class owns ``decide_many`` sees the same
    owners as without the wrappers.
    """
    points = []
    for cls in policy_classes():
        if "decide" in cls.__dict__ and not getattr(
            cls.__dict__["decide"], "__isabstractmethod__", False
        ):
            points.append(WrapPoint(cls, "decide", "policies.decide"))
        if "decide_many" in cls.__dict__:
            points.append(
                WrapPoint(
                    cls,
                    "decide_many",
                    "policies.decide_many",
                    count=lambda args, kwargs, result: len(result) if result else 0,
                    counter="policies.batched_decisions",
                )
            )
    return points


def _put_bytes(args: tuple, kwargs: dict, result: object) -> int:
    cache, key = args[0], args[1]
    if cache.disk_dir is None:
        return 0
    return os.path.getsize(cache.disk_dir / f"{key}.pkl")


def sweep_points() -> list[WrapPoint]:
    """Entry points a serial cached sweep passes through."""
    from repro.simulator.engine import Engine
    from repro.simulator.results import SimulationResult
    from repro.simulator.runner.cache import ResultCache
    from repro.simulator.runner.spec import SimulationSpec
    from repro.simulator.session import EngineSession

    return [
        WrapPoint(SimulationSpec, "digest", "runner.spec_digest"),
        WrapPoint(SimulationSpec, "to_kwargs", "runner.thaw"),
        WrapPoint(ResultCache, "get", "runner.cache_get"),
        WrapPoint(
            ResultCache, "put", "runner.cache_put",
            count=_put_bytes, counter="runner.cache_put_bytes",
        ),
        WrapPoint(Engine, "run", "engine.run"),
        WrapPoint(EngineSession, "submit", "session.submit"),
        WrapPoint(EngineSession, "drain", "session.drain"),
        WrapPoint(SimulationResult, "digest", "results.digest"),
        *policy_points(),
    ]


def service_points() -> list[WrapPoint]:
    """Entry points the scheduler service passes through."""
    import repro.carbon.regions as regions
    from repro.service.scheduler import SchedulerService
    from repro.simulator.results import SimulationResult
    from repro.simulator.session import EngineSession

    return [
        WrapPoint(regions, "generate_carbon_trace", "carbon.generate"),
        WrapPoint(SchedulerService, "submit", "service.submit"),
        WrapPoint(EngineSession, "submit", "session.submit"),
        WrapPoint(EngineSession, "drain", "session.drain"),
        WrapPoint(SimulationResult, "digest", "results.digest"),
        *policy_points(),
    ]


#: Spans subtracted from ``Engine.run`` to give the engine's self time.
ENGINE_CHILDREN = ("policies.decide", "policies.decide_many", "results.digest")
