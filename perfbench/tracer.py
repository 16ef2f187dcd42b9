"""In-memory span recorder and the wrappers that feed it.

The benchmark measures end-to-end numbers with no tracing at all.  A traced
run installs :func:`install` to replace a fixed set of public functions of
the ``repro`` package with thin wrappers that record one span per call:
name, start, end, parent span and (for client spans) a request id.  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` restores every original.

A layer's *self time* is its span's duration minus the time covered by its
child spans, accumulated per span name and per thread, so nested layers
(routing inside a scheduling pass inside ``Scheduler.run``) add up without
double counting.  A name's *call count* counts only outermost spans of that
name, so a wrapped method that calls itself (``sample_cycles`` calling
``sample_attempts``) is one call into the layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple, Union

#: Spans kept for the dump written at the end of a traced run.  Aggregates
#: (self time, calls, counters) cover every span; only the dump is capped.
KEEP_SPANS = 100_000

#: Prefix of the ``Scheduler.run`` spans; time inside them that no wrapped
#: child covers is reported as ``kernel.other_s``.
RUN_PREFIX = "scheduling.run_s."

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "counters", "spans",
                 "inside_run_s", "run_s")

    def __init__(self) -> None:
        #: Open frames: [name, start, child_seconds, span_id, in_run].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of outermost spans of each name.
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: List[tuple] = []
        #: Self time of wrapped spans nested inside a Scheduler.run span.
        self.inside_run_s = 0.0
        #: Inclusive time of Scheduler.run spans.
        self.run_s = 0.0


class Tracer:
    """Per-thread span stacks plus process-wide aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> list:
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
            in_run = parent[4] or parent[0].startswith(RUN_PREFIX)
        else:
            in_run = False
        frame = [name, 0.0, 0.0, next(self._ids), in_run]
        stack.append(frame)
        frame[1] = _perf()
        return frame

    def exit(self, frame: list, request_id: Optional[str] = None) -> None:
        end = _perf()
        state = self._state()
        stack = state.stack
        stack.pop()
        name, start, child, span_id, in_run = frame
        elapsed = end - start
        own = elapsed - child
        state.self_s[name] += own
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[2] += elapsed
            parent_id = parent[3]
            outermost = parent[0] != name
        else:
            outermost = True
        if outermost:
            state.calls[name] += 1
            state.incl_s[name] += elapsed
        if in_run:
            state.inside_run_s += own
        if name.startswith(RUN_PREFIX):
            state.run_s += elapsed
        if len(state.spans) < KEEP_SPANS:
            state.spans.append((span_id, parent_id, name, start, end,
                                request_id))

    def interval(self, name: str, start: float, end: float) -> None:
        """Record a span that began and ended on different threads."""
        state = self._state()
        state.self_s[name] += end - start
        state.incl_s[name] += end - start
        state.calls[name] += 1
        if len(state.spans) < KEEP_SPANS:
            state.spans.append((next(self._ids), 0, name, start, end, None))

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counters[name] += amount

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        """A span around a call made from the benchmark's own code."""
        if not self.enabled:
            yield
            return
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame, request_id)

    # -- aggregates --------------------------------------------------------

    def totals(self) -> Dict[str, object]:
        """Merged per-thread aggregates (a snapshot)."""
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counters: Counter = Counter()
        inside_run = run = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.self_s.items()):
                self_s[name] += value
            for name, value in list(state.incl_s.items()):
                incl_s[name] += value
            calls.update(dict(state.calls))
            counters.update(dict(state.counters))
            inside_run += state.inside_run_s
            run += state.run_s
        return {"self_s": self_s, "incl_s": incl_s, "calls": calls,
                "counters": counters, "inside_run_s": inside_run,
                "run_s": run}

    def dump(self, path: str) -> int:
        """Write the kept spans as JSON lines; return how many."""
        with self._lock:
            states = list(self._states)
        spans = sorted(span for state in states for span in state.spans)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, name, start, end, request_id in spans:
                record = {"id": span_id, "parent": parent_id, "name": name,
                          "start": start, "end": end}
                if request_id is not None:
                    record["request_id"] = request_id
                handle.write(json.dumps(record) + "\n")
        return len(spans)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: object, attr: str,
             name: Union[str, Callable[[tuple], str]],
             before: Optional[Callable[[tuple], object]] = None,
             after: Optional[Callable[[tuple, object, object], None]] = None,
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(args, token, result)``, which records counters read at the
        same boundary (e.g. events processed by one ``dispatch_due``).
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = tracer.enter(fixed if fixed is not None else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, token, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if own else None))

    def uninstall(self) -> None:
        """Stop recording and restore every wrapped attribute."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public layer boundaries the per-layer metrics are read at."""
    from repro.api import registries
    from repro.api.spec import ExperimentSpec
    from repro.canonical import canonical_dumps
    from repro.exec import cache as cache_module
    from repro.exec import jobs as jobs_module
    from repro.exec.engine import ExecutionEngine
    from repro.kernel.clock import SimulationClock
    from repro.kernel.engines import BatchedEngine
    from repro.lattice.backends import RoutingBackend
    from repro.lattice.routing import RoutingIndex
    from repro.rus.injection import InjectionModel
    from repro.rus.preparation import PreparationModel
    from repro.scheduling.base import Scheduler
    from repro.scheduling.mst import AsyncMstPipeline
    from repro.scheduling.rescq import RescqPolicy
    from repro.service.executor import ServiceExecutor
    from repro.sim import runner
    from repro.workloads.registry import BenchmarkSpec

    wrap = tracer.wrap
    count = tracer.count

    # workloads / fabric (circuit generation and layout construction).
    wrap(BenchmarkSpec, "build", "workloads.build_s")
    wrap(runner, "default_layout", "fabric.layout_s")
    wrap(registries.LAYOUTS, "create", "fabric.layout_s")

    # exec / scheduling.
    wrap(ExecutionEngine, "run", "exec.run_s")
    for cls in _defining_classes(Scheduler, "run"):
        wrap(cls, "run", lambda args: RUN_PREFIX + args[0].name)
    wrap(RescqPolicy, "schedule_pass", "scheduling.pass_s")
    # The kernel profile counts MST computations *started* by the
    # pipeline's tick (an AncillaMst is built later, when one completes),
    # so the builds are counted at the same boundary.
    wrap(AsyncMstPipeline, "tick", "scheduling.mst_s",
         before=lambda args: args[0].computations_started,
         after=lambda args, started, _r: count(
             "mst_builds", args[0].computations_started - started))

    # lattice: memoised routing queries and the BFS backends behind them.
    for attr in ("path", "attachments"):
        wrap(RoutingIndex, attr, "lattice.route_s")
    wrap(RoutingIndex, "enumerate_plans", "lattice.route_s",
         before=lambda args: (args[0].queries, args[0].plan_cache_hits),
         after=lambda args, token, _r: (
             count("plan_queries", args[0].queries - token[0]),
             count("plan_hits", args[0].plan_cache_hits - token[1])))
    for cls in _defining_classes(RoutingBackend, "shortest_path"):
        wrap(cls, "shortest_path", "lattice.bfs_s")

    # kernel: event dispatch (events counted as the engine processes them).
    for cls in (_defining_classes(SimulationClock, "dispatch_due")
                + _defining_classes(BatchedEngine, "dispatch_due")):
        wrap(cls, "dispatch_due", "kernel.dispatch_s",
             before=lambda args: args[0].events_processed,
             after=lambda args, before, _r: count(
                 "events", args[0].events_processed - before))

    # rus: every sampling entry point of the preparation / injection models.
    for cls in (PreparationModel, InjectionModel):
        for attr in [a for a in vars(cls) if a.startswith("sample_")]:
            wrap(cls, attr, "rus.sample_s")

    # api / exec / canonical (the request path of the service).
    wrap(ExperimentSpec, "expand", "api.expand_s")
    wrap(jobs_module, "job_fingerprint", "exec.fingerprint_s")
    for cls in _defining_classes(cache_module.CacheBackend, "get"):
        wrap(cls, "get", "exec.cache_get_s",
             after=lambda args, _t, result: (
                 count("cache_gets"),
                 count("cache_hits", result is not None)))
    for cls in _defining_classes(cache_module.CacheBackend, "put"):
        wrap(cls, "put", "exec.cache_put_s")
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "canonical_dumps", None)
                is canonical_dumps):
            wrap(module, "canonical_dumps", "canonical.dumps_s")

    # service: queue wait plus worker run, from submit until the future
    # resolves (the future completes on the executor's collector thread).
    original_submit = ServiceExecutor.__dict__["submit"]

    @functools.wraps(original_submit)
    def submit(self, job):
        if not tracer.enabled:
            return original_submit(self, job)
        start = _perf()
        future = original_submit(self, job)
        future.add_done_callback(
            lambda _f: tracer.interval("service.job_s", start, _perf()))
        return future

    ServiceExecutor.submit = submit
    tracer._patches.append((ServiceExecutor, "submit", original_submit))
    tracer.enabled = True
