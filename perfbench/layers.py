"""Per-layer call tracing, installed at runtime around the public API.

:meth:`Tracer.install` replaces each traced function of the ``repro``
package with a wrapper that records, per thread, how often the function
ran and its *self* time: the call's duration minus the durations of the
wrapped calls nested inside it on the same thread.  Nothing in the
package itself is edited, and :meth:`Tracer.uninstall` puts every
original attribute back.

Per thread, the self times of all frames add up to the time that thread
spent inside *some* traced call (``covered_s``); the rest of the
thread's wall time is the residual the reconciliation table reports.
"""

from __future__ import annotations

import functools
import socketserver
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set


class ThreadStats:
    """One thread's accumulators for the current window."""

    def __init__(self, thread: threading.Thread):
        self.thread = thread
        self.stack: List[list] = []  # [name, start, nested duration]
        self.clear()

    def clear(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.keys: Set[str] = set()
        self.covered_s = 0.0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def parent(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None


@dataclass
class ThreadView:
    """A snapshot of one thread's window."""

    name: str
    covered_s: float
    self_s: Dict[str, float]


@dataclass
class Window:
    """Merged snapshot of every thread's accumulators."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    distinct_keys: int = 0
    threads: List[ThreadView] = field(default_factory=list)

    def time(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def ratio(self, counted: str, frame: str) -> float:
        calls = self.n(frame)
        return self.counts.get(counted, 0) / calls if calls else 0.0


# -- hooks run around particular frames -----------------------------------------


def _note_key(st: ThreadStats, args, result, state) -> None:
    st.keys.add(result)


def _count_lanes(st: ThreadStats, args, result, state) -> None:
    st.count("vectorized.lanes", len(args[1]))


def _count_insert(st: ThreadStats, args, result, state) -> None:
    if result:
        st.count("store.put.inserted")


def _count_hit(st: ThreadStats, args, result, state) -> None:
    if result is not None:
        st.count("store.get.hits")


def _count_claim(st: ThreadStats, args, result, state) -> None:
    if result is not None:
        st.count("jobs.claim.hits")


def _route(st: ThreadStats, args):
    request = args[1]
    parts = [p for p in request.path.split("/") if p]
    if request.method == "POST" and parts == ["v1", "jobs"]:
        route = "submit"
    elif len(parts) == 3 and parts[1] == "jobs":
        route = "status"
    elif len(parts) == 4 and parts[3] == "results":
        route = "results"
    else:
        route = "other"
    st.count("http.requests")
    st.count(f"http.requests.{route}")


def _batch_before(st: ThreadStats, args):
    runner = args[0]
    # A batch issued straight from Campaign.run is one durable chunk.
    if st.parent() == "campaign.run":
        st.count("campaign.chunks")
    return runner.hits, runner.misses, runner.store_hits


def _batch_after(st: ThreadStats, args, result, state) -> None:
    runner = args[0]
    hits, misses, store_hits = state
    st.count("batch.memory_hits", runner.hits - hits)
    st.count("batch.simulated", runner.misses - misses)
    st.count("batch.store_hits", runner.store_hits - store_hits)


class Tracer:
    """Installs the layer wrappers and collects per-thread windows."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats: List[ThreadStats] = []
        self._restore: List[tuple] = []

    def stats(self) -> ThreadStats:
        """The calling thread's accumulators (registered on first use)."""
        st = getattr(self._local, "stats", None)
        if st is None:
            st = ThreadStats(threading.current_thread())
            self._local.stats = st
            with self._lock:
                self._stats.append(st)
        return st

    def reset(self) -> None:
        """Start a new window: forget ended threads, zero the rest."""
        with self._lock:
            self._stats = [st for st in self._stats if st.thread.is_alive()]
            for st in self._stats:
                st.clear()

    def snapshot(self) -> Window:
        """Merge every thread's accumulators into one :class:`Window`."""
        window = Window()
        keys: Set[str] = set()
        with self._lock:
            stats = list(self._stats)
        for st in stats:
            self_s = dict(st.self_s)
            for name, value in self_s.items():
                window.self_s[name] = window.self_s.get(name, 0.0) + value
            for name, value in dict(st.calls).items():
                window.calls[name] = window.calls.get(name, 0) + value
            for name, value in dict(st.counts).items():
                window.counts[name] = window.counts.get(name, 0) + value
            keys |= set(st.keys)
            if self_s:
                window.threads.append(
                    ThreadView(st.thread.name, st.covered_s, self_s)
                )
        window.distinct_keys = len(keys)
        return window

    # -- wrappers --------------------------------------------------------------

    def _frame(
        self,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable[[Callable], Callable]:
        tracer = self

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                st = tracer.stats()
                state = before(st, args) if before is not None else None
                frame = [name, perf_counter(), 0.0]
                st.stack.append(frame)
                try:
                    result = func(*args, **kwargs)
                finally:
                    duration = perf_counter() - frame[1]
                    st.stack.pop()
                    st.self_s[name] = st.self_s.get(name, 0.0) + duration - frame[2]
                    st.calls[name] = st.calls.get(name, 0) + 1
                    if st.stack:
                        st.stack[-1][2] += duration
                    else:
                        st.covered_s += duration
                if after is not None:
                    after(st, args, result, state)
                return result

            return wrapper

        return make

    def _counter(self, name: str, parent: str) -> Callable[[Callable], Callable]:
        """Count calls made directly under ``parent``; no timing frame."""
        tracer = self

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                st = tracer.stats()
                if st.parent() == parent:
                    st.count(name)
                return func(*args, **kwargs)

            return wrapper

        return make

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every traced public function."""
        import repro.service.worker as worker
        from repro.backends import EnvelopeBackend, VectorizedBackend
        from repro.core.batch import BatchRunner
        from repro.core.explorer import DesignSpaceExplorer
        from repro.core.objective import SimulationObjective
        from repro.rsm.model import ResponseSurface
        from repro.scenario import Scenario
        from repro.service.app import ServiceApp
        from repro.service.client import ServiceClient
        from repro.service.jobs import JobQueue
        from repro.store.campaign import Campaign
        from repro.store.db import ResultStore
        from repro.system.result import SystemResult
        from repro.system.stochastic import StochasticFamily

        frame = self._frame
        for owner, attr, make in (
            (Scenario, "cache_key", frame("scenario.cache_key", after=_note_key)),
            (Scenario, "from_dict", frame("scenario.from_dict")),
            (StochasticFamily, "expand", frame("stochastic.expand")),
            (VectorizedBackend, "run_batch",
             frame("vectorized.run_batch", after=_count_lanes)),
            (EnvelopeBackend, "simulate", frame("envelope.simulate")),
            (SystemResult, "to_payload", frame("result.to_payload")),
            (SystemResult, "from_payload", frame("result.from_payload")),
            (ResultStore, "put", frame("store.put", after=_count_insert)),
            (ResultStore, "get", frame("store.get", after=_count_hit)),
            (Campaign, "create", frame("campaign.create")),
            (Campaign, "run", frame("campaign.run")),
            (BatchRunner, "run",
             frame("batch.run", before=_batch_before, after=_batch_after)),
            (DesignSpaceExplorer, "build_design", frame("doe.build_design")),
            (DesignSpaceExplorer, "fit_model", frame("rsm.fit")),
            (DesignSpaceExplorer, "optimise_model", frame("optimize")),
            (ResponseSurface, "predict_coded",
             self._counter("rsm.predict.calls", parent="optimize")),
            (SimulationObjective, "evaluate_design",
             frame("objective.evaluate_design")),
            (ServiceApp, "dispatch", frame("http.dispatch", before=_route)),
            # The request thread's whole life: parse, dispatch, respond.
            (socketserver.ThreadingMixIn, "process_request_thread",
             frame("http.handler")),
            (ServiceClient, "request", frame("client.request")),
            (JobQueue, "submit", frame("jobs.submit")),
            (JobQueue, "claim", frame("jobs.claim", after=_count_claim)),
            (JobQueue, "result_entries", frame("jobs.result_entries")),
            (worker, "execute_job", frame("worker.execute_job")),
        ):
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
