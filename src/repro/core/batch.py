"""Parallel batch execution of scenarios.

:class:`BatchRunner` is the one dispatch point every many-simulation
driver (DOE evaluation, Monte Carlo, robustness grids, Fig. 4 sweeps,
CLI batches) funnels through.  It adds three things on top of a plain
loop over :func:`repro.backends.run`:

- **Deterministic seeding** -- scenarios submitted with ``seed=None``
  get a per-scenario seed derived from the runner's base seed and the
  scenario's *position in the batch* (:func:`positional_seeds`), so
  results are identical whether the batch runs serially or on N workers.
- **Fan-out** -- ``jobs > 1`` dispatches over ``concurrent.futures``
  (processes by default, because the simulators are pure Python and
  GIL-bound; threads are available for cheap backends or shared-memory
  experiments).
- **An LRU result cache** keyed on the scenario content hash
  (:meth:`~repro.scenario.Scenario.cache_key`), so repeated scenarios --
  verification re-runs, overlapping sweeps, optimiser revisits -- cost
  nothing.  Duplicates *within* one batch are also simulated only once.
- **An optional persistent second tier** -- attach a
  :class:`~repro.store.ResultStore` and lookups fall through memory LRU
  -> disk store -> simulate, with every fresh result written through to
  disk.  Results then survive the process and are shared with every
  other runner (or machine) pointed at the same store file.
- **Batch-capable backend dispatch** -- scenarios whose backend
  implements ``run_batch`` (the ``vectorized`` backend) are handed over
  in one call per backend instead of being fanned out one scenario at a
  time, so a 256-scenario batch is a single lockstep array integration.
  With ``jobs=N`` the two compose: the group shards into N contiguous
  sub-batches and each worker advances its sub-batch through one
  ``run_batch`` call, preserving byte-identical results for any worker
  count.  The cache tiers and ``store_hits`` accounting sit *above*
  this dispatch and behave identically for every backend.

Results come back in submission order regardless of completion order.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends import dispatch_batchable, get_backend, run
from repro.errors import ConfigError
from repro.obs.metrics import metrics
from repro.obs.state import STATE as _OBS
from repro.obs.trace import span
from repro.rng import derive_seed
from repro.scenario import Scenario
from repro.system.result import SystemResult

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.store import ResultStore

#: Accepted ``executor`` values.
_EXECUTORS = ("process", "thread")

#: Batch cache-tier telemetry: how lookups resolved and what each tier
#: cost.  ``tier`` is ``memory`` / ``store`` (hits per cache tier) or
#: ``simulate`` (the miss path); the timer covers store lookups and the
#: simulate phase (memory hits are not worth a clock read).
_TIER_TOTAL = metrics().counter(
    "repro_batch_tier_total",
    "Batch scenario lookups resolved per cache tier",
    ("tier",),
)
_TIER_SECONDS = metrics().histogram(
    "repro_batch_tier_seconds",
    "Wall time spent per batch cache tier",
    ("tier",),
)


def partition_slices(total: int, parts: int) -> List[Tuple[int, int]]:
    """Deterministic ``[start, stop)`` slices: N contiguous, sizes +/-1.

    The boundaries depend on ``(total, parts)`` alone, longer slices
    first, so a list splits identically wherever it is split: campaign
    partitions and the ``jobs x run_batch`` sub-batches of
    :class:`BatchRunner` both reassemble in submission order.
    """
    if parts < 1:
        raise ConfigError(f"partition count must be >= 1, got {parts}")
    if parts > total:
        raise ConfigError(
            f"cannot split {total} scenario(s) into {parts} partitions "
            f"(every partition needs at least one)"
        )
    base, extra = divmod(total, parts)
    slices: List[Tuple[int, int]] = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def positional_seeds(scenarios: Sequence[Scenario], seed: int = 0) -> List[Scenario]:
    """``scenarios`` with every ``seed=None`` entry seeded by position.

    Entry ``i`` gets :func:`repro.rng.derive_seed` ``(seed, i)``, ``i``
    counted over the *full* list.  This is the one rule behind batch,
    campaign-journal and partition-slice seeds, so a scenario's content
    key is the same in a batch of any worker count, in a single-store
    campaign, and in whichever partition slice it lands.
    """
    return [
        s if s.seed is not None else s.with_seed(derive_seed(seed, i))
        for i, s in enumerate(scenarios)
    ]


def _run_subbatch(payload) -> List[SystemResult]:
    """Module-level worker: one ``run_batch`` call over one sub-batch.

    ``payload`` is ``(backend_name, scenarios)``; keeping the worker at
    module level (and the payload plain data) is what lets process
    pools pickle it.
    """
    name, scenarios = payload
    return get_backend(name).run_batch(scenarios)


def _metered(worker: Callable, item):
    """Process-pool wrapper that ships ``worker(item)``'s metrics home.

    The worker's registry is reset before the call and snapshotted
    after, so each returned snapshot holds exactly this item's
    telemetry; the coordinating runner merges them, which is how
    counters collected inside process workers survive the pool.
    """
    registry = metrics()
    registry.reset()
    result = worker(item)
    return result, registry.snapshot()


class BatchRunner:
    """Fan a list of scenarios out over workers, deterministically.

    Parameters
    ----------
    jobs:
        Worker count; ``1`` runs in-process (no executor, no pickling).
    seed:
        Base seed for deriving per-scenario seeds when a scenario is
        submitted with ``seed=None``.
    cache_size:
        Maximum number of results kept in the LRU cache (0 disables it).
    executor:
        ``"process"`` (default; real parallelism for the pure-Python
        simulators) or ``"thread"``.  Process workers re-import the
        backend registry, so custom backends registered at runtime are
        only visible to them where workers are forked (see
        :func:`repro.backends.register_backend`); use ``"thread"`` for
        runtime-registered backends on spawn-based platforms.
    store:
        Optional :class:`~repro.store.ResultStore`: the persistent
        second cache tier.  Misses in the memory LRU are looked up on
        disk before simulating, and fresh results are written through,
        so batches dedupe across processes and across runs of the
        program.  Store writes happen in the coordinating process (the
        workers stay pure), which keeps process fan-out safe for any
        executor.
    backend:
        Optional backend-name override.  When set, every submitted
        scenario is rewritten to run on this backend *before* seeding,
        caching and store lookups, so cache keys and store provenance
        name the backend that actually produced each result
        (``BatchRunner(backend="vectorized")`` turns any scenario list
        into one ``run_batch`` call, which integrates in lockstep from
        :data:`~repro.system.vectorized.LOCKSTEP_MIN_LANES` lanes up).
        Unknown names fail at construction with a
        :class:`~repro.errors.ConfigError` listing the registered
        alternatives.
    """

    def __init__(
        self,
        jobs: int = 1,
        seed: int = 0,
        cache_size: int = 256,
        executor: str = "process",
        store: Optional["ResultStore"] = None,
        backend: Optional[str] = None,
    ):
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if cache_size < 0:
            raise ConfigError("cache_size must be >= 0")
        if executor not in _EXECUTORS:
            raise ConfigError(
                f"unknown executor {executor!r} (known: {', '.join(_EXECUTORS)})"
            )
        if backend is not None:
            get_backend(backend)  # fail fast, listing the alternatives
        self.jobs = int(jobs)
        self.seed = int(seed)
        self.cache_size = int(cache_size)
        self.executor = executor
        self.store = store
        self.backend = backend
        self._cache: "OrderedDict[str, SystemResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    # -- seeding ---------------------------------------------------------------

    def resolve_seeds(self, scenarios: Sequence[Scenario]) -> List[Scenario]:
        """Materialise ``seed=None`` entries into deterministic seeds.

        The backend override applies first, then :func:`positional_seeds`
        with the runner's base seed, so a batch is reproducible for any
        ``jobs``.
        """
        from dataclasses import replace

        if self.backend is not None:
            scenarios = [
                s if s.backend == self.backend else replace(s, backend=self.backend)
                for s in scenarios
            ]
        return positional_seeds(scenarios, self.seed)

    # -- execution ---------------------------------------------------------------

    def run(self, scenarios: Sequence[Scenario]) -> List[SystemResult]:
        """Execute every scenario; results align with the input order."""
        resolved = self.resolve_seeds(scenarios)
        results: List[Optional[SystemResult]] = [None] * len(resolved)

        with span("batch.run", n=len(resolved)) as batch_span:
            # Serve memory-tier hits, then disk-tier hits, and collect
            # the unique missing work.
            memory_hits = 0
            store_hits = 0
            store_seconds = 0.0
            pending: "Dict[str, List[int]]" = {}
            for i, scenario in enumerate(resolved):
                key = scenario.cache_key()
                cached = self._cache_get(key)
                if cached is not None:
                    memory_hits += 1
                elif self.store is not None:
                    t0 = time.perf_counter() if _OBS.metrics_on else 0.0
                    stored = self.store.get(key)
                    if _OBS.metrics_on:
                        store_seconds += time.perf_counter() - t0
                    if stored is not None:
                        self.store_hits += 1
                        store_hits += 1
                        self._cache_put(key, stored)
                        cached = stored
                if cached is not None:
                    results[i] = cached
                else:
                    pending.setdefault(key, []).append(i)
            if _OBS.metrics_on:
                if memory_hits:
                    _TIER_TOTAL.inc(memory_hits, tier="memory")
                if store_hits:
                    _TIER_TOTAL.inc(store_hits, tier="store")
                if self.store is not None:
                    _TIER_SECONDS.observe(store_seconds, tier="store")

            if pending:
                unique = [resolved[indices[0]] for indices in pending.values()]
                started = time.perf_counter()
                with span("batch.simulate", n=len(unique)):
                    fresh = self._execute(unique)
                # Attribute the batch's wall time evenly across its
                # members: per-scenario timing is meaningless under a
                # shared pool.
                elapsed = time.perf_counter() - started
                per_scenario = elapsed / len(unique)
                if _OBS.metrics_on:
                    _TIER_TOTAL.inc(len(unique), tier="simulate")
                    _TIER_SECONDS.observe(elapsed, tier="simulate")
                for (key, indices), scenario, result in zip(
                    pending.items(), unique, fresh
                ):
                    self._cache_put(key, result)
                    if self.store is not None:
                        self.store.put(scenario, result, wall_time_s=per_scenario)
                    for i in indices:
                        results[i] = result
            batch_span.annotate(
                memory_hits=memory_hits,
                store_hits=store_hits,
                simulated=len(pending),
            )
        return results  # type: ignore[return-value]

    def run_one(self, scenario: Scenario) -> SystemResult:
        """Convenience wrapper: a one-element batch."""
        return self.run([scenario])[0]

    def run_family(
        self, family, n: int = 1, seed: Optional[int] = None
    ) -> List[SystemResult]:
        """Expand a :class:`~repro.system.stochastic.ScenarioFamily` and
        run the expansion as one batch.

        ``seed`` defaults to the runner's base seed; results align with
        ``family.expand(n, seed)``, which callers can re-evaluate to
        recover the scenario for each result (expansion is pure).
        """
        expansion_seed = self.seed if seed is None else seed
        return self.run(family.expand(n=n, seed=expansion_seed))

    def _execute(self, scenarios: List[Scenario]) -> List[SystemResult]:
        self.misses += len(scenarios)
        # Batch-capable backends take their whole group in one
        # ``run_batch`` call with ``jobs=1``; with ``jobs=N`` the group
        # is sharded into N contiguous sub-batches, one ``run_batch``
        # call per worker (results are per-scenario deterministic, so
        # the reassembled batch is byte-identical for any worker
        # count).  The leftovers keep the per-scenario executor path.
        executor = self._run_group_sharded if self.jobs > 1 else None
        results, serial = dispatch_batchable(scenarios, batch_executor=executor)
        if serial:
            fresh = self._pool_map(run, [scenarios[i] for i in serial])
            for i, result in zip(serial, fresh):
                results[i] = result
        return results  # type: ignore[return-value]

    def _run_group_sharded(
        self, name: str, batch: List[Scenario]
    ) -> List[SystemResult]:
        """Fan one batch-capable backend group out over the worker pool.

        The group splits into ``min(jobs, len(batch))`` contiguous
        sub-batches (:func:`partition_slices`); each worker advances its
        sub-batch through a single ``run_batch`` call, and the
        sub-results concatenate back in submission order.
        """
        payloads = [
            (name, batch[start:stop])
            for start, stop in partition_slices(
                len(batch), min(self.jobs, len(batch))
            )
        ]
        out: List[SystemResult] = []
        for part in self._pool_map(_run_subbatch, payloads):
            out.extend(part)
        return out

    def _pool_map(self, worker: Callable, items: list) -> list:
        """``[worker(item) for item in items]`` over the pool, in order.

        With one worker to use (``jobs=1`` or a single item) it runs
        in-process, with no executor and no pickling.  With process
        workers and metrics on, each item ships its metrics delta home
        as a picklable snapshot (:func:`_metered`); merging here is
        what keeps the registry whole across the process pool.
        """
        workers = min(self.jobs, len(items))
        if workers <= 1:
            return [worker(item) for item in items]
        if self.executor == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(worker, items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if not _OBS.metrics_on:
                return list(pool.map(worker, items))
            pairs = list(pool.map(partial(_metered, worker), items))
        registry = metrics()
        for _, snapshot in pairs:
            registry.merge(snapshot)
        return [result for result, _ in pairs]

    # -- cache -------------------------------------------------------------------

    def _cache_get(self, key: str) -> Optional[SystemResult]:
        if key not in self._cache:
            return None
        self._cache.move_to_end(key)
        self.hits += 1
        return self._cache[key]

    def _cache_put(self, key: str, result: SystemResult) -> None:
        if self.cache_size == 0:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cache_len(self) -> int:
        """Number of cached results."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all *memory*-cached results and reset the counters.

        The persistent store (when attached) is deliberately left alone:
        it is shared state owned by the caller, not this runner.
        """
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
