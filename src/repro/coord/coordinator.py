"""The distributed campaign coordinator.

:class:`Coordinator` drives one campaign manifest across N remote
``repro-wsn serve`` workers over plain HTTP:

1. **Split.**  The manifest's scenario list is journaled locally as the
   canonical campaign (:meth:`~repro.store.Campaign.create`, seeds
   resolved over the *full* list) and split with the same
   :func:`~repro.store.campaign.partition_scenarios` slicing the
   workers will apply -- so every partition's content keys are exactly
   the single-process campaign's, which is what makes the final store
   byte-identical.
2. **Fan out.**  One ``{"partition": {"index": I, "of": N}}`` campaign
   job per slice is submitted to a healthy worker; per-partition state
   (queued/running/done/merged/failed/lost) is journaled durably in the
   local store (:class:`~repro.coord.journal.CoordJournal`).
3. **Watch.**  Running partitions are polled; a worker that stops
   answering trips its circuit breaker, and a partition whose progress
   stalls past the timeout (or whose job failed/vanished) is marked
   lost and resubmitted to a healthy worker, up to a bounded attempt
   budget.
4. **Stream-merge.**  The moment a partition's remote job is done, its
   result pages are fetched (raw store rows: exact canonical bytes and
   provenance) and imported with the same first-writer-wins /
   divergent-bytes-refuse semantics as ``store merge`` -- results are
   queryable in the local store while other partitions still run, and
   a killed coordinator ``resume()``s with zero re-fetch of merged
   partitions.

The coordinator is deliberately synchronous and single-threaded: one
:meth:`Coordinator.step` pass polls, merges and (re)submits, and
:meth:`Coordinator.run` just loops it -- which keeps every transition
serialised through the journal and makes the tests deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, CoordinationError
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.obs.trace import event, span
from repro.coord.journal import CoordJournal, CoordRun, PartitionState
from repro.scenario import Scenario
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.store.campaign import (
    Campaign,
    CampaignStatus,
    partition_name,
    partition_slices,
)
from repro.store.db import ResultStore
from repro.store.merge import import_raw_rows
from repro.system.stochastic import manifest_name, manifest_scenarios

#: How often the run loop takes a step when nothing finished yet.
DEFAULT_POLL_INTERVAL_S = 0.5

#: A running partition whose store-derived progress count has not moved
#: for this long is declared lost (covers hung workers *and* jobs
#: queued on a worker whose pool died).
DEFAULT_STALL_TIMEOUT_S = 60.0

#: Submission budget per partition (first attempt included).
DEFAULT_MAX_ATTEMPTS = 3

#: Consecutive unreachable-errors before a worker's breaker opens, and
#: how long it stays open before a half-open retry.
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN_S = 10.0

#: Result rows fetched (and merged) per HTTP page.
DEFAULT_PAGE_SIZE = 200

_LOG = get_logger("repro.coord")

_PARTITIONS = _obs_metrics().counter(
    "repro_coord_partitions_total",
    "Coordinator partition state transitions",
    ("state",),
)
_RETRIES = _obs_metrics().counter(
    "repro_coord_retries_total",
    "Partition losses by reason (each one feeds a resubmission)",
    ("reason",),
)
_MERGED_ROWS = _obs_metrics().gauge(
    "repro_coord_rows_merged",
    "Result rows stream-merged into the coordinator's store so far",
)


class _Worker:
    """One worker endpoint plus its circuit-breaker state."""

    def __init__(self, url: str, client: ServiceClient):
        self.url = url
        self.client = client
        self.failures = 0
        self.open_until = 0.0  # monotonic

    def healthy(self, now: float) -> bool:
        return self.open_until <= now

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = 0.0

    def record_failure(
        self, now: float, threshold: int, cooldown_s: float
    ) -> bool:
        """Count one unreachable-error; returns ``True`` if the breaker
        is (now) open."""
        self.failures += 1
        if self.failures >= threshold:
            self.open_until = now + cooldown_s
            return True
        return False


@dataclass(frozen=True)
class CoordStatus:
    """Snapshot of one coordinated campaign (journal + local rows)."""

    name: str
    partitions: int
    states: Tuple[PartitionState, ...]
    campaign: Optional[CampaignStatus]

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for state in self.states:
            out[state.state] = out.get(state.state, 0) + 1
        return out

    @property
    def merged(self) -> int:
        return self.counts.get("merged", 0)

    @property
    def complete(self) -> bool:
        return self.merged >= self.partitions

    def summary(self) -> str:
        """Multi-line human-readable report."""
        counts = self.counts
        rest = ", ".join(
            f"{state} {count}"
            for state, count in sorted(counts.items())
            if state != "merged" and count
        )
        lines = [
            f"coordinated campaign {self.name}: "
            f"{self.merged}/{self.partitions} partition(s) merged"
            + (f" ({rest})" if rest else "")
        ]
        if self.campaign is not None:
            lines.append(f"rows: {self.campaign.summary()}")
        lines.extend(f"  {state.summary()}" for state in self.states)
        return "\n".join(lines)


def coord_names(store: ResultStore) -> List[str]:
    """Every coordinated campaign journaled in ``store``, sorted."""
    return CoordJournal(store).names()


def coord_status(store: ResultStore, name: str) -> CoordStatus:
    """Journal-derived status of one coordinated campaign.

    Works with nothing but the local store -- no workers, no manifest
    -- which is what ``repro-wsn coord status`` runs.  Row progress
    comes from the local campaign journal, so a streaming merge is
    visible here while other partitions are still running remotely.
    """
    journal = CoordJournal(store)
    run = journal.get(name)
    if run is None:
        known = ", ".join(journal.names()) or "(none)"
        raise ConfigError(
            f"unknown coordinated campaign {name!r} in {store.path} "
            f"(known: {known})"
        )
    try:
        campaign_state: Optional[CampaignStatus] = Campaign(
            store, name
        ).status()
    except ConfigError:
        campaign_state = None
    return CoordStatus(
        name=name,
        partitions=run.partitions,
        states=tuple(journal.partitions(name)),
        campaign=campaign_state,
    )


def check_coordination(
    manifest: dict,
    workers: List[str],
    name: Optional[str] = None,
    partitions: Optional[int] = None,
    stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Tuple[List[str], List[Scenario], str, List[Tuple[int, int]]]:
    """Every store-free check of a coordinated run (worker URLs,
    manifest, name, partition count, stall timeout, attempt budget);
    returns ``(worker_urls, scenarios, name, slices)``.  ``coord run``
    calls it before opening ``--store``, so a refused run creates no
    store.
    """
    if max_attempts < 1:
        raise ConfigError("max_attempts must be >= 1")
    if stall_timeout_s <= 0:
        raise ConfigError("stall timeout must be positive")
    worker_urls = [str(url).rstrip("/") for url in workers if str(url).strip()]
    if not worker_urls:
        raise ConfigError("the coordinator needs at least one worker URL")
    if len(set(worker_urls)) != len(worker_urls):
        raise ConfigError("worker URLs must be distinct")
    if not isinstance(manifest, dict):
        raise ConfigError("the campaign manifest must be a JSON object")
    if manifest.get("partition") is not None:
        raise ConfigError(
            "the manifest must not carry its own partition request; "
            "the coordinator assigns partitions"
        )
    scenarios = manifest_scenarios(manifest)
    name = str(name or manifest_name(manifest) or "")
    if not name:
        raise ConfigError(
            "the coordinated campaign needs a name (pass name=... or "
            "put one in the manifest)"
        )
    if partitions is None:
        partitions = min(len(worker_urls), len(scenarios))
    # Validates 1 <= partitions <= len(scenarios), same as the workers
    # will, and pins down each slice's journal span.
    slices = partition_slices(len(scenarios), int(partitions))
    return worker_urls, scenarios, name, slices


class Coordinator:
    """Drive one campaign manifest across remote HTTP workers.

    Parameters
    ----------
    store:
        The local canonical store: campaign journal, coordination
        journal and every stream-merged result row land here.
    manifest:
        A campaign manifest (anything
        :func:`~repro.system.stochastic.manifest_scenarios` accepts).
    workers:
        Base URLs of ``repro-wsn serve`` processes.
    name:
        Campaign name; defaults to
        :func:`~repro.system.stochastic.manifest_name`, and must resolve
        non-empty.
    partitions:
        Slice count; defaults to ``min(len(workers), len(scenarios))``.
    token:
        Bearer token for the workers (one shared secret).
    deadline_s:
        Optional wall-clock budget for :meth:`run`; ``None`` waits
        as long as it takes (workers may come back).
    client_factory:
        Injection point for the tests: ``factory(url) -> ServiceClient``.
    """

    def __init__(
        self,
        store: ResultStore,
        manifest: dict,
        workers: List[str],
        name: Optional[str] = None,
        partitions: Optional[int] = None,
        token: Optional[str] = None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        page_size: int = DEFAULT_PAGE_SIZE,
        deadline_s: Optional[float] = None,
        client_factory: Optional[Callable[[str], ServiceClient]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        worker_urls, scenarios, self.name, self._slices = check_coordination(
            manifest, workers, name, partitions, stall_timeout_s, max_attempts
        )

        self.store = store
        self.manifest = dict(manifest)
        self.partitions = len(self._slices)

        self.poll_interval_s = float(poll_interval_s)
        self.stall_timeout_s = float(stall_timeout_s)
        self.max_attempts = int(max_attempts)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.page_size = int(page_size)
        self.deadline_s = deadline_s
        self._sleep = sleep

        if client_factory is None:
            def client_factory(url: str) -> ServiceClient:
                # Fail fast: the coordinator owns retry policy at the
                # partition level; one quick transport retry only.
                return ServiceClient(url, token=token, retries=1,
                                     backoff_s=0.2)

        self._workers: Dict[str, _Worker] = {
            url: _Worker(url, client_factory(url)) for url in worker_urls
        }

        # The canonical campaign journal: same seed resolution as
        # partition_scenarios, so partition keys == single-run keys.
        self.campaign = Campaign.create(
            store,
            self.name,
            scenarios,
            source="coordinator",
            exist_ok=True,
        )
        self._keys = store.campaign_keys(self.name)
        self.journal = CoordJournal(store)
        created = self.journal.create(self.name, self.manifest, self.partitions)
        self._resumed = not created
        # In-memory stall tracking: remote done-count and when it last
        # moved (monotonic).  Resets on restart; the stall clock simply
        # starts over.
        self._progress: Dict[int, Tuple[int, float]] = {}

    # -- status ------------------------------------------------------------------

    def status(self) -> CoordStatus:
        """Journal + local-row snapshot (what ``coord status`` prints)."""
        return CoordStatus(
            name=self.name,
            partitions=self.partitions,
            states=tuple(self.journal.partitions(self.name)),
            campaign=self.campaign.status(),
        )

    def partition_keys(self, index: int) -> List[str]:
        """Content keys of partition ``index`` (1-based), journal order."""
        start, stop = self._slices[index - 1]
        return self._keys[start:stop]

    # -- driving -----------------------------------------------------------------

    def run(self) -> CoordStatus:
        """Loop :meth:`step` until every partition is merged.

        Raises :class:`CoordinationError` when partitions fail
        terminally (attempt budget exhausted) or the optional deadline
        passes first.  Everything merged so far stays durable either
        way; ``resume()`` continues from the journal.
        """
        started = time.monotonic()
        with span(
            "coord.run", campaign=self.name, partitions=self.partitions
        ) as sp:
            while True:
                status = self.step()
                counts = status.counts
                if status.complete:
                    break
                if counts.get("merged", 0) + counts.get("failed", 0) >= (
                    self.partitions
                ):
                    raise CoordinationError(
                        f"coordinated campaign {self.name}: "
                        f"{counts.get('failed', 0)} partition(s) failed "
                        f"after {self.max_attempts} attempt(s) each; "
                        f"{counts.get('merged', 0)} merged"
                    )
                if (
                    self.deadline_s is not None
                    and time.monotonic() - started > self.deadline_s
                ):
                    raise CoordinationError(
                        f"coordinated campaign {self.name} missed its "
                        f"{self.deadline_s:g} s deadline with partitions "
                        f"still unmerged "
                        f"({', '.join(f'{k} {v}' for k, v in sorted(counts.items()))})"
                    )
                self._sleep(self.poll_interval_s)
            sp.annotate(merged=status.merged)
        _LOG.info(
            "campaign %s complete: %d partition(s) merged",
            self.name, status.merged,
        )
        return status

    def resume(self) -> CoordStatus:
        """Continue from the journal: merged partitions are never
        re-fetched, running ones are re-polled, lost ones resubmitted."""
        return self.run()

    def step(self) -> CoordStatus:
        """One synchronous coordinator pass.

        Polls running partitions, stream-merges finished ones, then
        (re)submits whatever is queued or lost to healthy workers.
        Deterministic and re-entrant: every transition is journaled
        before the next is attempted.
        """
        now = time.monotonic()
        for part in self.journal.partitions(self.name):
            if part.state == "running":
                self._poll_partition(part, now)
        for part in self.journal.partitions(self.name):
            if part.state == "done":
                self._fetch_and_merge(part, now)
        for part in self.journal.partitions(self.name):
            if part.state in ("queued", "lost"):
                self._submit_partition(part, now)
        return self.status()

    # -- transitions -------------------------------------------------------------

    def _transition(self, part: PartitionState, state: str, **fields) -> None:
        self.journal.update(self.name, part.index, state, **fields)
        if _OBS.metrics_on:
            _PARTITIONS.inc(state=state)

    def _mark_lost(self, part: PartitionState, reason: str, detail: str) -> None:
        _LOG.warning(
            "campaign %s partition %d lost (%s): %s",
            self.name, part.index, reason, detail,
        )
        self._transition(part, "lost", error=f"{reason}: {detail}")
        if _OBS.metrics_on:
            _RETRIES.inc(reason=reason)
        event(
            "coord.lost",
            campaign=self.name,
            partition=part.index,
            reason=reason,
        )
        self._progress.pop(part.index, None)

    def _worker_failed(self, worker: _Worker, now: float, detail: str) -> bool:
        opened = worker.record_failure(
            now, self.breaker_threshold, self.breaker_cooldown_s
        )
        if opened:
            _LOG.warning(
                "worker %s unreachable %d time(s); breaker open for %g s (%s)",
                worker.url, worker.failures, self.breaker_cooldown_s, detail,
            )
        return opened

    def _healthy_workers(self, now: float) -> List[_Worker]:
        return [w for w in self._workers.values() if w.healthy(now)]

    def _pick_worker(self, now: float) -> Optional[_Worker]:
        """The healthy worker with the fewest in-flight partitions."""
        healthy = self._healthy_workers(now)
        if not healthy:
            return None
        in_flight: Dict[str, int] = {w.url: 0 for w in healthy}
        for part in self.journal.partitions(self.name):
            if part.state in ("running", "done") and part.worker in in_flight:
                in_flight[part.worker] += 1
        return min(healthy, key=lambda w: (in_flight[w.url], w.url))

    # -- poll --------------------------------------------------------------------

    def _poll_partition(self, part: PartitionState, now: float) -> None:
        worker = self._workers.get(part.worker)
        if worker is None:
            self._mark_lost(
                part, "worker-gone",
                f"{part.worker} is not in this coordinator's worker set",
            )
            return
        if not worker.healthy(now):
            return  # breaker open; re-poll after the cooldown
        with span(
            "coord.poll", campaign=self.name, partition=part.index
        ) as sp:
            try:
                doc = worker.client.job(part.job_id)
            except ServiceUnavailable as exc:
                if self._worker_failed(worker, now, str(exc)):
                    self._mark_lost(part, "worker-dead", str(exc))
                return
            except ServiceError as exc:
                # 404: the worker lost its store (or never had the
                # job); anything else 4xx is equally unrecoverable for
                # this claim.
                self._mark_lost(part, "job-missing", str(exc))
                return
            worker.record_success()
            status = doc.get("status")
            sp.annotate(status=status, done=doc.get("done"))
        if status == "done":
            self._transition(part, "done")
        elif status == "failed":
            self._mark_lost(part, "job-failed", str(doc.get("error")))
        elif status == "cancelled":
            self._mark_lost(part, "job-cancelled", "cancelled on the worker")
        else:  # queued or running on the worker
            done = int(doc.get("done") or 0)
            seen = self._progress.get(part.index)
            if seen is None or done > seen[0]:
                self._progress[part.index] = (done, now)
            elif now - seen[1] > self.stall_timeout_s:
                try:  # best effort: free the claim before resubmitting
                    worker.client.cancel(part.job_id)
                except (ServiceError, ServiceUnavailable):
                    pass
                self._mark_lost(
                    part, "stalled",
                    f"no progress past {done}/{doc.get('total')} for "
                    f"{self.stall_timeout_s:g} s",
                )

    # -- fetch + stream-merge ----------------------------------------------------

    def _fetch_and_merge(self, part: PartitionState, now: float) -> None:
        worker = self._workers.get(part.worker)
        if worker is None:
            self._mark_lost(
                part, "worker-gone",
                f"{part.worker} is not in this coordinator's worker set",
            )
            return
        if not worker.healthy(now):
            return
        merged = 0
        batch: List[tuple] = []

        def _flush() -> None:
            nonlocal merged
            if not batch:
                return
            with span(
                "coord.merge",
                campaign=self.name,
                partition=part.index,
                rows=len(batch),
            ):
                import_raw_rows(self.store, batch, source=worker.url)
            merged += len(batch)
            batch.clear()

        with span(
            "coord.fetch", campaign=self.name, partition=part.index
        ) as sp:
            try:
                for entry in worker.client.iter_results(
                    part.job_id, page_size=self.page_size, raw=True
                ):
                    row = entry.get("row")
                    if row is None:
                        self._mark_lost(
                            part, "rows-missing",
                            f"done job {part.job_id} is missing the row "
                            f"for {entry.get('key')}",
                        )
                        return
                    batch.append(tuple(row))
                    if len(batch) >= self.page_size:
                        _flush()
                _flush()
            except ServiceUnavailable as exc:
                # Stay in 'done': everything imported so far is
                # durable and idempotent; the next step re-fetches.
                self._worker_failed(worker, now, str(exc))
                return
            except ServiceError as exc:
                self._mark_lost(part, "job-missing", str(exc))
                return
            worker.record_success()
            sp.annotate(rows=merged)
        missing = set(self.partition_keys(part.index)) - self.store.have_keys(
            self.partition_keys(part.index)
        )
        if missing:
            self._mark_lost(
                part, "rows-missing",
                f"{len(missing)} journaled key(s) absent after the merge",
            )
            return
        self._transition(part, "merged", rows_merged=merged, error="")
        self._progress.pop(part.index, None)
        if _OBS.metrics_on:
            _MERGED_ROWS.set(self.campaign.status().done)
        event(
            "coord.merged",
            campaign=self.name,
            partition=part.index,
            rows=merged,
            worker=worker.url,
        )
        _LOG.info(
            "campaign %s partition %d merged (%d row(s) from %s)",
            self.name, part.index, merged, worker.url,
        )

    # -- submit ------------------------------------------------------------------

    def _submit_partition(self, part: PartitionState, now: float) -> None:
        if part.attempts >= self.max_attempts:
            self._transition(part, "failed")
            event(
                "coord.failed",
                campaign=self.name,
                partition=part.index,
                attempts=part.attempts,
            )
            return
        if self._resumed and not part.job_id and part.state == "queued":
            # A coordinator killed between submit and journal write may
            # have left the job on some worker; adopt it rather than
            # duplicating the work.
            if self._adopt_existing(part, now):
                return
        worker = self._pick_worker(now)
        if worker is None:
            return  # every breaker is open; wait out a cooldown
        with span(
            "coord.submit",
            campaign=self.name,
            partition=part.index,
            worker=worker.url,
        ) as sp:
            try:
                doc = worker.client.submit(
                    self.manifest,
                    kind="campaign",
                    name=self.name,
                    partition=(part.index, self.partitions),
                )
            except ServiceUnavailable as exc:
                self._worker_failed(worker, now, str(exc))
                return  # stays queued/lost; retried next step
            except ServiceError as exc:
                # The worker *answered* and rejected the manifest: no
                # other worker will accept it either.
                raise CoordinationError(
                    f"worker {worker.url} rejected partition "
                    f"{part.index}/{self.partitions} of campaign "
                    f"{self.name}: {exc}"
                ) from exc
            worker.record_success()
            sp.annotate(job=doc.get("id"))
        self._transition(
            part,
            "running",
            worker=worker.url,
            job_id=str(doc.get("id")),
            bump_attempts=True,
            error="",
        )
        self._progress[part.index] = (0, now)
        event(
            "coord.submit",
            campaign=self.name,
            partition=part.index,
            worker=worker.url,
            job=doc.get("id"),
            attempt=part.attempts + 1,
        )
        _LOG.info(
            "campaign %s partition %d/%d -> %s (job %s, attempt %d)",
            self.name, part.index, self.partitions, worker.url,
            doc.get("id"), part.attempts + 1,
        )

    def _adopt_existing(self, part: PartitionState, now: float) -> bool:
        """Re-attach to a previously submitted partition job, if any."""
        wanted = partition_name(self.name, part.index, self.partitions)
        for worker in self._healthy_workers(now):
            try:
                doc = worker.client.find_job(wanted, kind="campaign")
            except (ServiceError, ServiceUnavailable) as exc:
                self._worker_failed(worker, now, str(exc))
                continue
            worker.record_success()
            if doc is None or doc.get("status") not in (
                "queued", "running", "done",
            ):
                continue
            state = "done" if doc.get("status") == "done" else "running"
            self._transition(
                part,
                state,
                worker=worker.url,
                job_id=str(doc.get("id")),
                bump_attempts=True,
            )
            self._progress[part.index] = (0, now)
            _LOG.info(
                "campaign %s partition %d adopted job %s on %s (%s)",
                self.name, part.index, doc.get("id"), worker.url, state,
            )
            return True
        return False
