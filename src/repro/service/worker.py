"""Async worker pool draining the job queue against the shared store.

A :class:`WorkerPool` runs N worker threads, each looping *claim ->
execute -> finish* against a :class:`~repro.service.jobs.JobQueue`.
Execution is entirely the existing machinery: a campaign or scenario
job runs through :class:`~repro.store.Campaign` (journal + chunked
write-through), a study job through :class:`~repro.core.study.Study` --
so a job's durable progress is the results table itself and a job that
moves between workers (crash, drain, requeue) resumes with **zero**
re-simulation of stored rows.

Threads, not processes, because the unit of parallelism is *inside* a
job: each worker's :class:`~repro.core.batch.BatchRunner` can fan a
chunk out over ``jobs`` processes (or hand a whole batch to the
vectorized backend), while the worker thread itself mostly waits on the
store.  SQLite access is safe -- every (process, thread) pair already
gets its own connection.

Liveness has two layers:

- a **pulse thread** heartbeats every busy claim on a fixed cadence,
  independent of how long a simulation chunk takes, so a healthy
  worker's claim never goes stale;
- the **job-context hook** (``on_chunk``) re-checks the claim at every
  durable chunk boundary, so cancellation (or a claim lost to a
  too-aggressive orphan requeue) stops the job at the next boundary
  without losing stored work.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import replace
from typing import Dict, List, Optional

from repro.errors import ConfigError, ReproError
from repro.obs.logging import get_logger, log_context
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.obs.trace import span
from repro.service.jobs import Job, JobCancelled, JobQueue, _decode_job
from repro.store.db import ResultStore

#: Fallback drain window applied by :meth:`WorkerPool.stop`.
DEFAULT_DRAIN_TIMEOUT_S = 30.0

_LOG = get_logger("repro.service.worker")

_BUSY_WORKERS = _obs_metrics().gauge(
    "repro_workers_busy", "Worker threads currently executing a claim"
)


class DrainRequeue(ReproError):
    """Raised at a chunk boundary when the pool is stopping *without*
    draining: the job goes back to the queue for the next worker."""


def execute_job(
    store: ResultStore,
    job: Job,
    *,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    on_chunk=None,
) -> None:
    """Run one claimed job through the campaign/study machinery.

    Idempotent by construction: re-executing a partially finished job
    (after a crash or requeue) re-creates the same journal
    (``exist_ok`` on identical content) and simulates only what the
    store does not already hold.
    """
    from repro.store.campaign import Campaign

    kind, work, _, _ = _decode_job(job.kind, job.payload)
    if kind == "study":
        from repro.core.study import Study

        study = Study(
            replace(work, name=job.name),
            store=store,
            jobs=jobs,
            chunk_size=chunk_size,
        )
        study.run(on_chunk=on_chunk)
        return
    campaign = Campaign.create(
        store,
        job.name,
        work,
        source=f"job {job.id}",
        exist_ok=True,
    )
    campaign.run(jobs=jobs, chunk_size=chunk_size, on_chunk=on_chunk)


class WorkerPool:
    """N claim->execute->finish loops over one store's job queue.

    Parameters
    ----------
    store:
        The shared :class:`~repro.store.ResultStore` (jobs, journals
        and results all live in this one file).
    workers:
        Worker thread count.
    jobs:
        :class:`~repro.core.batch.BatchRunner` fan-out *inside* each
        job (``1`` = simulate in the worker thread).
    poll_interval:
        Longest idle sleep between claim attempts, seconds.  A
        :meth:`notify` (which :class:`~repro.service.app.ServiceApp`
        sends for every submission) wakes an idle worker at once, so
        this only bounds how late jobs queued by other processes are
        picked up: :meth:`JobQueue.submit` from a script, a second
        ``serve`` on the same store.
    heartbeat_timeout:
        Claims with heartbeats older than this are considered orphaned
        and requeued (each worker sweeps opportunistically); the pulse
        thread refreshes busy claims at a quarter of this cadence.
    chunk_size:
        Passed through to campaign/study execution.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        jobs: int = 1,
        poll_interval: float = 0.5,
        heartbeat_timeout: float = 60.0,
        chunk_size: Optional[int] = None,
    ):
        if workers < 1:
            raise ConfigError("worker pool needs workers >= 1")
        if jobs < 1:
            raise ConfigError("per-job fan-out needs jobs >= 1")
        if poll_interval <= 0.0:
            raise ConfigError("poll interval must be positive")
        if heartbeat_timeout <= 0.0:
            raise ConfigError("heartbeat timeout must be positive")
        self.store = store
        self.queue = JobQueue(store)
        self.workers = int(workers)
        self.jobs = int(jobs)
        self.poll_interval = float(poll_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.chunk_size = chunk_size
        prefix = f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._ids = [f"{prefix}/w{i}" for i in range(self.workers)]
        self._threads: List[threading.Thread] = []
        self._pulse: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Wake-ups: ``notify`` bumps the counter; a worker sleeps only
        # if it is unchanged since before its last (empty) claim.
        self._wake = threading.Condition()
        self._wakes = 0
        self._requeue_on_stop = threading.Event()
        self._once = False
        self._lock = threading.Lock()
        self._alive: Dict[str, float] = {}
        self._busy: Dict[str, Optional[str]] = {}
        self._last_sweep = 0.0
        self.processed = 0
        self.failed = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker loops (and the claim pulse)."""
        if self._threads:
            raise ConfigError("worker pool is already started")
        self._stop.clear()
        self._requeue_on_stop.clear()
        for worker_id in self._ids:
            thread = threading.Thread(
                target=self._loop, args=(worker_id,), daemon=True,
                name=f"repro-{worker_id}",
            )
            self._threads.append(thread)
            thread.start()
        self._pulse = threading.Thread(
            target=self._pulse_loop, daemon=True, name="repro-pulse"
        )
        self._pulse.start()

    def stop(
        self,
        drain: bool = True,
        timeout: Optional[float] = DEFAULT_DRAIN_TIMEOUT_S,
    ) -> bool:
        """Stop the pool; returns ``True`` when every worker exited.

        ``drain=True`` lets in-flight jobs run to completion (bounded
        by ``timeout``; whatever is still running after the window is
        requeued at its next chunk boundary instead).  ``drain=False``
        requeues in-flight jobs at the very next boundary.  Queued jobs
        are untouched either way -- they simply wait for the next
        worker.
        """
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        if not drain:
            self._requeue_on_stop.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.0)
            )
            thread.join(timeout=remaining)
        if any(t.is_alive() for t in self._threads):
            # Out of patience: flip the stragglers to requeue-at-boundary.
            self._requeue_on_stop.set()
            for thread in self._threads:
                thread.join(timeout=1.0)
        stopped = not any(t.is_alive() for t in self._threads)
        if stopped:
            self._threads = []
            if self._pulse is not None:
                self._pulse.join(timeout=2.0)
                self._pulse = None
        return stopped

    def run_once(self, requeue_orphans: bool = True) -> int:
        """Drain the queue and return: the cron-style ``--once`` mode.

        Sweeps orphaned claims first, then processes jobs until no
        queued work remains, and stops.  Returns how many jobs this
        call completed (done or failed).
        """
        if requeue_orphans:
            self.queue.requeue_orphans(self.heartbeat_timeout)
        before = self.processed + self.failed
        self._once = True
        try:
            self.start()
            for thread in self._threads:
                thread.join()
            self._stop.set()
            self._threads = []
            if self._pulse is not None:
                self._pulse.join(timeout=2.0)
                self._pulse = None
        finally:
            self._once = False
            self._stop.clear()
        return (self.processed + self.failed) - before

    def notify(self) -> None:
        """Wake one idle worker: a job was just queued.

        Call it after the job row has committed.  No wake-up is lost: a
        worker whose claim found the queue empty skips its sleep if any
        notify arrived since just before that claim, and a notify during
        the sleep ends it.
        """
        with self._wake:
            self._wakes += 1
            self._wake.notify()

    # -- introspection -----------------------------------------------------------

    def worker_states(self) -> List[dict]:
        """Liveness snapshot: one entry per worker (the metrics feed)."""
        now = time.time()
        with self._lock:
            return [
                {
                    "id": worker_id,
                    "alive": (now - self._alive.get(worker_id, 0.0))
                    < max(4 * self.poll_interval, 5.0)
                    or self._busy.get(worker_id) is not None,
                    "job": self._busy.get(worker_id),
                }
                for worker_id in self._ids
            ]

    # -- loops -------------------------------------------------------------------

    def _loop(self, worker_id: str) -> None:
        while not self._stop.is_set():
            with self._lock:
                self._alive[worker_id] = time.time()
            self._maybe_sweep_orphans()
            with self._wake:
                wakes = self._wakes
            job = self.queue.claim(worker_id)
            if job is None:
                if self._once:
                    return
                with self._wake:
                    if self._wakes == wakes and not self._stop.is_set():
                        self._wake.wait(self.poll_interval)
                continue
            self._run_claim(worker_id, job)

    def _run_claim(self, worker_id: str, job: Job) -> None:
        with self._lock:
            self._busy[worker_id] = job.id
        if _OBS.metrics_on:
            _BUSY_WORKERS.inc()
        _LOG.info(
            "claimed job",
            extra=log_context(job=job.id, kind=job.kind, worker=worker_id),
        )

        def on_chunk(done: int, total: int) -> None:
            if self._requeue_on_stop.is_set():
                raise DrainRequeue(
                    f"pool stopping; job {job.id} returns to the queue"
                )
            self.queue.heartbeat(job.id, worker_id)

        try:
            with span(
                "job.execute", job=job.id, kind=job.kind, worker=worker_id
            ):
                execute_job(
                    self.store,
                    job,
                    jobs=self.jobs,
                    chunk_size=self.chunk_size,
                    on_chunk=on_chunk,
                )
            self.queue.finish(job.id, worker_id)
            with self._lock:
                self.processed += 1
            _LOG.info(
                "finished job", extra=log_context(job=job.id, worker=worker_id)
            )
        except JobCancelled:
            # The row is already cancelled (or owned elsewhere).
            _LOG.info(
                "lost claim", extra=log_context(job=job.id, worker=worker_id)
            )
        except DrainRequeue:
            self.queue.requeue(job.id, worker_id)
            _LOG.info(
                "requeued job (drain)",
                extra=log_context(job=job.id, worker=worker_id),
            )
        except Exception as exc:  # a worker thread must survive anything
            # The library's own errors read as they are; others by type.
            error = (
                str(exc)
                if isinstance(exc, ReproError)
                else f"{type(exc).__name__}: {exc}"
            )
            self.queue.fail(job.id, worker_id, error)
            with self._lock:
                self.failed += 1
            _LOG.warning(
                "job failed: %s",
                error,
                extra=log_context(job=job.id, worker=worker_id),
            )
        finally:
            with self._lock:
                self._busy[worker_id] = None
            if _OBS.metrics_on:
                _BUSY_WORKERS.dec()

    def _maybe_sweep_orphans(self) -> None:
        """Opportunistic orphan requeue, at most twice per timeout."""
        now = time.monotonic()
        with self._lock:
            due = (now - self._last_sweep) >= self.heartbeat_timeout / 2.0
            if due:
                self._last_sweep = now
        if due:
            self.queue.requeue_orphans(self.heartbeat_timeout)

    def _pulse_loop(self) -> None:
        """Refresh every busy claim's heartbeat on a fixed cadence."""
        interval = max(self.heartbeat_timeout / 4.0, 0.05)
        while not self._stop.is_set() or any(
            self._busy.get(w) for w in self._ids
        ):
            with self._lock:
                claims = [
                    (worker_id, job_id)
                    for worker_id, job_id in self._busy.items()
                    if job_id is not None
                ]
            for worker_id, job_id in claims:
                try:
                    self.queue.heartbeat(job_id, worker_id)
                except ReproError:
                    # A lost claim (JobCancelled) stops at its next chunk
                    # boundary; store contention retries on the next pulse.
                    pass
            if self._stop.wait(interval):
                # Stopping: keep pulsing only while claims are in flight.
                if not any(self._busy.get(w) for w in self._ids):
                    return
