"""The worker pool: draining, failure capture, drains and kill-safety.

The centrepiece is the service-layer acceptance property: a worker
SIGKILLed mid-job loses only its *claim* -- after the heartbeat-timeout
requeue, the next worker finishes the job while re-simulating **zero**
of the scenarios the dead worker already wrote through to the store
(counted by an instrumented backend, exactly like the campaign-level
kill test one layer down).
"""

import json
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.backends import EnvelopeBackend, register_backend
from repro.errors import ConfigError, SimulationError
from repro.service import JobQueue, ServiceApp, WorkerPool
from repro.service.http import Request
from repro.service.worker import DrainRequeue, execute_job
from repro.scenario import PartsSpec, Scenario
from repro.store import Campaign, ResultStore
from repro.system.config import SystemConfig
from repro.system.stochastic import named_family


class CountingServiceBackend:
    """Envelope backend that logs (and can crash after) N simulations."""

    name = "counting-service"

    simulated = []
    crash_after = None
    delay_s = 0.0

    def simulate(self, scenario):
        if (
            CountingServiceBackend.crash_after is not None
            and len(CountingServiceBackend.simulated)
            >= CountingServiceBackend.crash_after
        ):
            raise SimulationError("simulated crash (power loss)")
        if CountingServiceBackend.delay_s:
            time.sleep(CountingServiceBackend.delay_s)
        CountingServiceBackend.simulated.append(scenario.cache_key())
        return EnvelopeBackend().simulate(replace(scenario, backend="envelope"))


register_backend("counting-service", CountingServiceBackend, overwrite=True)


class CancellingBackend:
    """Envelope backend that cancels ``job_id`` on its first call."""

    name = "cancelling-service"

    queue = None
    job_id = None
    calls = 0

    def simulate(self, scenario):
        if CancellingBackend.calls == 0:
            CancellingBackend.queue.cancel(CancellingBackend.job_id)
        CancellingBackend.calls += 1
        return EnvelopeBackend().simulate(replace(scenario, backend="envelope"))


register_backend("cancelling-service", CancellingBackend, overwrite=True)


@pytest.fixture(autouse=True)
def _reset_counting_backend():
    CountingServiceBackend.simulated = []
    CountingServiceBackend.crash_after = None
    CountingServiceBackend.delay_s = 0.0
    yield
    CountingServiceBackend.simulated = []
    CountingServiceBackend.crash_after = None
    CountingServiceBackend.delay_s = 0.0


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "worker.db")


@pytest.fixture
def queue(store):
    return JobQueue(store)


def _manifest(n=2, seed=3, horizon=60.0, backend="counting-service"):
    family = replace(
        named_family("factory-floor"), horizon=horizon, backend=backend
    )
    return family.manifest(n=n, seed=seed)


def _scenario_payload(seed=0, backend="counting-service"):
    return Scenario(
        config=SystemConfig(tx_interval_s=2.0),
        parts=PartsSpec(v_init=2.85),
        horizon=60.0,
        seed=seed,
        backend=backend,
        name=f"svc-{seed}",
    ).to_dict()


def _post_job(app, payload):
    """POST one job through the app's dispatch; returns its id."""
    response = app.dispatch(
        Request(
            method="POST",
            path="/v1/jobs",
            query={},
            headers={},
            body=json.dumps(payload).encode(),
            client="tester",
        )
    )
    assert response.status == 201, response.payload
    return response.payload["id"]


def _idle_waiter(pool):
    """Wrap the pool's claims; returns ``wait()``, which blocks until
    every worker's latest claim found the queue empty (so each is in,
    or just entering, its idle wait)."""
    idle = {}
    claim = pool.queue.claim

    def tracked(worker):
        job = claim(worker)
        idle[worker] = job is None
        return job

    pool.queue.claim = tracked

    def wait(timeout=5.0):
        deadline = time.monotonic() + timeout
        while len(idle) < pool.workers or not all(idle.values()):
            assert time.monotonic() < deadline, "workers never went idle"
            time.sleep(0.02)
        time.sleep(0.1)

    return wait


def _backdate_heartbeat(store, job_id, by_s=3600.0):
    conn = store._conn()
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        "UPDATE jobs SET heartbeat_unix = heartbeat_unix - ? WHERE id=?",
        (by_s, job_id),
    )
    conn.execute("COMMIT")


# -- construction --------------------------------------------------------------


def test_pool_validates_parameters(store):
    with pytest.raises(ConfigError):
        WorkerPool(store, workers=0)
    with pytest.raises(ConfigError):
        WorkerPool(store, jobs=0)
    with pytest.raises(ConfigError):
        WorkerPool(store, poll_interval=0.0)
    with pytest.raises(ConfigError):
        WorkerPool(store, heartbeat_timeout=0.0)


# -- run_once ------------------------------------------------------------------


def test_run_once_drains_mixed_queue(store, queue):
    campaign_id = queue.submit(_manifest(n=2, seed=3)).id
    scenario_id = queue.submit(_scenario_payload(seed=9)).id
    pool = WorkerPool(store, workers=2, poll_interval=0.05)
    assert pool.run_once() == 2
    assert queue.get(campaign_id).status == "done"
    assert queue.get(scenario_id).status == "done"
    assert len(store) == 3  # two family scenarios + the one-off
    assert len(CountingServiceBackend.simulated) == 3
    # Campaign jobs journal under the job name and are fully stored.
    assert Campaign(store, "factory-floor-n2-s3").status().complete


def test_run_once_on_empty_queue_returns_zero(store):
    assert WorkerPool(store, workers=1, poll_interval=0.05).run_once() == 0


def test_rerunning_a_done_jobs_payload_simulates_nothing(store, queue):
    job_id = queue.submit(_manifest(n=2, seed=3)).id
    pool = WorkerPool(store, workers=1, poll_interval=0.05)
    assert pool.run_once() == 1
    first = len(CountingServiceBackend.simulated)
    # Same manifest resubmitted: the campaign journal and every result
    # are already in the store, so the second job costs zero sims.
    queue.submit(_manifest(n=2, seed=3))
    assert pool.run_once() == 1
    assert len(CountingServiceBackend.simulated) == first
    assert queue.get(job_id).status == "done"


def test_failed_job_records_backend_error(store, queue):
    CountingServiceBackend.crash_after = 0
    job_id = queue.submit(_scenario_payload()).id
    pool = WorkerPool(store, workers=1, poll_interval=0.05)
    assert pool.run_once() == 1
    job = queue.get(job_id)
    assert job.status == "failed"
    assert "simulated crash" in job.error
    assert pool.failed == 1 and pool.processed == 0


def test_study_job_runs_through_study_machinery(store, queue):
    from repro.core.study import paper_study_spec

    spec = replace(
        paper_study_spec(), name="ignored", seed=3, horizon=600.0
    )
    job_id = queue.submit(spec.to_dict(), name="svc-study").id
    pool = WorkerPool(store, workers=1, poll_interval=0.05)
    assert pool.run_once() == 1
    job = queue.get(job_id)
    assert job.status == "done"
    # The study journaled under the *job* name, and progress derives
    # from that journal.
    row = store.get_study("svc-study")
    assert row is not None
    assert JobQueue(store).progress(job) == (row.total, row.total)


# -- lifecycle -----------------------------------------------------------------


def test_start_stop_drains_inflight_work(store, queue):
    job_id = queue.submit(_manifest(n=2, seed=3)).id
    pool = WorkerPool(store, workers=1, poll_interval=0.05)
    pool.start()
    with pytest.raises(ConfigError):
        pool.start()  # double start is a usage error
    deadline = time.monotonic() + 30.0
    while queue.get(job_id).status != "done":
        assert time.monotonic() < deadline, "job never finished"
        time.sleep(0.05)
    assert pool.stop(drain=True, timeout=10.0)
    assert pool.processed == 1
    # The pool can be started again after a clean stop.
    pool.start()
    assert pool.stop()


def test_stop_without_drain_requeues_at_chunk_boundary(store, queue):
    job_id = queue.submit(_manifest(n=4, seed=3)).id
    pool = WorkerPool(store, workers=1, poll_interval=0.05, chunk_size=1)
    worker_id = pool._ids[0]
    job = pool.queue.claim(worker_id)
    # Flip the pool into stopping-without-drain before "running" the
    # claim: the job-context hook fires DrainRequeue at the very first
    # chunk boundary and the job goes back to the queue untouched.
    pool._requeue_on_stop.set()
    pool._run_claim(worker_id, job)
    requeued = queue.get(job_id)
    assert requeued.status == "queued"
    assert requeued.worker is None
    assert CountingServiceBackend.simulated == []  # nothing ran


def test_pulse_keeps_slow_chunks_alive(store, queue):
    """A single chunk far longer than the heartbeat timeout must not be
    stolen by the orphan sweeper while its worker is still healthy."""
    CountingServiceBackend.delay_s = 0.2
    job_id = queue.submit(_manifest(n=4, seed=3)).id
    pool = WorkerPool(
        store,
        workers=1,
        poll_interval=0.05,
        heartbeat_timeout=0.4,  # pulse cadence 0.1 s << 0.8 s chunk
        chunk_size=4,
    )
    assert pool.run_once() == 1
    job = queue.get(job_id)
    assert job.status == "done"
    assert job.attempts == 1  # never requeued from under the worker
    assert len(CountingServiceBackend.simulated) == 4


def test_worker_states_snapshot(store):
    pool = WorkerPool(store, workers=2, poll_interval=0.05)
    states = pool.worker_states()
    assert len(states) == 2
    assert all(not s["alive"] and s["job"] is None for s in states)
    pool.start()
    try:
        deadline = time.monotonic() + 5.0
        while not all(s["alive"] for s in pool.worker_states()):
            assert time.monotonic() < deadline, "workers never reported in"
            time.sleep(0.02)
    finally:
        assert pool.stop()


# -- wake-ups -------------------------------------------------------------------


def test_submit_wakes_idle_worker_and_stop_interrupts_wait(store, queue):
    """A job POSTed through the app is claimed at once, not at the next
    poll; stopping an idle pool does not wait out the poll either."""
    pool = WorkerPool(store, workers=1, poll_interval=30.0)
    app = ServiceApp(store, pool=pool, telemetry=False)
    wait_idle = _idle_waiter(pool)
    pool.start()
    try:
        wait_idle()
        job_id = _post_job(app, _scenario_payload(seed=4))
        deadline = time.monotonic() + 5.0
        while queue.get(job_id).status != "done":
            assert time.monotonic() < deadline, "idle worker was not woken"
            time.sleep(0.02)
        wait_idle()
    finally:
        started = time.monotonic()
        assert pool.stop(timeout=10.0)
    assert time.monotonic() - started < 2.0


def test_notify_between_empty_claim_and_sleep_is_not_lost(store, queue):
    """The lost-wake-up window, forced: a job commits and notifies after
    a worker's claim found the queue empty but before the worker sleeps.
    The worker must still claim it at once, not after the 60 s poll."""
    pool = WorkerPool(store, workers=1, poll_interval=60.0)
    claim = pool.queue.claim
    injected = []

    def racing_claim(worker):
        job = claim(worker)
        if job is None and not injected:
            injected.append(queue.submit(_scenario_payload(seed=6)).id)
            pool.notify()
        return job

    pool.queue.claim = racing_claim
    pool.start()
    try:
        deadline = time.monotonic() + 5.0
        while not injected or queue.get(injected[0]).status != "done":
            assert time.monotonic() < deadline, "the wake-up was lost"
            time.sleep(0.02)
    finally:
        assert pool.stop(timeout=10.0)


def test_concurrent_submits_lose_no_wakeup(store, queue):
    """Stress the wake-up handshake: 8 workers, 4 submitters racing 40
    jobs under a tiny GIL switch interval.  A lost wake-up strands a job
    for the 60 s poll; every job must finish on its first claim within
    30 s."""
    pool = WorkerPool(store, workers=8, poll_interval=60.0)
    app = ServiceApp(store, pool=pool, telemetry=False)
    job_ids = []
    ids_lock = threading.Lock()
    errors = []

    def submitter(first_seed):
        try:
            for seed in range(first_seed, first_seed + 10):
                job_id = _post_job(app, _scenario_payload(seed=seed))
                with ids_lock:
                    job_ids.append(job_id)
                time.sleep(0.005)  # let the pool fall idle between jobs
        except Exception as exc:  # surfaced by the main thread
            errors.append(exc)

    wait_idle = _idle_waiter(pool)
    interval = sys.getswitchinterval()
    pool.start()
    try:
        wait_idle()
        sys.setswitchinterval(1e-6)
        submitters = [
            threading.Thread(target=submitter, args=(100 + 10 * i,))
            for i in range(4)
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "submitter hung"
        assert errors == []
        assert len(job_ids) == 40
        deadline = time.monotonic() + 30.0
        while queue.count(status="done") < 40:
            assert time.monotonic() < deadline, (
                f"stranded jobs: {queue.counts()}"
            )
            time.sleep(0.05)
    finally:
        sys.setswitchinterval(interval)
        assert pool.stop(timeout=30.0), "a worker did not exit"
    assert all(queue.get(job_id).attempts == 1 for job_id in job_ids)
    assert pool.processed == 40 and pool.failed == 0


# -- the acceptance property ---------------------------------------------------


def test_killed_worker_job_resumes_with_zero_resimulation(store, queue):
    """SIGKILL-equivalent: a worker dies mid-job; after the heartbeat
    timeout the job requeues and the next worker simulates only what the
    store does not already hold."""
    job_id = queue.submit(_manifest(n=8, seed=3)).id

    # A "worker" claims the job and dies mid-run: the backend crashes
    # after 4 simulations (mid-campaign, chunked so some work is
    # durable), and the process never gets to fail/requeue its claim --
    # exactly what SIGKILL leaves behind.
    dead = queue.claim("dead-worker")
    CountingServiceBackend.crash_after = 4
    with pytest.raises(SimulationError):
        execute_job(store, dead, jobs=1, chunk_size=2)
    assert queue.get(job_id).status == "running"  # the orphaned claim
    stored_before = set(store.keys())
    assert 0 < len(stored_before) < 8  # durable chunks survived the kill
    # Progress is derived from the store, so it is accurate even while
    # the claim is orphaned: exactly the stored rows count as done.
    assert queue.progress(queue.get(job_id)) == (len(stored_before), 8)

    # Heartbeats go stale; the sweep releases the claim.
    CountingServiceBackend.crash_after = None
    CountingServiceBackend.simulated = []
    _backdate_heartbeat(store, job_id)
    assert queue.requeue_orphans(60.0) == 1

    # A healthy pool picks the job up and finishes it.
    pool = WorkerPool(store, workers=1, poll_interval=0.05)
    assert pool.run_once(requeue_orphans=False) == 1

    job = queue.get(job_id)
    assert job.status == "done"
    assert job.attempts == 2  # dead worker + successor
    resimulated = set(CountingServiceBackend.simulated) & stored_before
    assert resimulated == set()  # zero re-simulation of stored rows
    assert len(CountingServiceBackend.simulated) == 8 - len(stored_before)
    assert len(store) == 8
    assert Campaign(store, job.name).status().complete


def test_job_cancelled_mid_run_stops_at_the_next_chunk(store, queue):
    job = queue.submit(_manifest(n=4, backend="cancelling-service"))
    CancellingBackend.queue, CancellingBackend.job_id = queue, job.id
    CancellingBackend.calls = 0
    pool = WorkerPool(store, workers=1, poll_interval=0.05, chunk_size=2)
    assert pool.run_once() == 0
    # The first chunk ran and stayed stored; the second never started.
    assert CancellingBackend.calls == 2
    assert queue.progress(queue.get(job.id)) == (2, 4)
    assert queue.get(job.id).status == "cancelled"
    assert (pool.processed, pool.failed) == (0, 0)
