"""The distributed coordinator against real in-process workers.

The acceptance properties under test:

- the final local store is **byte-identical** to a single-process
  ``Campaign.run()`` of the same manifest (rows and campaign journal);
- merge is **streaming**: a finished partition's rows are queryable in
  the local store while other partitions are still queued/running;
- a dead worker's partition is detected, resubmitted to a survivor,
  and the result still byte-identical;
- ``resume()`` of a completed (or killed) run re-fetches **nothing**
  already merged.
"""

import time
from dataclasses import replace

import pytest

from repro.coord import CoordJournal, Coordinator, coord_names, coord_status
from repro.errors import ConfigError, CoordinationError
from repro.service import (
    ServiceApp,
    ServiceClient,
    ServiceServer,
    WorkerPool,
)
from repro.store import Campaign, ResultStore
from repro.system.stochastic import manifest_scenarios, named_family


def _manifest(n=4, seed=3, horizon=120.0):
    family = replace(
        named_family("factory-floor"), horizon=horizon, backend="envelope"
    )
    return family.manifest(n=n, seed=seed)


class _Worker:
    """One in-process serve stack: store + pool + HTTP server."""

    def __init__(self, tmp_path, tag, pool_workers=1):
        self.store = ResultStore(tmp_path / f"worker-{tag}.db")
        self.pool = None
        if pool_workers:
            self.pool = WorkerPool(
                self.store, workers=pool_workers, poll_interval=0.05
            )
            self.pool.start()
        self.server = ServiceServer(ServiceApp(self.store, pool=self.pool))
        self.server.start()
        self.url = self.server.url

    def stop(self):
        self.server.shutdown()
        if self.pool is not None:
            self.pool.stop(drain=False, timeout=5)


@pytest.fixture
def local(tmp_path):
    return ResultStore(tmp_path / "local.db")


def _workers(tmp_path, request, specs):
    out = []
    for tag, pool_workers in specs:
        worker = _Worker(tmp_path, tag, pool_workers=pool_workers)
        request.addfinalizer(worker.stop)
        out.append(worker)
    return out


def _reference_store(tmp_path, manifest, name):
    store = ResultStore(tmp_path / "reference.db")
    Campaign.create(store, name, manifest_scenarios(manifest)).run(jobs=1)
    return store


def _assert_stores_identical(local, reference, name):
    """Rows AND campaign journal, compared on canonical bytes."""
    assert set(local.keys()) == set(reference.keys())
    for key in reference.keys():
        assert local.get_payload_text(key) == reference.get_payload_text(key)
        assert local.get_scenario(key) == reference.get_scenario(key)
    assert local.campaign_rows(name) == reference.campaign_rows(name)


# -- construction --------------------------------------------------------------


def test_validates_workers_and_manifest(local):
    with pytest.raises(ConfigError, match="at least one worker"):
        Coordinator(local, _manifest(), [])
    with pytest.raises(ConfigError, match="distinct"):
        Coordinator(local, _manifest(), ["http://a", "http://a/"])
    with pytest.raises(ConfigError, match="partition"):
        Coordinator(
            local, {**_manifest(), "partition": 1}, ["http://a"]
        )
    with pytest.raises(ConfigError, match="max_attempts"):
        Coordinator(local, _manifest(), ["http://a"], max_attempts=0)


def test_defaults_name_and_partitions(local):
    coord = Coordinator(
        local, _manifest(n=4, seed=3), ["http://a", "http://b", "http://c"]
    )
    assert coord.name == "factory-floor-n4-s3"  # queue's own derivation
    assert coord.partitions == 3  # min(workers, scenarios)
    # The canonical campaign is journaled up front, full-list seeds.
    assert Campaign(local, coord.name).status().total == 4


def test_partition_count_never_exceeds_scenarios(local):
    coord = Coordinator(
        local, _manifest(n=2), ["http://a", "http://b", "http://c"]
    )
    assert coord.partitions == 2


def test_mismatched_rerun_refuses(local):
    Coordinator(local, _manifest(), ["http://a", "http://b"])
    with pytest.raises(ConfigError, match="different manifest or partition"):
        Coordinator(local, _manifest(), ["http://a"], partitions=1)


# -- the happy path ------------------------------------------------------------


def test_run_merges_byte_identical_to_direct_run(tmp_path, request, local):
    workers = _workers(tmp_path, request, [("a", 1), ("b", 1)])
    manifest = _manifest(n=4, seed=3)
    coord = Coordinator(
        local, manifest, [w.url for w in workers], poll_interval_s=0.05
    )
    status = coord.run()
    assert status.complete and status.merged == 2
    assert status.campaign.done == 4
    parts = status.states
    assert all(p.state == "merged" and p.attempts == 1 for p in parts)
    assert {p.worker for p in parts} == {w.url for w in workers}  # spread
    assert sum(p.rows_merged for p in parts) == 4
    reference = _reference_store(tmp_path, manifest, coord.name)
    _assert_stores_identical(local, reference, coord.name)


def test_streaming_merge_rows_queryable_before_completion(
    tmp_path, request, local
):
    # Worker "b" has no pool: its partition stays queued on the worker,
    # so only one partition can finish -- the point where we assert the
    # merged rows are already queryable locally.
    workers = _workers(tmp_path, request, [("a", 1), ("b", 0)])
    manifest = _manifest(n=4, seed=3)
    coord = Coordinator(
        local,
        manifest,
        [w.url for w in workers],
        poll_interval_s=0.05,
        stall_timeout_s=60.0,
    )
    deadline = time.monotonic() + 60.0
    while True:
        status = coord.step()
        merged = [p for p in status.states if p.state == "merged"]
        if merged:
            break
        assert time.monotonic() < deadline, f"no partition merged: {status}"
        time.sleep(0.05)

    assert not status.complete  # the other partition still pending
    merged_keys = coord.partition_keys(merged[0].index)
    # Streaming: those rows are in the local store and queryable NOW.
    assert local.have_keys(merged_keys) == set(merged_keys)
    assert all(local.get_payload_text(k) is not None for k in merged_keys)
    # ...and visible in coord status (fresh reader, journal-only).
    snapshot = coord_status(local, coord.name)
    assert snapshot.merged == 1 and not snapshot.complete
    assert snapshot.campaign.done == len(merged_keys)

    # Un-wedge worker b and finish; the full store must still be exact.
    workers[1].pool = WorkerPool(
        workers[1].store, workers=1, poll_interval=0.05
    )
    workers[1].pool.start()
    coord.run()
    reference = _reference_store(tmp_path, manifest, coord.name)
    _assert_stores_identical(local, reference, coord.name)


# -- fault injection -----------------------------------------------------------


def test_dead_worker_partition_resubmitted_to_survivor(
    tmp_path, request, local
):
    """Kill a worker mid-campaign: its partition must be detected as
    lost (circuit breaker), resubmitted to the survivor, and the final
    store byte-identical to the single-process run."""
    # "b" never processes its job (no pool), so its partition is still
    # open when the server dies.
    workers = _workers(tmp_path, request, [("a", 1), ("b", 0)])
    manifest = _manifest(n=4, seed=3)
    coord = Coordinator(
        local,
        manifest,
        [w.url for w in workers],
        poll_interval_s=0.05,
        breaker_threshold=1,     # first connection failure opens it
        breaker_cooldown_s=60.0,  # ...and it stays open for the test
    )
    status = coord.step()  # both partitions submitted, one per worker
    by_worker = {p.worker: p for p in status.states}
    assert set(by_worker) == {w.url for w in workers}
    victim = by_worker[workers[1].url]

    workers[1].stop()  # SIGKILL-equivalent: the endpoint vanishes

    deadline = time.monotonic() + 60.0
    while True:
        status = coord.step()
        if status.complete:
            break
        assert time.monotonic() < deadline, f"never recovered: {status}"
        time.sleep(0.05)

    part = status.states[victim.index - 1]
    assert part.state == "merged"
    assert part.worker == workers[0].url  # retried on the survivor
    assert part.attempts == 2
    reference = _reference_store(tmp_path, manifest, coord.name)
    _assert_stores_identical(local, reference, coord.name)


def test_all_workers_dead_hits_the_deadline(tmp_path, local):
    coord = Coordinator(
        local,
        _manifest(n=2),
        ["http://127.0.0.1:1", "http://127.0.0.1:2"],  # nothing listens
        poll_interval_s=0.01,
        breaker_threshold=1,
        breaker_cooldown_s=0.01,
        max_attempts=2,
        deadline_s=0.2,
        client_factory=lambda url: ServiceClient(
            url, retries=0, sleep=lambda s: None
        ),
    )
    with pytest.raises(CoordinationError, match="deadline"):
        coord.run()
    # Nothing merged, nothing failed terminally -- resumable later.
    assert coord_status(local, coord.name).merged == 0


def test_worker_rejecting_the_manifest_is_terminal(local):
    """A worker that *answers* 400 means no worker will take the job;
    the coordinator must fail loudly instead of spinning retries."""
    import json as _json
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Reject(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            body = _json.dumps(
                {"error": "manifest carries no scenarios", "status": 400}
            ).encode()
            self.send_response(400)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Reject)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        coord = Coordinator(
            local,
            _manifest(n=2),
            [f"http://127.0.0.1:{server.server_port}"],
            poll_interval_s=0.01,
        )
        with pytest.raises(CoordinationError, match="rejected partition"):
            coord.run()
    finally:
        server.shutdown()
        server.server_close()


# -- resume --------------------------------------------------------------------


class _CountingClient(ServiceClient):
    calls = None  # type: list

    def request(self, method, path, payload=None, query=None):
        type(self).calls.append((method, path))
        return super().request(method, path, payload=payload, query=query)


def test_resume_of_complete_run_makes_zero_requests(tmp_path, request, local):
    workers = _workers(tmp_path, request, [("a", 1), ("b", 1)])
    manifest = _manifest(n=4, seed=3)
    urls = [w.url for w in workers]
    Coordinator(local, manifest, urls, poll_interval_s=0.05).run()

    _CountingClient.calls = []
    resumed = Coordinator(
        local, manifest, urls,
        client_factory=lambda url: _CountingClient(url, retries=0),
    )
    assert resumed._resumed is True
    status = resumed.resume()
    assert status.complete
    assert _CountingClient.calls == []  # zero re-fetch of merged partitions


def test_resume_mid_run_refetches_only_unmerged(tmp_path, request, local):
    # Worker "b" starts poolless so exactly one partition can merge
    # before the coordinator "dies"; its pool starts for the resume.
    workers = _workers(tmp_path, request, [("a", 1), ("b", 0)])
    manifest = _manifest(n=4, seed=3)
    urls = [w.url for w in workers]
    first = Coordinator(local, manifest, urls, poll_interval_s=0.05)
    deadline = time.monotonic() + 60.0
    while True:  # drive until one partition merged, then "die"
        status = first.step()
        if any(p.state == "merged" for p in status.states):
            break
        assert time.monotonic() < deadline
        time.sleep(0.05)
    merged_before = {p.index for p in status.states if p.state == "merged"}
    assert len(merged_before) == 1
    workers[1].pool = WorkerPool(
        workers[1].store, workers=1, poll_interval=0.05
    )
    workers[1].pool.start()

    _CountingClient.calls = []
    resumed = Coordinator(
        local, manifest, urls,
        poll_interval_s=0.05,
        client_factory=lambda url: _CountingClient(url, retries=0),
    )
    assert resumed._resumed
    final = resumed.resume()
    assert final.complete
    # No result page of an already-merged partition was fetched again.
    merged_jobs = {
        status.states[i - 1].job_id for i in merged_before
    }
    fetched = [
        path for _, path in _CountingClient.calls if "/results" in path
    ]
    assert fetched  # the unmerged partitions were fetched...
    assert not [
        p for p in fetched if any(j in p for j in merged_jobs)
    ]  # ...the merged ones were not


def test_resume_adopts_job_submitted_before_crash(tmp_path, request, local):
    """A coordinator killed between submit and journal write must not
    duplicate the job: the resumed run rediscovers it by name."""
    workers = _workers(tmp_path, request, [("a", 1)])
    manifest = _manifest(n=2, seed=3)
    first = Coordinator(
        local, manifest, [workers[0].url], partitions=1, poll_interval_s=0.05
    )
    # Simulate the crash window: the job reached the worker, but the
    # journal still says queued with no job id.
    client = ServiceClient(workers[0].url)
    submitted = client.submit(
        manifest, kind="campaign", name=first.name, partition=(1, 1)
    )
    resumed = Coordinator(
        local, manifest, [workers[0].url], partitions=1, poll_interval_s=0.05
    )
    assert resumed._resumed
    status = resumed.run()
    assert status.complete
    assert status.states[0].job_id == submitted["id"]  # adopted, not re-sent
    jobs = client.jobs(kind="campaign")
    assert jobs["total"] == 1  # no duplicate submission


# -- module-level status -------------------------------------------------------


def test_coord_status_and_names(tmp_path, request, local):
    workers = _workers(tmp_path, request, [("a", 1)])
    manifest = _manifest(n=2, seed=3)
    coord = Coordinator(
        local, manifest, [workers[0].url], poll_interval_s=0.05
    )
    coord.run()
    assert coord_names(local) == [coord.name]
    snapshot = coord_status(local, coord.name)
    assert snapshot.complete
    text = snapshot.summary()
    assert f"coordinated campaign {coord.name}: 1/1" in text
    assert "rows:" in text and "p1: merged" in text
    with pytest.raises(ConfigError, match="unknown coordinated campaign"):
        coord_status(local, "ghost")
