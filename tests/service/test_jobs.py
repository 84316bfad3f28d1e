"""The durable job queue: sniffed submission, atomic claims, heartbeats.

The queue is rows in the same SQLite file as the result store, so the
properties under test are transactional ones: two racing claimers never
take the same job, a lost claim surfaces at the next heartbeat, and a
stale heartbeat hands the job (not its finished work) to the next
worker.
"""

import json
import threading
from dataclasses import replace

import pytest

from repro.errors import ConfigError, DesignError, ReproError
from repro.service import JOB_STATUSES, JobCancelled, JobQueue, validate_job
from repro.service.worker import execute_job
from repro.scenario import PartsSpec, Scenario
from repro.store import Campaign, ResultStore
from repro.system.config import SystemConfig
from repro.system.stochastic import named_family


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "jobs.db")


@pytest.fixture
def queue(store):
    return JobQueue(store)


def _manifest(n=2, seed=3, horizon=60.0, backend="envelope"):
    family = replace(
        named_family("factory-floor"), horizon=horizon, backend=backend
    )
    return family.manifest(n=n, seed=seed)


def _scenario_payload(seed=0, name="one-off"):
    return Scenario(
        config=SystemConfig(tx_interval_s=2.0),
        parts=PartsSpec(v_init=2.85),
        horizon=60.0,
        seed=seed,
        name=name,
    ).to_dict()


def _backdate_heartbeat(store, job_id, by_s=3600.0):
    """Pretend the claim holder went silent ``by_s`` seconds ago."""
    conn = store._conn()
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        "UPDATE jobs SET heartbeat_unix = heartbeat_unix - ? WHERE id=?",
        (by_s, job_id),
    )
    conn.execute("COMMIT")


# -- submission ----------------------------------------------------------------


def test_submit_sniffs_manifest_as_campaign(queue):
    job = queue.submit(_manifest(n=2, seed=3))
    assert job.kind == "campaign"
    assert job.status == "queued"
    assert job.total == 2
    assert job.name == "factory-floor-n2-s3"
    assert job.attempts == 0 and job.worker is None


def test_submit_sniffs_scenario_and_study(queue):
    scenario_job = queue.submit(_scenario_payload(name="probe"))
    assert scenario_job.kind == "scenario"
    assert scenario_job.name == "probe"
    assert scenario_job.total == 1

    from repro.core.study import paper_study_spec

    spec = replace(paper_study_spec(), name="svc-study", horizon=600.0)
    study_job = queue.submit(spec.to_dict())
    assert study_job.kind == "study"
    assert study_job.name == "svc-study"
    assert study_job.total == spec.n_runs + 1


def test_submit_name_and_priority_overrides(queue):
    job = queue.submit(_manifest(), name="renamed", priority=7)
    assert job.name == "renamed"
    assert job.priority == 7


def test_submit_rejects_unsniffable_payload(queue):
    with pytest.raises(DesignError):
        queue.submit({"family": "factory-floor", "n": 2})


def test_submit_rejects_unknown_kind(queue):
    with pytest.raises(ConfigError):
        queue.submit(_manifest(), kind="batch")


def test_submit_rejects_unknown_backend(queue):
    payload = _scenario_payload()
    payload["backend"] = "warp-drive"
    with pytest.raises(ReproError):
        queue.submit(payload)


def test_failed_submission_writes_no_row(queue):
    with pytest.raises(DesignError):
        queue.submit({"scenarios": "not-a-list"})
    assert queue.counts() == {status: 0 for status in JOB_STATUSES}


def test_validate_job_rejects_non_dict_payload():
    with pytest.raises(DesignError):
        validate_job(None, ["not", "a", "dict"])


def _payload_of(kind):
    from repro.core.study import paper_study_spec

    if kind == "scenario":
        return _scenario_payload()
    if kind == "study":
        return replace(paper_study_spec(), name="svc-study", horizon=60.0).to_dict()
    manifest = _manifest(n=3)
    if kind == "partition":
        manifest["partition"] = {"index": 2, "of": 2}
    return manifest


@pytest.mark.parametrize("kind", ["scenario", "campaign", "partition", "study"])
def test_validated_name_and_total_are_what_execution_journals(store, queue, kind):
    payload = _payload_of(kind)
    _, name, total = validate_job(None, payload)
    job = queue.submit(payload)
    assert (job.name, job.total) == (name, total)
    execute_job(store, queue.claim("w"))
    if kind == "study":
        journal = store.get_study(name)
    else:
        journal = store.get_campaign(name)
    assert journal is not None and journal.total == total


# -- claiming ------------------------------------------------------------------


def test_claim_order_priority_then_fifo(queue):
    low = queue.submit(_scenario_payload(seed=1), priority=0)
    high = queue.submit(_scenario_payload(seed=2), priority=5)
    mid = queue.submit(_scenario_payload(seed=3), priority=1)
    order = [queue.claim("w").id for _ in range(3)]
    assert order == [high.id, mid.id, low.id]
    assert queue.claim("w") is None


def test_claim_marks_running_with_heartbeat(queue):
    submitted = queue.submit(_scenario_payload())
    job = queue.claim("worker-1")
    assert job.id == submitted.id
    assert job.status == "running"
    assert job.worker == "worker-1"
    assert job.attempts == 1
    assert job.started_unix is not None and job.heartbeat_unix is not None


def test_claim_requires_worker_id(queue):
    with pytest.raises(ConfigError):
        queue.claim("")


def test_racing_claimers_never_share_a_job(queue):
    jobs = [queue.submit(_scenario_payload(seed=i)) for i in range(12)]
    claimed = []
    lock = threading.Lock()

    def drain(worker):
        while True:
            job = queue.claim(worker)
            if job is None:
                return
            with lock:
                claimed.append(job.id)

    threads = [
        threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(claimed) == sorted(j.id for j in jobs)
    assert len(set(claimed)) == len(jobs)  # nothing claimed twice


# -- heartbeats and completion -------------------------------------------------


def test_heartbeat_refreshes_only_the_claim_holder(queue):
    job_id = queue.submit(_scenario_payload()).id
    queue.claim("holder")
    queue.heartbeat(job_id, "holder")  # fine
    with pytest.raises(JobCancelled):
        queue.heartbeat(job_id, "impostor")


def test_cancel_surfaces_at_next_heartbeat(queue):
    job_id = queue.submit(_scenario_payload()).id
    queue.claim("holder")
    queue.cancel(job_id)
    with pytest.raises(JobCancelled):
        queue.heartbeat(job_id, "holder")


def test_finish_and_fail(queue):
    done_id = queue.submit(_scenario_payload(seed=1)).id
    failed_id = queue.submit(_scenario_payload(seed=2)).id
    queue.claim("w")
    queue.finish(done_id, "w")
    queue.claim("w")
    queue.fail(failed_id, "w", "backend exploded")
    assert queue.get(done_id).status == "done"
    failed = queue.get(failed_id)
    assert failed.status == "failed"
    assert failed.error == "backend exploded"
    assert failed.finished_unix is not None


def test_finish_after_lost_claim_leaves_row_alone(queue):
    job_id = queue.submit(_scenario_payload()).id
    queue.claim("w")
    queue.cancel(job_id)
    queue.finish(job_id, "w")  # silently ignored: the claim is gone
    assert queue.get(job_id).status == "cancelled"
    with pytest.raises(ConfigError):
        queue.finish("no-such-job", "w")


def test_cancel_terminal_job_is_an_error(queue):
    job_id = queue.submit(_scenario_payload()).id
    queue.claim("w")
    queue.finish(job_id, "w")
    with pytest.raises(ConfigError):
        queue.cancel(job_id)


# -- orphan requeue ------------------------------------------------------------


def test_requeue_orphans_releases_stale_claims(store, queue):
    job_id = queue.submit(_scenario_payload()).id
    queue.claim("dead-worker")
    assert queue.requeue_orphans(60.0) == 0  # heartbeat still fresh
    _backdate_heartbeat(store, job_id)
    assert queue.requeue_orphans(60.0) == 1
    job = queue.get(job_id)
    assert job.status == "queued"
    assert job.worker is None and job.heartbeat_unix is None
    assert job.attempts == 1  # the attempt history survives
    # The next claimer picks it straight up.
    assert queue.claim("successor").id == job_id


def test_requeue_orphans_validates_timeout(queue):
    with pytest.raises(ConfigError):
        queue.requeue_orphans(0.0)


# -- listing, counts, progress -------------------------------------------------


def test_counts_and_depth(queue):
    assert queue.depth() == 0
    queue.submit(_scenario_payload(seed=1))
    queue.submit(_scenario_payload(seed=2))
    queue.claim("w")
    counts = queue.counts()
    assert counts["queued"] == 1 and counts["running"] == 1
    assert queue.depth() == 1


def test_jobs_listing_filters_by_status(queue):
    queue.submit(_scenario_payload(seed=1))
    queue.submit(_scenario_payload(seed=2))
    queue.claim("w")
    assert len(queue.jobs()) == 2
    assert len(queue.jobs(status="running")) == 1
    assert len(queue.jobs(limit=1)) == 1
    with pytest.raises(ConfigError):
        queue.jobs(status="exploded")


def test_get_unknown_job(queue):
    with pytest.raises(ConfigError):
        queue.get("nope")


def test_progress_and_result_entries_track_the_store(store, queue):
    job = queue.submit(_manifest(n=2, seed=3))
    assert queue.progress(job) == (0, 2)
    count, entries = queue.result_entries(job)
    assert count == 0 and entries == []  # nothing journaled yet

    claimed = queue.claim("w")
    execute_job(store, claimed, jobs=1)
    queue.finish(claimed.id, "w")

    job = queue.get(job.id)
    assert queue.progress(job) == (2, 2)
    count, entries = queue.result_entries(job)
    assert count == 2 and len(entries) == 2
    assert [e["index"] for e in entries] == [0, 1]
    assert all(e["result"] is not None and e["key"] for e in entries)

    # Pagination windows and validation.
    count, page = queue.result_entries(job, offset=1, limit=5)
    assert count == 2 and [e["index"] for e in page] == [1]
    names = [s.name for s in Campaign(store, job.name).scenarios()]
    assert names[0] != names[1]
    assert page[0]["name"] == names[1]
    with pytest.raises(ConfigError):
        queue.result_entries(job, offset=-1)


def test_result_page_reads_only_its_journal_window(store, queue, monkeypatch):
    from repro.core.batch import BatchRunner
    from repro.system.stochastic import FixedFamily, manifest_scenarios

    family = FixedFamily(
        name="window",
        scenarios=tuple(
            Scenario(horizon=5.0, seed=i, name=f"w{i}") for i in range(1100)
        ),
    )
    manifest = family.manifest()
    job = queue.submit(manifest)
    scenarios = manifest_scenarios(manifest)
    Campaign.create(store, job.name, scenarios)  # journaled, unsimulated
    BatchRunner(store=store).run([scenarios[1000], scenarios[1099]])

    rows = store.campaign_rows
    reads = []

    def spied_rows(name, start=0, stop=None):
        got = rows(name, start, stop)
        reads.append((start, stop, len(got)))
        return got

    def no_full_read(name):
        raise AssertionError("a results page read every journal key")

    monkeypatch.setattr(store, "campaign_rows", spied_rows)
    monkeypatch.setattr(store, "campaign_keys", no_full_read)
    total, page = queue.result_entries(job, offset=1000, limit=100)
    assert reads == [(1000, 1100, 100)]

    reference = []
    for index, (key, doc) in enumerate(rows(job.name)):
        text = store.get_payload_text(key)
        reference.append({
            "index": index,
            "name": json.loads(doc)["name"],
            "key": key,
            "result": None if text is None else json.loads(text),
        })
    assert total == 1100
    assert page == reference[1000:1100]
    assert page[0]["result"] is not None and page[1]["result"] is None
