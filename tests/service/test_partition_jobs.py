"""Partitioned campaign jobs and the gc-vs-active-jobs guard.

A campaign payload may carry ``{"partition": {"index": I, "of": N}}``:
the job then journals (and simulates) only its 1-based I-th of N
disjoint slices, under the suffixed name ``NAME@pIofN``, with the same
full-list seed resolution as the unpartitioned run -- so N service
workers with local stores split one manifest and their stores merge
back byte-identically.

Riding along: :meth:`ResultStore.gc` must refuse to delete rows that an
active (queued or running) job derives its resume-progress from, unless
forced.
"""

from dataclasses import replace

import pytest

from repro.errors import DesignError, StoreError
from repro.service import JobQueue, validate_job
from repro.service.jobs import job_partition
from repro.service.worker import execute_job
from repro.store import Campaign, ResultStore, partition_scenarios
from repro.system.stochastic import manifest_scenarios, named_family


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "jobs.db")


@pytest.fixture
def queue(store):
    return JobQueue(store)


def _manifest(n=2, seed=3, horizon=60.0):
    family = replace(
        named_family("factory-floor"), horizon=horizon, backend="envelope"
    )
    return family.manifest(n=n, seed=seed)


def _partitioned(manifest, index, of):
    payload = dict(manifest)
    payload["partition"] = {"index": index, "of": of}
    return payload


# -- validation ----------------------------------------------------------------


def test_job_partition_decodes_and_validates():
    assert job_partition({}, 10) is None
    assert job_partition({"partition": {"index": 2, "of": 3}}, 10) == (2, 3)
    for bad in (
        {"partition": [1, 2]},
        {"partition": {"index": 1}},
        {"partition": {"index": 1, "of": 2, "x": 3}},
        {"partition": {"index": True, "of": 2}},
        {"partition": {"index": "1", "of": 2}},
    ):
        with pytest.raises(DesignError):
            job_partition(bad, 10)
    with pytest.raises(DesignError, match="cannot split"):
        job_partition({"partition": {"index": 1, "of": 11}}, 10)
    with pytest.raises(DesignError, match="1..3"):
        job_partition({"partition": {"index": 4, "of": 3}}, 10)


def test_validate_job_suffixes_partitioned_names():
    manifest = _manifest(n=4)  # 12 scenarios: 4 per grid point x 3 regimes
    kind, name, total = validate_job("campaign", manifest, name="camp")
    partitioned = _partitioned(manifest, 2, 3)
    pkind, pname, ptotal = validate_job("campaign", partitioned, name="camp")
    assert (pkind, pname) == ("campaign", "camp@p2of3")
    assert 0 < ptotal < total
    # The slice totals tile the full total.
    slices = [
        validate_job("campaign", _partitioned(manifest, i, 3), name="camp")[2]
        for i in (1, 2, 3)
    ]
    assert sum(slices) == total


def test_validate_job_rejects_partition_on_non_campaign():
    from repro.scenario import PartsSpec, Scenario
    from repro.system.config import SystemConfig

    payload = Scenario(
        config=SystemConfig(tx_interval_s=2.0),
        parts=PartsSpec(v_init=2.85),
        horizon=60.0,
        seed=0,
    ).to_dict()
    payload["partition"] = {"index": 1, "of": 2}
    with pytest.raises(DesignError, match="only campaign jobs"):
        validate_job("scenario", payload)


# -- execution -----------------------------------------------------------------


def test_worker_executes_only_its_slice(store, queue):
    manifest = _manifest(n=2)
    scenarios = manifest_scenarios(manifest)
    groups = partition_scenarios(scenarios, 2)
    jobs = [
        queue.submit(_partitioned(manifest, i, 2), kind="campaign", name="px")
        for i in (1, 2)
    ]
    assert [job.name for job in jobs] == ["px@p1of2", "px@p2of2"]
    for job, group in zip(jobs, groups):
        claimed = queue.claim(f"w{job.id}")
        execute_job(store, claimed)
        queue.finish(claimed.id, f"w{job.id}")
        journaled = Campaign(store, job.name).scenarios()
        assert [s.cache_key() for s in journaled] == [
            s.cache_key() for s in group
        ]
    # Together the two slices stored every key exactly once -- and they
    # match an unpartitioned journal of the same manifest.
    whole = Campaign.create(store, "px", scenarios)
    keys = {s.cache_key() for s in whole.scenarios()}
    assert store.have_keys(keys) == keys
    assert whole.pending() == []


# -- gc vs active jobs ---------------------------------------------------------


def test_gc_refuses_rows_active_jobs_depend_on(store, queue):
    manifest = _manifest(n=2)
    job = queue.submit(manifest, kind="campaign", name="gcjob")
    # The job is queued; its journaled keys exist once a worker stores
    # them -- simulate that by running the job without finishing it.
    claimed = queue.claim("w1")
    execute_job(store, claimed)
    assert len(store) > 0
    # Still running: gc (any selector matching its rows) must refuse.
    with pytest.raises(StoreError, match=claimed.id):
        store.gc(family="factory-floor")
    with pytest.raises(StoreError, match="force"):
        store.gc(older_than_days=0.0)
    # Explicit force overrides; dry_run previews the same count first.
    preview = store.gc(family="factory-floor", dry_run=True, force=True)
    assert preview == len(store)
    assert store.gc(family="factory-floor", force=True) == preview
    assert len(store) == 0


def test_gc_proceeds_once_jobs_are_terminal(store, queue):
    manifest = _manifest(n=2)
    queue.submit(manifest, kind="campaign", name="gcjob")
    claimed = queue.claim("w1")
    execute_job(store, claimed)
    queue.finish(claimed.id, "w1")
    assert store.gc(family="factory-floor") == len(
        Campaign(store, "gcjob").scenarios()
    )
