"""ResultStore: content addressing, provenance, query/export/gc, tiers.

Every test taking the ``store`` or ``make_store`` fixture runs twice:
on a plain single-file store, and (through :class:`TestShardedStore` at
the end) on a 3-shard :class:`ShardedResultStore`.
"""

import inspect
import json
import pickle

import pytest

from repro.core.batch import BatchRunner
from repro.errors import ConfigError, DesignError
from repro.scenario import PartsSpec, Scenario, named_scenario
from repro.store import (
    ResultStore,
    ShardedResultStore,
    canonical_json,
    scenario_family,
)
from repro.system.config import SystemConfig
from repro.system.result import SystemResult


def _scenarios(n=4, horizon=90.0):
    return [
        Scenario(
            config=SystemConfig(
                clock_hz=1e6, watchdog_s=300.0, tx_interval_s=0.5 + 0.5 * i
            ),
            parts=PartsSpec(v_init=2.85),
            horizon=horizon,
            seed=i,
            name=f"case-{i}",
        )
        for i in range(n)
    ]


@pytest.fixture
def make_store(tmp_path):
    """A builder, so a test can hold the only reference to its store."""
    return lambda: ResultStore(tmp_path / "results.db")


@pytest.fixture
def store(make_store):
    return make_store()


def _run(scenario):
    from repro.backends import run

    return run(scenario)


def test_put_get_round_trip(store):
    scenario = _scenarios(1)[0]
    result = _run(scenario)
    assert store.put(scenario, result, wall_time_s=0.25)
    loaded = store.get(scenario)
    assert loaded is not None
    assert loaded.transmissions == result.transmissions
    assert loaded.final_voltage == result.final_voltage
    assert loaded.breakdown.harvested == result.breakdown.harvested
    assert loaded.to_json() == result.to_json()


def test_put_is_idempotent_first_writer_wins(store):
    scenario = _scenarios(1)[0]
    result = _run(scenario)
    assert store.put(scenario, result) is True
    assert store.put(scenario, result) is False
    assert len(store) == 1


def test_content_addressing_ignores_name(store):
    from dataclasses import replace

    scenario = _scenarios(1)[0]
    result = _run(scenario)
    store.put(scenario, result)
    relabelled = replace(scenario, name="другое имя")
    assert relabelled in store
    assert store.get(relabelled) is not None


def test_get_unknown_returns_none(store):
    assert store.get("0" * 64) is None
    assert store.get(_scenarios(1)[0]) is None
    assert "deadbeef" not in store


def test_stored_scenario_document_round_trips(store):
    scenario = _scenarios(1)[0]
    store.put(scenario, _run(scenario))
    recovered = store.get_scenario(scenario.cache_key())
    assert recovered == scenario


def test_payload_bytes_are_canonical(store):
    scenario = _scenarios(1)[0]
    result = _run(scenario)
    store.put(scenario, result)
    text = store.get_payload_text(scenario)
    assert text == canonical_json(result.to_payload())


def test_query_filters(store):
    for scenario in _scenarios(4):
        store.put(scenario, _run(scenario))
    rows = store.query()
    assert len(rows) == 4
    assert {r.name for r in rows} == {f"case-{i}" for i in range(4)}
    assert store.query(backend="detailed") == []
    assert len(store.query(tx_interval_s=1.0)) == 1
    fast = store.query(min_transmissions=1)
    assert all(r.transmissions >= 1 for r in fast)
    limited = store.query(limit=2)
    assert len(limited) == 2


def test_query_by_family(store):
    from repro.system.stochastic import named_family

    family = named_family("hvac")
    from dataclasses import replace

    family = replace(family, horizon=120.0)
    scenarios = family.expand(n=2, seed=0)
    for s in scenarios:
        store.put(s, _run(s))
    assert scenario_family(scenarios[0]) == "hvac"
    assert len(store.query(family="hvac")) == 2
    assert store.query(family="vehicle") == []


def test_export_json_and_csv(store):
    for scenario in _scenarios(2):
        store.put(scenario, _run(scenario))
    doc = json.loads(store.export_json())
    assert doc["count"] == 2
    assert {"key", "transmissions", "backend"} <= set(doc["results"][0])
    assert "result" not in doc["results"][0]
    with_payloads = json.loads(store.export_json(include_payloads=True))
    rebuilt = SystemResult.from_payload(with_payloads["results"][0]["result"])
    assert rebuilt.transmissions == doc["results"][0]["transmissions"]
    csv_text = store.export_csv()
    lines = csv_text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("key,name,family,backend")


def test_export_csv_quotes_hostile_names(store):
    import csv
    import io
    from dataclasses import replace

    scenario = replace(_scenarios(1)[0], name='evil,"name\nwith newline')
    store.put(scenario, _run(scenario))
    text = store.export_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2
    assert len(rows[1]) == len(rows[0])  # one field per header column
    assert rows[1][1] == scenario.name


def test_stats(store):
    for scenario in _scenarios(3):
        store.put(scenario, _run(scenario), wall_time_s=0.5)
    stats = store.stats()
    assert stats.n_results == 3
    assert stats.n_campaigns == 0
    assert stats.by_backend == (("envelope", 3),)
    assert stats.payload_bytes > 0
    assert stats.total_wall_time_s == pytest.approx(1.5)
    assert stats.oldest is not None and stats.newest is not None
    assert stats.by_job_status == ()  # no service jobs in this store
    assert "jobs:" not in stats.summary()


def test_stats_count_service_jobs(store):
    from repro.service import JobQueue

    queue = JobQueue(store)
    for seed in range(2):
        queue.submit(_scenarios(1)[0].with_seed(seed).to_dict())
    queue.claim("w")
    stats = store.stats()
    assert stats.by_job_status == (("queued", 1), ("running", 1))
    assert "jobs: queued 1, running 1" in stats.summary()


def test_gc_requires_selector_and_deletes(store):
    for scenario in _scenarios(3):
        store.put(scenario, _run(scenario))
    assert store.gc() == 0
    assert len(store) == 3
    assert store.gc(orphans=True, dry_run=True) == 3
    assert len(store) == 3
    assert store.gc(orphans=True) == 3
    assert len(store) == 0


def test_gc_older_than(store):
    scenario = _scenarios(1)[0]
    store.put(scenario, _run(scenario))
    assert store.gc(older_than_days=1.0) == 0  # too recent
    assert store.gc(older_than_days=0.0) == 1  # everything


def test_rejects_memory_database(tmp_path):
    with pytest.raises(ConfigError):
        ResultStore(":memory:")


def test_rejects_missing_directory(tmp_path):
    with pytest.raises(ConfigError):
        ResultStore(tmp_path / "no" / "such" / "dir" / "x.db")


def test_rejects_future_layout(tmp_path):
    store = ResultStore(tmp_path / "s.db")
    conn = store._conn()
    conn.execute("UPDATE store_meta SET value='99' WHERE key='schema'")
    store.close()
    with pytest.raises(DesignError):
        ResultStore(tmp_path / "s.db")


def test_dropping_a_store_closes_its_connection(make_store):
    # sqlite3 connections sit in reference cycles, so without an
    # explicit close one would stay open until a collector pass.  The
    # collector is off here, so only close-on-drop can close them --
    # which a store holding a reference to itself would never reach.
    # Built in the test: a ``store`` fixture would keep it alive.
    import gc
    import sqlite3

    store = make_store()
    conns = [shard._conn() for shard in store._shard_files()]
    gc.disable()
    try:
        del store
        for conn in conns:
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                conn.execute("SELECT 1")
    finally:
        gc.enable()


def test_store_survives_pickling(store):
    scenario = _scenarios(1)[0]
    store.put(scenario, _run(scenario))
    clone = pickle.loads(pickle.dumps(store))
    assert len(clone) == 1
    assert clone.get(scenario) is not None


# -- BatchRunner integration ---------------------------------------------------


def test_batchrunner_writes_through_and_reads_back(store):
    scenarios = _scenarios(3)
    cold = BatchRunner(jobs=1, store=store)
    first = cold.run(scenarios)
    assert cold.misses == 3 and cold.store_hits == 0
    assert len(store) == 3

    warm = BatchRunner(jobs=1, store=store)
    second = warm.run(scenarios)
    assert warm.misses == 0 and warm.store_hits == 3
    assert [r.transmissions for r in first] == [r.transmissions for r in second]
    assert [r.final_voltage for r in first] == [r.final_voltage for r in second]


def test_batchrunner_memory_tier_shields_store(store):
    scenarios = _scenarios(2)
    runner = BatchRunner(jobs=1, store=store)
    runner.run(scenarios)
    runner.run(scenarios)
    # Second pass is served by the memory LRU, not the disk tier.
    assert runner.store_hits == 0
    assert runner.hits == 2


def test_batchrunner_store_results_match_direct_simulation(store):
    scenario = named_scenario("cold-start")
    from dataclasses import replace

    scenario = replace(scenario, horizon=300.0, seed=7)
    direct = _run(scenario)
    via_store = BatchRunner(jobs=1, store=store).run_one(scenario)
    rehydrated = BatchRunner(jobs=1, store=store, cache_size=0).run_one(scenario)
    assert via_store.to_json() == direct.to_json()
    assert rehydrated.to_json() == direct.to_json()


def test_batchrunner_parallel_with_store(store):
    scenarios = _scenarios(4)
    parallel = BatchRunner(jobs=2, store=store).run(scenarios)
    serial = BatchRunner(jobs=1).run(scenarios)
    assert [r.transmissions for r in parallel] == [
        r.transmissions for r in serial
    ]
    assert len(store) == 4


def test_wall_time_provenance_recorded(store):
    scenarios = _scenarios(2)
    BatchRunner(jobs=1, store=store).run(scenarios)
    rows = store.query()
    assert all(row.wall_time_s > 0.0 for row in rows)
    assert all(row.repro_version for row in rows)
    assert all(row.created_at for row in rows)


# -- the same contract on a sharded store ---------------------------------------


class TestShardedStore:
    """Every store-fixture test above, on a 3-shard store.

    This class's ``make_store`` overrides the module's plain one (and
    with it ``store``); the plain-store test ids stay as they are.
    """

    @pytest.fixture
    def make_store(self, tmp_path):
        return lambda: ShardedResultStore(tmp_path / "results.d", shards=3)


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and {"store", "make_store"} & set(
        inspect.signature(_test).parameters
    ):
        setattr(TestShardedStore, _name, staticmethod(_test))
