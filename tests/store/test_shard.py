"""Sharded store semantics (:mod:`repro.store.shard`).

The contract under test: a :class:`ShardedResultStore` is a drop-in
:class:`ResultStore` -- same API, same canonical bytes per key -- whose
rows live spread over N shard files, with the layout self-describing
(shard count discovered on reopen) and misuse (plain file opened as
sharded, shard-count mismatch) refused loudly.
"""

import pickle

from dataclasses import replace

import pytest

from repro.backends import run
from repro.errors import ConfigError
from repro.scenario import PartsSpec, Scenario
from repro.store import (
    Campaign,
    ResultStore,
    ShardedResultStore,
    open_store,
    shard_index,
)
from repro.store.shard import shard_file_name
from repro.system.config import SystemConfig


def _pairs(n=10):
    pairs = []
    for i in range(n):
        scenario = Scenario(
            config=SystemConfig(tx_interval_s=0.5 + 0.5 * i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
        )
        pairs.append((scenario, run(scenario)))
    return pairs


@pytest.fixture(scope="module")
def pairs():
    return _pairs()


# -- routing and parity --------------------------------------------------------


def test_rows_spread_over_shards_and_round_trip(tmp_path, pairs):
    store = ShardedResultStore(tmp_path / "store", shards=3)
    for scenario, result in pairs:
        store.put(scenario, result)
    assert len(store) == len(pairs)
    # Every row landed on the shard its key routes to, and only there.
    populated = set()
    for index in range(3):
        shard = ResultStore(tmp_path / "store" / shard_file_name(index))
        for key in shard.keys():
            assert shard_index(key, 3) == index
            populated.add(index)
    assert len(populated) > 1, "ten sha256 keys should hit >1 shard"
    for scenario, result in pairs:
        loaded = store.get(scenario)
        assert loaded is not None
        assert loaded.transmissions == result.transmissions
        assert scenario.cache_key() in store


def test_sharded_bytes_identical_to_plain_store(tmp_path, pairs):
    plain = ResultStore(tmp_path / "plain.db")
    sharded = ShardedResultStore(tmp_path / "sharded", shards=4)
    for scenario, result in pairs:
        plain.put(scenario, result)
        sharded.put(scenario, result)
    assert plain.keys() == sharded.keys()
    for key in plain.keys():
        assert plain.get_payload_text(key) == sharded.get_payload_text(key)
        assert plain.get_scenario(key) == sharded.get_scenario(key)


def test_query_and_have_keys_fan_out(tmp_path, pairs):
    plain = ResultStore(tmp_path / "plain.db")
    sharded = ShardedResultStore(tmp_path / "sharded", shards=4)
    for scenario, result in pairs:
        plain.put(scenario, result)
        sharded.put(scenario, result)
    assert {r.key for r in sharded.query()} == {r.key for r in plain.query()}
    keys = [s.cache_key() for s, _ in pairs]
    probe = keys[:3] + ["0" * 64]
    assert sharded.have_keys(probe) == set(keys[:3])
    limited = sharded.query(limit=4)
    assert len(limited) == 4


def test_stats_aggregate_and_report_shards(tmp_path, pairs):
    sharded = ShardedResultStore(tmp_path / "sharded", shards=4)
    for scenario, result in pairs:
        sharded.put(scenario, result)
    stats = sharded.stats()
    assert stats.n_results == len(pairs)
    assert stats.n_shards == 4
    assert "shards: 4" in stats.summary()


# -- layout discovery ----------------------------------------------------------


def test_reopen_discovers_shard_count(tmp_path, pairs):
    root = tmp_path / "store"
    first = ShardedResultStore(root, shards=3)
    for scenario, result in pairs:
        first.put(scenario, result)
    first.close()
    reopened = ShardedResultStore(root)
    assert reopened.n_shards == 3
    assert len(reopened) == len(pairs)


def test_reopen_with_wrong_shard_count_is_refused(tmp_path):
    ShardedResultStore(tmp_path / "store", shards=3).close()
    with pytest.raises(ConfigError, match="3 shard"):
        ShardedResultStore(tmp_path / "store", shards=5)


def test_plain_file_is_not_a_meta_shard(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    ResultStore(root / shard_file_name(0)).close()
    # A plain single-file store renamed into position must be refused:
    # it carries no shard-count meta, so treating it as shard 0 of an
    # unknown layout would misroute every future write.
    with pytest.raises(ConfigError, match="plain single-file store"):
        ShardedResultStore(root)


def test_open_store_autodetects_layout(tmp_path):
    plain = open_store(tmp_path / "plain.db")
    assert isinstance(plain, ResultStore)
    assert not isinstance(plain, ShardedResultStore)
    created = open_store(tmp_path / "sharded", shards=4)
    assert isinstance(created, ShardedResultStore)
    created.close()
    detected = open_store(tmp_path / "sharded")
    assert isinstance(detected, ShardedResultStore)
    assert detected.n_shards == 4


def test_sharded_store_pickles_for_process_fanout(tmp_path, pairs):
    store = ShardedResultStore(tmp_path / "store", shards=2)
    scenario, result = pairs[0]
    store.put(scenario, result)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.n_shards == 2
    assert clone.get(scenario) is not None


# -- campaigns and gc on a sharded store ---------------------------------------


def test_campaign_runs_against_sharded_store(tmp_path, pairs):
    store = ShardedResultStore(tmp_path / "store", shards=4)
    scenarios = [replace(s, backend="envelope") for s, _ in pairs]
    campaign = Campaign.create(store, "sharded-camp", scenarios)
    results = campaign.run(jobs=1)
    assert len(results) == len(scenarios)
    status = campaign.status()
    assert status.complete
    assert campaign.pending() == []


def test_gc_fans_out_and_respects_journal_orphans(tmp_path, pairs):
    store = ShardedResultStore(tmp_path / "store", shards=3)
    scenarios = [s for s, _ in pairs]
    for scenario, result in pairs:
        store.put(scenario, result)
    Campaign.create(store, "keep", scenarios[:4])
    # Orphan selector: only rows outside any campaign journal go.
    assert store.gc(orphans=True, dry_run=True) == len(pairs) - 4
    assert store.gc(orphans=True) == len(pairs) - 4
    assert len(store) == 4
    assert store.have_keys([s.cache_key() for s in scenarios[:4]]) == {
        s.cache_key() for s in scenarios[:4]
    }
