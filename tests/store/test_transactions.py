"""Write paths surface the real error when SQLite rolls back by itself.

Some failures end the transaction inside SQLite before the caller sees
them: a ``RAISE(ROLLBACK)`` trigger, an interrupt, a full disk or an I/O
error.  A write path that then issues its own unconditional ``ROLLBACK``
replaces the real error with ``cannot rollback - no transaction is
active``.  Every write path goes through the store's one transaction
helper; each case below vetoes one of them with a trigger and checks
that the trigger's error propagates, the connection is left outside any
transaction, and the same store object completes the write once the
trigger is gone.
"""

import sqlite3

import pytest

from repro.backends import run
from repro.coord.journal import CoordJournal
from repro.scenario import PartsSpec, Scenario
from repro.service import JobQueue
from repro.store import Campaign, ResultStore, ShardedResultStore, shard_index
from repro.system.config import SystemConfig


def _scenario(seed=0):
    return Scenario(
        config=SystemConfig(tx_interval_s=1.0),
        parts=PartsSpec(v_init=2.85),
        horizon=60.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def pair():
    scenario = _scenario()
    return scenario, run(scenario)


# Each case builds a store and returns (connection the write uses,
# "<BEFORE-event> ON <table>" to veto, the write, a check it landed).


def _put(tmp_path, pair):
    store = ResultStore(tmp_path / "s.db")
    scenario, result = pair
    return (
        store._conn(),
        "INSERT ON results",
        lambda: store.put(scenario, result),
        lambda: scenario in store,
    )


def _put_raw(tmp_path, pair):
    source = ResultStore(tmp_path / "source.db")
    source.put(*pair)
    row = next(source.iter_raw())
    store = ResultStore(tmp_path / "s.db")
    return (
        store._conn(),
        "INSERT ON results",
        lambda: store.put_raw(row),
        lambda: store.get_raw(row[0]) == row,
    )


def _put_study(tmp_path, pair):
    store = ResultStore(tmp_path / "s.db")
    return (
        store._conn(),
        "INSERT ON studies",
        lambda: store.put_study("st", {"n": 1}, "sk", "ccd", [[0.0]], ["k"]),
        lambda: store.get_study("st") is not None,
    )


def _gc(tmp_path, pair):
    store = ResultStore(tmp_path / "s.db")
    store.put(*pair)
    return (
        store._conn(),
        "DELETE ON results",
        lambda: store.gc(older_than_days=0.0),
        lambda: len(store) == 0,
    )


def _campaign_create(tmp_path, pair):
    store = ResultStore(tmp_path / "s.db")
    return (
        store._conn(),
        "INSERT ON campaigns",
        lambda: Campaign.create(store, "camp", [pair[0]]),
        lambda: store.campaign_names() == ["camp"],
    )


def _job_submit(tmp_path, pair):
    queue = JobQueue(ResultStore(tmp_path / "s.db"))
    return (
        queue.store._conn(),
        "INSERT ON jobs",
        lambda: queue.submit(pair[0].to_dict()),
        lambda: queue.count() == 1,
    )


def _job_claim(tmp_path, pair):
    queue = JobQueue(ResultStore(tmp_path / "s.db"))
    queue.submit(pair[0].to_dict())
    return (
        queue.store._conn(),
        "UPDATE ON jobs",
        lambda: queue.claim("w1"),
        lambda: queue.counts()["running"] == 1,
    )


def _coord_create(tmp_path, pair):
    journal = CoordJournal(ResultStore(tmp_path / "s.db"))
    return (
        journal.store._conn(),
        "INSERT ON coord_runs",
        lambda: journal.create("run", {"n": 1}, 2),
        lambda: journal.get("run") is not None,
    )


def _coord_update(tmp_path, pair):
    journal = CoordJournal(ResultStore(tmp_path / "s.db"))
    journal.create("run", {"n": 1}, 2)
    return (
        journal.store._conn(),
        "UPDATE ON coord_partitions",
        lambda: journal.update("run", 2, "running", worker="w1"),
        lambda: journal.partitions("run")[1].state == "running",
    )


def _sharded_put(tmp_path, pair):
    store = ShardedResultStore(tmp_path / "sharded", shards=3)
    seed = 0
    while shard_index(_scenario(seed).cache_key(), 3) == 0:
        seed += 1
    scenario = _scenario(seed)
    result = run(scenario)
    return (
        store._shard_for(scenario.cache_key())._conn(),
        "INSERT ON results",
        lambda: store.put(scenario, result),
        lambda: scenario in store,
    )


CASES = {
    "put": _put,
    "put_raw": _put_raw,
    "put_study": _put_study,
    "gc": _gc,
    "campaign_create": _campaign_create,
    "job_submit": _job_submit,
    "job_claim": _job_claim,
    "coord_create": _coord_create,
    "coord_update": _coord_update,
    "sharded_put": _sharded_put,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_self_rolled_back_write_raises_its_own_error(case, tmp_path, pair):
    conn, target, write, landed = CASES[case](tmp_path, pair)
    conn.execute(
        f"CREATE TRIGGER veto BEFORE {target} "
        "BEGIN SELECT RAISE(ROLLBACK, 'vetoed'); END"
    )
    with pytest.raises(sqlite3.IntegrityError, match="vetoed"):
        write()
    assert not conn.in_transaction
    assert not landed()

    conn.execute("DROP TRIGGER veto")
    write()
    assert landed()
