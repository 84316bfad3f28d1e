"""Merging stores and partitioned campaign execution.

Two contracts under test:

- **merge/sync** (:mod:`repro.store.merge`): rows move between stores
  by raw byte copy, identical keys dedupe, a key whose canonical bytes
  differ between the two stores is a hard :class:`StoreError` (naming
  both provenances), and campaign/study journals merge with the same
  identical-or-refuse semantics;
- **partitioned execution** (:func:`partition_scenarios` slices run as
  campaigns named :func:`partition_name`): disjoint slices with the
  *same* full-list seed resolution as a single-store run, so
  separately-written partition stores merge back into a canonical
  store that is byte-identical to the one a single process would have
  produced -- kill-safe, with zero re-simulation.
"""

import multiprocessing

from dataclasses import replace

import pytest

from repro.backends import EnvelopeBackend, register_backend, run
from repro.cli import main
from repro.core.batch import partition_slices
from repro.errors import SimulationError, StoreError
from repro.scenario import PartsSpec, Scenario
from repro.store import (
    Campaign,
    ResultStore,
    ShardedResultStore,
    merge_stores,
    partition_name,
    partition_scenarios,
    sync_stores,
)
from repro.system.config import SystemConfig
from repro.system.stochastic import named_family


class CountingBackend:
    """Envelope backend that logs (and can crash after) N simulations."""

    name = "merge-counting"

    simulated = []
    crash_after = None

    def simulate(self, scenario):
        if (
            CountingBackend.crash_after is not None
            and len(CountingBackend.simulated) >= CountingBackend.crash_after
        ):
            raise SimulationError("simulated crash (power loss)")
        CountingBackend.simulated.append(scenario.cache_key())
        return EnvelopeBackend().simulate(replace(scenario, backend="envelope"))


register_backend("merge-counting", CountingBackend, overwrite=True)


@pytest.fixture(autouse=True)
def _reset_counting_backend():
    CountingBackend.simulated = []
    CountingBackend.crash_after = None
    yield
    CountingBackend.simulated = []
    CountingBackend.crash_after = None


def _pairs(n=6, offset=0):
    pairs = []
    for i in range(offset, offset + n):
        scenario = Scenario(
            config=SystemConfig(tx_interval_s=0.5 + 0.5 * i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
        )
        pairs.append((scenario, run(scenario)))
    return pairs


# -- merge ---------------------------------------------------------------------


def test_merge_imports_missing_and_dedupes_identical(tmp_path):
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    shared = _pairs(3)
    only_b = _pairs(3, offset=10)
    for scenario, result in shared:
        a.put(scenario, result)
        b.put(scenario, result)
    for scenario, result in only_b:
        b.put(scenario, result)

    report = merge_stores(a, b)
    assert report.imported == 3
    assert report.identical == 3
    assert len(a) == 6
    # Byte identity end to end.
    for key in b.keys():
        assert a.get_payload_text(key) == b.get_payload_text(key)
    # Idempotent: a second merge moves nothing.
    again = merge_stores(a, b)
    assert again.imported == 0
    assert again.identical == 6


def test_merge_refuses_divergent_bytes_naming_both_stores(tmp_path):
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    scenario, result = _pairs(1)[0]
    a.put(scenario, result)
    b.put(scenario, result)
    key = scenario.cache_key()
    conn = b._conn()
    conn.execute(
        "UPDATE results SET payload=? WHERE key=?", ('{"tampered": 1}', key)
    )
    conn.commit()
    with pytest.raises(StoreError) as excinfo:
        merge_stores(a, b)
    message = str(excinfo.value)
    assert key in message
    assert "a.db" in message and "b.db" in message
    assert "payload" in message


def test_merge_campaign_journals_identical_or_refused(tmp_path):
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    scenarios = [s for s, _ in _pairs(4)]
    Campaign.create(b, "camp", scenarios, source="b side")

    report = merge_stores(a, b)
    assert report.campaigns_imported == 1
    assert Campaign(a, "camp").scenarios() == scenarios
    # Same name, same journal on both sides: shared, not re-imported.
    report = merge_stores(a, b)
    assert report.campaigns_imported == 0
    assert report.campaigns_shared == 1
    # Same name, different journal: refused with the name in the error.
    c = ResultStore(tmp_path / "c.db")
    Campaign.create(c, "camp", scenarios[:2], source="c side")
    with pytest.raises(StoreError, match="'camp'"):
        merge_stores(a, c)


def test_merge_study_journals_identical_or_refused(tmp_path):
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    b.put_study("st", {"n": 1}, "speckey", "ccd", [[0.0]], ["k1", "k2"])
    report = merge_stores(a, b)
    assert report.studies_imported == 1
    assert a.get_study("st") is not None
    assert merge_stores(a, b).studies_shared == 1
    c = ResultStore(tmp_path / "c.db")
    c.put_study("st", {"n": 1}, "speckey", "ccd", [[0.0]], ["k1", "k3"])
    with pytest.raises(StoreError, match="'st'"):
        merge_stores(a, c)


def test_merge_journals_false_copies_rows_only(tmp_path):
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    pairs = _pairs(3)
    for scenario, result in pairs:
        b.put(scenario, result)
    Campaign.create(b, "camp", [s for s, _ in pairs])
    report = merge_stores(a, b, journals=False)
    assert report.imported == 3
    assert report.campaigns_imported == 0
    from repro.store import campaign_names

    assert campaign_names(a) == []


def test_sync_converges_both_stores(tmp_path):
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    for scenario, result in _pairs(2):
        a.put(scenario, result)
    for scenario, result in _pairs(2, offset=10):
        b.put(scenario, result)
    reports = sync_stores(a, b)
    assert len(reports) == 2
    assert a.keys() == b.keys()
    assert len(a) == 4


@pytest.mark.parametrize("shape", ["plain", "sharded"])
def test_merged_journals_keep_every_column(tmp_path, shape):
    source = ResultStore(tmp_path / "source.db")
    Campaign.create(
        source, "camp", [s for s, _ in _pairs(3)], source="the source side"
    )
    source.put_study(
        "st",
        {"n": 1, "x": [0.1, 1e-07, 2.5e16, -0.0]},
        "speckey",
        "ccd",
        [[0.0, -1.5, 1.0 / 3.0]],
        ["k1", "k2"],
    )
    if shape == "plain":
        dest = ResultStore(tmp_path / "dest.db")
    else:
        dest = ShardedResultStore(tmp_path / "dest.d", shards=3)
    merge_stores(dest, source)
    # Provenance included: source label, created_at and created_unix.
    for table, order in (
        ("campaigns", "name"),
        ("campaign_scenarios", "campaign, idx"),
        ("studies", "name"),
    ):
        sql = f"SELECT * FROM {table} ORDER BY {order}"
        rows = source._conn().execute(sql).fetchall()
        assert rows
        assert dest._conn().execute(sql).fetchall() == rows, table


# -- multi-source dry runs -----------------------------------------------------


def _overlapping_sources(tmp_path):
    """Empty ``dest.db`` plus ``a.db`` and ``b.db`` holding the same two
    rows and the same campaign journal; returns the three paths."""
    pairs = _pairs(2)
    for label in ("a", "b"):
        store = ResultStore(tmp_path / f"{label}.db")
        for scenario, result in pairs:
            store.put(scenario, result)
        Campaign.create(store, "camp", [s for s, _ in pairs], source=label)
    ResultStore(tmp_path / "dest.db")
    return [str(tmp_path / f"{label}.db") for label in ("dest", "a", "b")]


def _merge_lines(capsys, paths, *flags):
    assert main(["store", "merge", *paths, *flags]) == 0
    return capsys.readouterr().out.splitlines()


def test_multi_source_dry_run_counts_an_identical_overlap_once(tmp_path, capsys):
    paths = _overlapping_sources(tmp_path)
    first, second = _merge_lines(capsys, paths, "--dry-run")
    assert "2 row(s) to import, 0 already present" in first
    assert "0 row(s) to import, 2 already present" in second
    # The dry run predicts the real merge line for line.
    real = _merge_lines(capsys, paths)
    assert [
        line.replace("would merge", "merged").replace(" to import,", " imported,")
        for line in (first, second)
    ] == real


def test_multi_source_dry_run_counts_a_shared_journal_as_shared(tmp_path, capsys):
    paths = _overlapping_sources(tmp_path)
    first, second = _merge_lines(capsys, paths, "--dry-run")
    assert "campaigns: 1 imported, 0 shared" in first
    assert "campaigns: 0 imported, 1 shared" in second


def test_multi_source_dry_run_lists_a_conflict_between_sources(tmp_path, capsys):
    paths = _overlapping_sources(tmp_path)
    b = ResultStore(paths[2])
    key = sorted(b.keys())[0]
    with b._transaction() as conn:
        conn.execute(
            "UPDATE results SET payload=payload || ' ' WHERE key=?", (key,)
        )
    first, second = _merge_lines(capsys, paths, "--dry-run")
    assert "REFUSES" not in first
    assert f"REFUSES: 1 diverging row(s) ({key[:12]})" in second
    assert "1 already present" in second
    assert main(["store", "merge", *paths]) == 1
    assert key in capsys.readouterr().err


# -- partitioning --------------------------------------------------------------


def test_partition_slices_are_contiguous_and_cover(tmp_path):
    assert partition_slices(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_slices(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(Exception):
        partition_slices(3, 4)  # more parts than scenarios


def test_partition_seed_resolution_matches_single_run(tmp_path):
    family = replace(named_family("hvac"), horizon=60.0)
    scenarios = family.expand(n=8, seed=2)
    store = ResultStore(tmp_path / "ref.db")
    reference = Campaign.create(store, "ref", scenarios)
    reference_keys = [s.cache_key() for s in reference.scenarios()]
    # Concatenating the partition slices reproduces the reference keys
    # exactly: seeds resolve over the FULL list before slicing.
    sliced = []
    for group in partition_scenarios(scenarios, 3):
        sliced.extend(s.cache_key() for s in group)
    assert sliced == reference_keys
    assert partition_name("ref", 2, 3) == "ref@p2of3"


def test_campaign_partition_objects_cover_disjointly(tmp_path):
    store = ResultStore(tmp_path / "store.db")
    family = replace(named_family("hvac"), horizon=60.0)
    campaign = Campaign.create(store, "part", family.expand(n=7, seed=1))
    parts = [
        (partition_name("part", i + 1, 3), group)
        for i, group in enumerate(partition_scenarios(campaign.scenarios(), 3))
    ]
    assert [name for name, _ in parts] == [
        "part@p1of3", "part@p2of3", "part@p3of3"
    ]
    keys = [s.cache_key() for _, group in parts for s in group]
    assert keys == [s.cache_key() for s in campaign.scenarios()]
    assert len(set(keys)) == len(keys)


# -- the acceptance path: two processes, a kill, a resume, one merge -----------


def _run_partition_process(part, path, crash_after, queue):
    """Child body: run one ``(name, scenarios)`` partition against its
    own store, report the number of scenarios this process actually
    simulated."""
    CountingBackend.simulated = []
    CountingBackend.crash_after = crash_after
    store = ResultStore(path)
    name, scenarios = part
    try:
        Campaign.create(store, name, scenarios, exist_ok=True).run(
            jobs=1, chunk_size=2
        )
        queue.put(("done", len(CountingBackend.simulated)))
    except SimulationError:
        queue.put(("crashed", len(CountingBackend.simulated)))


def _spawn(ctx, part, path, crash_after, queue):
    process = ctx.Process(
        target=_run_partition_process, args=(part, path, crash_after, queue)
    )
    process.start()
    process.join(timeout=120)
    assert not process.is_alive()
    return queue.get(timeout=10)


def test_partitioned_kill_resume_merge_is_byte_identical(tmp_path):
    family = replace(
        named_family("factory-floor"), horizon=60.0, backend="merge-counting"
    )
    scenarios = family.expand(n=12, seed=3)

    # Reference: one process, one store.
    single = ResultStore(tmp_path / "single.db")
    CountingBackend.simulated = []
    reference = Campaign.create(single, "acc", scenarios)
    reference.run(jobs=1)
    assert len(CountingBackend.simulated) == 12

    # Partitioned: two processes, two private stores; partition 1 is
    # killed mid-run and then resumed.
    parts = [
        (partition_name("acc", i + 1, 2), group)
        for i, group in enumerate(partition_scenarios(scenarios, 2))
    ]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    paths = [tmp_path / "p1.db", tmp_path / "p2.db"]

    state, simulated = _spawn(ctx, parts[0], paths[0], 3, queue)
    assert state == "crashed"
    partial = len(ResultStore(paths[0]))
    assert 0 < partial < len(parts[0][1])

    state, resumed = _spawn(ctx, parts[0], paths[0], None, queue)
    assert state == "done"
    # The resume simulated only what the kill left missing.
    assert resumed == len(parts[0][1]) - partial
    state, simulated2 = _spawn(ctx, parts[1], paths[1], None, queue)
    assert state == "done"
    assert simulated2 == len(parts[1][1])

    # Merge both partition stores into a sharded canonical store.
    canonical = ShardedResultStore(tmp_path / "canonical", shards=4)
    merge_stores(canonical, ResultStore(paths[0]), journals=False)
    merge_stores(canonical, ResultStore(paths[1]), journals=False)

    # The final canonical pass journals the campaign and simulates
    # NOTHING: every row is already present.
    CountingBackend.simulated = []
    final = Campaign.create(canonical, "acc", scenarios)
    final.run(jobs=1)
    assert CountingBackend.simulated == []
    assert final.status().complete

    # Byte identity against the single-store reference, row for row.
    assert canonical.keys() == single.keys()
    for key in single.keys():
        assert canonical.get_payload_text(key) == single.get_payload_text(key)
        assert canonical.get_scenario(key) == single.get_scenario(key)
    # And the campaign journal matches too: same order, same keys.
    assert [s.cache_key() for s in final.scenarios()] == [
        s.cache_key() for s in reference.scenarios()
    ]
