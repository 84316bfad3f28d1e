"""Telemetry wired through the stack: results identical, counters real.

The load-bearing contract is the differential test: a campaign run with
metrics and tracing enabled produces **byte-identical** store rows to a
run with telemetry off -- instrumentation only reads clocks and counts.
"""

import pytest

import repro.obs as obs
from repro.core.batch import BatchRunner
from repro.obs.report import summarize_events
from repro.obs.state import STATE
from repro.scenario import Scenario
from repro.store import Campaign, ResultStore
from repro.store.merge import merge_stores
from repro.store.shard import ShardedResultStore


def _scenarios(n=3, horizon=900.0):
    return [Scenario(seed=i, horizon=horizon) for i in range(n)]


def _campaign_rows(tmp_path, label, telemetry_on, events=None):
    STATE.metrics_on = telemetry_on
    store = ResultStore(tmp_path / f"{label}.db")
    if events is not None:
        obs.configure(events=str(events))
    campaign = Campaign.create(store, "diff", _scenarios())
    campaign.run(chunk_size=2)
    return sorted((row[0], row[12]) for row in store.iter_raw())  # key, payload


def test_results_are_byte_identical_with_telemetry_on(clean_obs, tmp_path):
    baseline = _campaign_rows(tmp_path, "off", telemetry_on=False)
    obs.metrics().reset()  # other tests share the process-global registry
    instrumented = _campaign_rows(
        tmp_path, "on", telemetry_on=True, events=tmp_path / "events.jsonl"
    )
    assert baseline == instrumented  # (key, canonical payload) pairs

    # The instrumented run actually collected telemetry.
    registry = obs.metrics()
    tier = registry.counter("repro_batch_tier_total", "", ("tier",))
    assert tier.value(tier="simulate") == 3
    runs = registry.counter("repro_sim_runs_total", "", ("backend",))
    assert runs.value(backend="envelope") == 3
    summary = summarize_events(tmp_path / "events.jsonl")
    assert summary.span_stats["campaign.run"].count == 1
    assert summary.span_stats["campaign.chunk"].count == 2
    assert summary.span_stats["batch.run"].count == 2
    assert summary.n_traces == 1  # chunks nest under one campaign trace


def test_batch_tier_counters_cover_all_three_tiers(clean_obs, tmp_path):
    STATE.metrics_on = True
    registry = obs.metrics()
    registry.reset()
    store = ResultStore(tmp_path / "tiers.db")
    runner = BatchRunner(store=store)
    scenarios = _scenarios(2, horizon=300.0)
    runner.run(scenarios)  # miss -> simulate
    runner.run(scenarios)  # memory hits
    fresh = BatchRunner(store=store)
    fresh.run(scenarios)  # store hits
    tier = registry.counter("repro_batch_tier_total", "", ("tier",))
    assert tier.value(tier="simulate") == 2
    assert tier.value(tier="memory") == 2
    assert tier.value(tier="store") == 2
    ops = registry.counter("repro_store_ops_total", "", ("op", "outcome"))
    assert ops.value(op="put", outcome="insert") == 2
    assert ops.value(op="get", outcome="hit") == 2


# envelope: one pool item per scenario; vectorized: one run_batch
# sub-batch per worker (two lanes each: the scalar integrator's side of
# the lockstep crossover).
@pytest.mark.parametrize("backend", ["envelope", "vectorized"])
def test_process_pool_metrics_merge_back(clean_obs, tmp_path, backend):
    obs.configure(metrics=True)  # mirrored to env for the workers
    registry = obs.metrics()
    registry.reset()
    runner = BatchRunner(jobs=2, executor="process", backend=backend)
    runner.run(_scenarios(4, horizon=300.0))
    runs = registry.counter("repro_sim_runs_total", "", ("backend",))
    assert runs.value(backend=backend) == 4
    if backend == "vectorized":
        assert runs.value(backend="envelope") == 0
    if backend == "envelope":
        # The scalar harvester counts its power evaluations; the
        # vectorized engine derives its harvest coefficients itself.
        evals = registry.counter("repro_harvester_power_evals_total", "")
        assert evals.value() > 0


@pytest.mark.parametrize("lanes", [1, 5])
def test_vectorized_runs_count_once_in_process(clean_obs, lanes):
    """A vectorized batch counts each scenario once, under its own
    backend, and counts and times each tuning session once, whether the
    scalar integrator (1 lane) or the lockstep engine (5 lanes, which
    reports its sessions in bulk when the run ends) ran it."""
    STATE.metrics_on = True
    registry = obs.metrics()
    registry.reset()
    results = BatchRunner(jobs=1, cache_size=0, backend="vectorized").run(
        _scenarios(lanes, horizon=900.0)
    )
    runs = registry.counter("repro_sim_runs_total", "", ("backend",))
    assert runs.value(backend="vectorized") == lanes
    assert runs.value(backend="envelope") == 0
    sessions = sum(len(result.tuning_events) for result in results)
    assert sessions >= lanes  # the 320 s watchdog fires within 900 s
    counted = registry.counter("repro_sim_tuning_sessions_total", "")
    timed = registry.histogram("repro_sim_session_seconds", "")
    assert counted.value() == sessions
    assert timed.count() == sessions


def test_power_evals_count_without_telemetry(clean_obs):
    from repro.backends import run

    evals = obs.metrics().counter("repro_harvester_power_evals_total", "")
    before = evals.value()
    result = run(Scenario(seed=0, horizon=300.0))
    assert result.transmissions >= 0  # the run happened; the counter is
    # always-on but private to the harvester instance, so the registry
    # stays untouched while metrics are off.
    assert evals.value() == before


def test_merge_and_shard_telemetry(clean_obs, tmp_path):
    STATE.metrics_on = True
    registry = obs.metrics()
    registry.reset()
    source = ResultStore(tmp_path / "src.db")
    BatchRunner(store=source).run(_scenarios(2, horizon=300.0))
    dest = ShardedResultStore(tmp_path / "sharded", shards=2)
    merge_stores(dest, source)
    merged = registry.counter(
        "repro_store_merge_rows_total", "", ("outcome",)
    )
    assert merged.value(outcome="imported") == 2
    route = registry.counter(
        "repro_store_shard_route_total", "", ("shard",)
    )
    assert sum(route.value(shard=str(i)) for i in range(2)) >= 2
    assert registry.gauge("repro_store_shards", "").value() == 2


def test_study_chunks_emit_spans(clean_obs, tmp_path):
    from dataclasses import replace

    from repro.core.study import Study, paper_study_spec

    obs.configure(events=str(tmp_path / "study.jsonl"))
    spec = replace(
        paper_study_spec(seed=3, n_runs=10, horizon=300.0), name="obs-study"
    )
    store = ResultStore(tmp_path / "study.db")
    Study(spec, store=store, chunk_size=8).run()
    summary = summarize_events(tmp_path / "study.jsonl")
    assert summary.span_stats["study.run"].count == 1
    assert summary.span_stats["study.chunk"].count >= 2
