"""BatchRunner: determinism across worker counts, seeding, LRU cache."""

import pytest

from repro.core.batch import BatchRunner
from repro.errors import ConfigError
from repro.scenario import PartsSpec, Scenario
from repro.system.config import SystemConfig


def _scenarios(n=6, horizon=120.0):
    """Short envelope runs that actually transmit (start above 2.8 V)."""
    return [
        Scenario(
            config=SystemConfig(
                clock_hz=1e6, watchdog_s=300.0, tx_interval_s=0.5 + 0.5 * i
            ),
            parts=PartsSpec(v_init=2.85),
            horizon=horizon,
            seed=None,
            name=f"case-{i}",
        )
        for i in range(n)
    ]


def test_serial_matches_four_workers():
    """The acceptance property: jobs=4 reproduces the serial run exactly."""
    serial = BatchRunner(jobs=1, seed=9).run(_scenarios())
    parallel = BatchRunner(jobs=4, seed=9).run(_scenarios())
    assert [r.transmissions for r in serial] == [r.transmissions for r in parallel]
    assert [r.final_voltage for r in serial] == [r.final_voltage for r in parallel]


def test_thread_executor_matches_process_executor():
    serial = BatchRunner(jobs=1, seed=9).run(_scenarios(4))
    threaded = BatchRunner(jobs=4, seed=9, executor="thread").run(_scenarios(4))
    assert [r.transmissions for r in serial] == [r.transmissions for r in threaded]


def test_seed_resolution_is_deterministic_and_positional():
    runner = BatchRunner(seed=5)
    resolved = runner.resolve_seeds(_scenarios(3))
    again = runner.resolve_seeds(_scenarios(3))
    assert [s.seed for s in resolved] == [s.seed for s in again]
    assert all(s.seed is not None for s in resolved)
    assert len({s.seed for s in resolved}) == 3
    # A different base seed derives different streams.
    other = BatchRunner(seed=6).resolve_seeds(_scenarios(3))
    assert [s.seed for s in other] != [s.seed for s in resolved]


def test_explicit_seeds_left_untouched():
    scenario = Scenario(horizon=60.0, seed=123)
    (resolved,) = BatchRunner(seed=5).resolve_seeds([scenario])
    assert resolved.seed == 123


def test_cache_serves_repeats_without_resimulating():
    runner = BatchRunner(jobs=1, seed=2)
    first = runner.run(_scenarios(3, horizon=60.0))
    assert runner.misses == 3 and runner.hits == 0
    second = runner.run(_scenarios(3, horizon=60.0))
    assert runner.misses == 3 and runner.hits == 3
    assert [r.transmissions for r in first] == [r.transmissions for r in second]
    runner.clear_cache()
    assert runner.cache_len() == 0


def test_duplicates_within_one_batch_simulated_once():
    runner = BatchRunner(jobs=1)
    scenario = Scenario(horizon=60.0, seed=1)
    results = runner.run([scenario, scenario, scenario])
    assert runner.misses == 1
    assert results[0] is results[1] is results[2]


def test_lru_eviction():
    runner = BatchRunner(jobs=1, cache_size=2)
    runner.run(_scenarios(3, horizon=60.0))
    assert runner.cache_len() == 2


def test_cache_disabled():
    runner = BatchRunner(jobs=1, cache_size=0)
    scenario = Scenario(horizon=60.0, seed=1)
    runner.run([scenario])
    runner.run([scenario])
    assert runner.cache_len() == 0
    assert runner.misses == 2


def test_run_one():
    result = BatchRunner(jobs=1).run_one(Scenario(horizon=60.0, seed=1))
    assert result.horizon == pytest.approx(60.0, abs=5.0)


def test_validation():
    with pytest.raises(ConfigError):
        BatchRunner(jobs=0)
    with pytest.raises(ConfigError):
        BatchRunner(cache_size=-1)
    with pytest.raises(ConfigError):
        BatchRunner(executor="fibers")


def test_objective_parallel_design_matches_serial():
    """SimulationObjective.evaluate_design via jobs=2 equals jobs=1."""
    import numpy as np

    from repro.core.paper import paper_objective

    pts = np.array(
        [[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [0.5, 0.5, -0.5]]
    )
    serial = paper_objective(seed=4, horizon=120.0).evaluate_design(pts)
    parallel = paper_objective(seed=4, horizon=120.0, jobs=2).evaluate_design(pts)
    assert np.array_equal(serial, parallel)


def test_monte_carlo_parallel_matches_serial():
    import numpy as np

    from repro.core.montecarlo import monte_carlo
    from repro.system.config import ORIGINAL_DESIGN

    serial = monte_carlo(ORIGINAL_DESIGN, n_samples=4, horizon=300.0, seed=3)
    parallel = monte_carlo(ORIGINAL_DESIGN, n_samples=4, horizon=300.0, seed=3, jobs=4)
    assert np.array_equal(serial.transmissions, parallel.transmissions)
    assert np.array_equal(serial.final_voltages, parallel.final_voltages)


# -- batch-capable backend dispatch and the backend override ------------------


def test_backend_override_validates_eagerly():
    with pytest.raises(ConfigError, match="unknown backend 'bogus'"):
        BatchRunner(backend="bogus")


def test_backend_override_rewrites_scenarios_and_keys():
    """The override is applied before seeding/caching, so the cache keys
    (and hence store rows) name the backend that actually ran."""
    runner = BatchRunner(jobs=1, seed=9, backend="vectorized")
    resolved = runner.resolve_seeds(_scenarios(n=2))
    assert all(s.backend == "vectorized" for s in resolved)
    plain = BatchRunner(jobs=1, seed=9).resolve_seeds(_scenarios(n=2))
    assert [s.cache_key() for s in resolved] != [s.cache_key() for s in plain]


def test_vectorized_runner_matches_envelope_runner():
    envelope = BatchRunner(jobs=1, seed=9).run(_scenarios())
    vectorized = BatchRunner(jobs=1, seed=9, backend="vectorized").run(
        _scenarios()
    )
    assert [r.transmissions for r in envelope] == [
        r.transmissions for r in vectorized
    ]
    assert [r.final_voltage for r in envelope] == [
        r.final_voltage for r in vectorized
    ]


def test_vectorized_batch_composes_with_jobs(monkeypatch):
    """With a batch-capable backend the runner hands the pending work
    over in one ``run_batch`` call at ``jobs=1``, and in one call *per
    worker* (contiguous shards) at ``jobs=N`` -- never per-scenario
    fan-out, and byte-identical results either way."""
    import json

    from repro import backends

    calls = []
    original = backends.VectorizedBackend.run_batch

    def spy(self, scenarios):
        calls.append(len(scenarios))
        return original(self, scenarios)

    monkeypatch.setattr(backends.VectorizedBackend, "run_batch", spy)
    serial = BatchRunner(jobs=1, seed=9, backend="vectorized")
    results = serial.run(_scenarios(n=5))
    assert len(results) == 5
    assert calls == [5]  # one call, whole batch

    calls.clear()
    # Threads keep the spy's call log in-process; the shard layout is
    # identical under the process executor.
    sharded = BatchRunner(jobs=4, seed=9, backend="vectorized", executor="thread")
    fanned = sharded.run(_scenarios(n=5))
    assert sorted(calls) == [1, 1, 1, 2]  # four workers, contiguous shards
    assert [json.dumps(r.to_payload(), sort_keys=True) for r in results] == [
        json.dumps(r.to_payload(), sort_keys=True) for r in fanned
    ]


def test_vectorized_runner_cache_and_store_tiers(tmp_path):
    """Memory LRU -> store -> simulate tiers and the store_hits counter
    keep their semantics under batch dispatch."""
    from repro.store import ResultStore

    store = ResultStore(tmp_path / "results.db")
    first = BatchRunner(jobs=1, seed=9, backend="vectorized", store=store)
    results = first.run(_scenarios(n=4))
    assert first.misses == 4 and first.store_hits == 0
    assert len(store) == 4

    # Same runner, same batch: memory tier serves everything.
    again = first.run(_scenarios(n=4))
    assert first.misses == 4 and first.hits == 4
    # Fresh runner, same store: disk tier serves everything.
    warm = BatchRunner(jobs=1, seed=9, backend="vectorized", store=store)
    warmed = warm.run(_scenarios(n=4))
    assert warm.misses == 0 and warm.store_hits == 4
    assert [r.transmissions for r in results] == [
        r.transmissions for r in again
    ] == [r.transmissions for r in warmed]


def test_mixed_backend_batch_dispatch():
    """A batch mixing plain and batch-capable backends comes back in
    submission order with per-backend execution."""
    from dataclasses import replace

    base = _scenarios(n=4)
    mixed = [
        base[0],
        replace(base[1], backend="vectorized"),
        base[2],
        replace(base[3], backend="vectorized"),
    ]
    resolved = BatchRunner(jobs=1, seed=9).resolve_seeds(mixed)
    results = BatchRunner(jobs=1, seed=9).run(mixed)
    singles = [BatchRunner(jobs=1, seed=9).run_one(s) for s in resolved]
    assert [r.transmissions for r in results] == [
        r.transmissions for r in singles
    ]
