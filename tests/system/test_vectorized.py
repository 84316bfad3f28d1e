"""Unit tests for the vectorized batch envelope backend.

Tests of the lockstep engine itself call :func:`simulate_batch`: the
backend's ``run``/``run_batch`` hand batches narrower than
:data:`LOCKSTEP_MIN_LANES` to the scalar integrator.
"""

import json
from dataclasses import replace

import pytest

from repro.backends import get_backend, quiet_options, run
from repro.errors import ConfigError
from repro.scenario import PartsSpec, Scenario, named_scenario
from repro.store.db import canonical_json
from repro.system import vectorized
from repro.system.components import paper_lut, paper_system, paper_tuning_map
from repro.system.config import SystemConfig
from repro.system.stochastic import named_family
from repro.system.vectorized import (
    LOCKSTEP_MIN_LANES,
    _lane_simulators,
    simulate_batch,
)
from repro.system.vibration import VibrationProfile


def _canonical(result) -> str:
    return json.dumps(result.to_payload(), sort_keys=True)


def _short(**overrides) -> Scenario:
    base = dict(
        config=SystemConfig(clock_hz=4e6, watchdog_s=120.0, tx_interval_s=2.0),
        profile=VibrationProfile.paper_profile(horizon=600.0),
        horizon=600.0,
        seed=5,
        backend="vectorized",
        options=quiet_options("vectorized"),
    )
    base.update(overrides)
    return Scenario(**base)


class TestSharedPhysicsParts:
    def test_matches_paper_system(self):
        # The shared pair must stay equal to a fresh characterisation.
        shared = PartsSpec(v_init=2.72, initial_frequency=66.0).build()
        tuning_map = paper_tuning_map()
        lut = paper_lut(tuning_map)
        assert shared.lut.positions == lut.positions
        assert shared.microgenerator.tuning_map.resonant_frequency(
            100
        ) == tuning_map.resonant_frequency(100)
        assert shared.microgenerator.position == lut.lookup(66.0)

    def test_explicit_position_override(self):
        parts = PartsSpec(initial_position=37).build()
        assert parts.microgenerator.position == 37

    def test_lanes_do_not_share_mutable_state(self):
        a = PartsSpec().build()
        b = PartsSpec().build()
        a.microgenerator.actuator.move_steps(5)
        a.store.draw(0.1)
        assert b.microgenerator.actuator.total_steps_moved == 0
        assert b.store.energy != a.store.energy
        # The heavyweight immutable physics *is* shared.
        assert a.lut is b.lut
        assert a.microgenerator.tuning_map is b.microgenerator.tuning_map

    @pytest.mark.parametrize("backend", ["envelope", "detailed", "vectorized"])
    def test_simulators_share_the_calibrated_physics(self, backend):
        from repro.backends import _construct
        from repro.system.detailed import DetailedSimulator
        from repro.system.envelope import EnvelopeSimulator

        scenarios = [
            Scenario(horizon=0.1, backend=backend),
            Scenario(horizon=0.1, backend=backend, parts=PartsSpec(v_init=2.7)),
        ]
        if backend == "vectorized":
            sims = _lane_simulators(scenarios)
        else:
            cls = EnvelopeSimulator if backend == "envelope" else DetailedSimulator
            sims = [_construct(cls, scenario) for scenario in scenarios]
        reference = paper_system()
        for sim in sims:
            assert sim.parts.lut is reference.lut
            tuning_map = sim.parts.microgenerator.tuning_map
            assert tuning_map is reference.microgenerator.tuning_map
        # Each simulator has its own store and actuator.
        parts = [reference] + [sim.parts for sim in sims]
        assert len({id(p.store) for p in parts}) == 3
        assert len({id(p.microgenerator.actuator) for p in parts}) == 3


class TestBackendContract:
    def test_simulate_equals_batch_of_one(self):
        scenario = _short()
        backend = get_backend("vectorized")
        assert _canonical(backend.simulate(scenario)) == _canonical(
            backend.run_batch([scenario])[0]
        )

    def test_empty_batch(self):
        assert simulate_batch([]) == []

    def test_heterogeneous_batch_matches_scalar(self):
        scenarios = [
            _short(),
            _short(
                config=SystemConfig(
                    clock_hz=1e6, watchdog_s=300.0, tx_interval_s=0.5
                ),
                seed=9,
            ),
            _short(
                parts=PartsSpec(v_init=2.45),
                horizon=450.0,
                profile=None,
            ),
        ]
        batched = simulate_batch(scenarios)
        for scenario, got in zip(scenarios, batched):
            want = run(replace(scenario, backend="envelope"))
            assert _canonical(got) == _canonical(want)

    def test_dt_max_option_matches_envelope(self):
        scenario = _short(options={"dt_max": 0.5, "record_traces": False})
        (got,) = simulate_batch([scenario])
        want = run(replace(scenario, backend="envelope"))
        assert _canonical(got) == _canonical(want)

    def test_traces_match_envelope(self):
        scenario = _short(options={})
        (got,) = simulate_batch([scenario])
        want = run(replace(scenario, backend="envelope"))
        assert json.dumps(got.traces.to_payload(), sort_keys=True) == json.dumps(
            want.traces.to_payload(), sort_keys=True
        )

    def test_unknown_option_is_config_error(self):
        scenario = _short(options={"points_per_cycle": 10})
        with pytest.raises(ConfigError, match="vectorized.*points_per_cycle"):
            run(scenario)

    def test_bad_dt_max_propagates(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="dt_max"):
            run(_short(options={"dt_max": -1.0}))

    def test_deterministic_across_calls(self):
        scenario = _short(seed=11)
        assert _canonical(run(scenario)) == _canonical(run(scenario))

    def test_cache_keys_are_backend_specific(self):
        """Vectorized rows never squat an envelope row (and vice versa):
        the backend is part of the scenario identity."""
        scenario = named_scenario("paper")
        assert (
            replace(scenario, backend="vectorized").cache_key()
            != scenario.cache_key()
        )


def test_runaway_guard_resets_per_event_stretch(monkeypatch):
    """Regression: the iteration guard must bound one inter-event
    stretch (like the scalar integrator's per-_integrate_until guard),
    not the whole run -- otherwise legitimately long runs with small
    dt_max abort on vectorized while envelope completes them."""
    import repro.system.vectorized as vec

    monkeypatch.setattr(vec, "_MAX_ITERATIONS", 100)
    # ~60 steps per watchdog stretch (< 100), ~5 stretches (> 100 total).
    scenario = _short(
        config=SystemConfig(clock_hz=4e6, watchdog_s=60.0, tx_interval_s=2.0),
        horizon=300.0,
        options={"dt_max": 1.0, "record_traces": False},
    )
    (result,) = simulate_batch([scenario])
    assert result.horizon >= 300.0 - 1e-9


@pytest.mark.parametrize("traces", [True, False], ids=["traces-on", "traces-off"])
@pytest.mark.parametrize("lanes", [1, 4, 5, 16])
def test_run_batch_bytes_match_engine_and_envelope(monkeypatch, lanes, traces):
    """Either side of the lockstep crossover, the backend's batch, the
    engine's batch and scalar envelope runs give the same payload bytes,
    and only batches of LOCKSTEP_MIN_LANES or more reach the engine."""
    family = named_family("factory-floor")
    scenarios = [
        replace(
            s,
            horizon=600.0,
            backend="vectorized",
            options={"record_traces": traces},
        )
        for s in family.expand(n=lanes, seed=21)
    ]
    assert len(scenarios) == lanes
    engine_lanes = []
    engine_run = vectorized.VectorizedEnvelopeEngine.run

    def counted(engine):
        engine_lanes.append(len(engine.sims))
        return engine_run(engine)

    monkeypatch.setattr(vectorized.VectorizedEnvelopeEngine, "run", counted)

    def payloads(results):
        return [canonical_json(r.to_payload()) for r in results]

    backend = payloads(get_backend("vectorized").run_batch(scenarios))
    assert engine_lanes == ([lanes] if lanes >= LOCKSTEP_MIN_LANES else [])
    engine = payloads(simulate_batch(scenarios))
    envelope = payloads(
        [run(replace(s, backend="envelope")) for s in scenarios]
    )
    assert backend == envelope
    assert engine == envelope
