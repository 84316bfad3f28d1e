"""Property-based tests (Hypothesis) for the vectorized integrator.

Mirrors ``test_envelope_invariants.py`` for the lockstep batch engine:
the same physical invariants must hold over *generated* firmware
configurations and regime-switching vibration profiles --

- energy conservation (the audit's imbalance stays at rounding level),
- the storage voltage stays inside [0, v_max],
- simulated time advances monotonically and covers the horizon,
- sliding-mode pinning at the policy thresholds,

-- plus the property that is this backend's whole contract: on any
generated input, a vectorized run agrees with a scalar envelope run of
the same scenario within the differential harness's rounding-level
tolerances, whether the scenario runs alone or inside a batch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenario import PartsSpec, Scenario
from repro.system.config import SystemConfig
from repro.system.stochastic import EnvironmentState, RegimeSwitchingVibration
from repro.system.vibration import VibrationProfile
from repro.system.vectorized import simulate_batch
from repro.units import mg_to_mps2

#: Absolute energy-audit tolerance (J); observed residuals are ~1e-14.
IMBALANCE_TOL = 1e-9

configs = st.builds(
    SystemConfig,
    clock_hz=st.floats(125e3, 8e6),
    watchdog_s=st.floats(60.0, 600.0),
    tx_interval_s=st.floats(0.05, 10.0),
)

generators = st.builds(
    RegimeSwitchingVibration,
    states=st.lists(
        st.builds(
            EnvironmentState,
            name=st.just("s"),
            frequency_hz=st.tuples(st.floats(60.0, 70.0), st.just(80.0)),
            accel_mg=st.tuples(st.floats(0.0, 40.0), st.floats(40.0, 120.0)),
            dwell_s=st.tuples(st.floats(10.0, 60.0), st.floats(60.0, 200.0)),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    jitter_mg=st.floats(0.0, 10.0),
    drift_hz_per_hour=st.floats(0.0, 10.0),
    dropout_prob=st.floats(0.0, 0.3),
    burst_prob=st.floats(0.0, 0.3),
    resolution_s=st.floats(10.0, 60.0),
)

slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)


def _scenario(config, profile, horizon, seed, v_init=2.65, record_traces=True):
    return Scenario(
        config=config,
        parts=PartsSpec(v_init=v_init, initial_frequency=profile.frequency(0.0)),
        profile=profile,
        horizon=horizon,
        seed=seed,
        backend="vectorized",
        options={"record_traces": record_traces},
    )


class TestGeneratedConfigsAndProfiles:
    @slow
    @given(
        config=configs,
        generator=generators,
        gen_seed=st.integers(0, 2**31 - 1),
        horizon=st.floats(60.0, 300.0),
    )
    def test_physical_invariants(self, config, generator, gen_seed, horizon):
        profile = generator.generate(horizon, seed=gen_seed)
        (result,) = simulate_batch(
            [_scenario(config, profile, horizon, gen_seed)]
        )

        # Energy conservation: every joule is accounted for.
        assert abs(result.breakdown.imbalance()) <= IMBALANCE_TOL

        # Voltage bounded by physics at every traced point.
        v = result.traces.trace("v_store").values
        assert float(np.min(v)) >= 0.0
        assert float(np.max(v)) <= 3.6 + 1e-9

        # Monotone time advance over the full horizon (a run may end a
        # little late if a tuning session straddles the horizon).
        t = result.traces.trace("v_store").times
        assert np.all(np.diff(t) >= 0.0)
        assert result.horizon >= horizon - 1e-9

        assert result.transmissions >= 0

    @slow
    @given(
        config=configs,
        generator=generators,
        gen_seed=st.integers(0, 2**31 - 1),
        horizon=st.floats(60.0, 240.0),
    )
    def test_agrees_with_scalar_envelope(self, config, generator, gen_seed, horizon):
        """The contract: a lockstep run is the scalar run, re-expressed.

        The scenario runs (a) on the scalar envelope backend, (b) alone
        on the vectorized engine and (c) embedded in a batch next to a
        decoy lane; all three must tell the same story to rounding
        level, including the regime-switching profile's segment
        boundaries and the session RNG stream.
        """
        from dataclasses import replace

        from repro.backends import run

        profile = generator.generate(horizon, seed=gen_seed)
        scenario = _scenario(
            config, profile, horizon, gen_seed, record_traces=False
        )
        envelope = run(replace(scenario, backend="envelope"))
        (alone,) = simulate_batch([scenario])
        decoy = _scenario(
            SystemConfig(4e6, 320.0, 5.0),
            VibrationProfile.constant(64.0, accel_mg=60.0),
            horizon,
            seed=0,
            record_traces=False,
        )
        batched = simulate_batch([decoy, scenario])[1]

        for got in (alone, batched):
            assert got.transmissions == envelope.transmissions
            assert got.final_voltage == pytest.approx(
                envelope.final_voltage, abs=1e-9
            )
            assert got.horizon == pytest.approx(envelope.horizon, rel=1e-12)
            assert got.breakdown.harvested == pytest.approx(
                envelope.breakdown.harvested, rel=1e-9, abs=1e-12
            )


class TestJobsComposition:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ],
    )
    @given(
        config=configs,
        generator=generators,
        gen_seed=st.integers(0, 2**31 - 1),
        horizon=st.floats(60.0, 180.0),
        n_lanes=st.integers(2, 5),
        jobs=st.integers(2, 4),
    )
    def test_sharded_batch_is_byte_identical(
        self, config, generator, gen_seed, horizon, n_lanes, jobs
    ):
        """jobs=N x run_batch lockstep: on any generated workload, the
        N-worker sharded dispatch returns exactly the payloads (traces
        and tuning log included) of the single-call batch, which in turn
        equal the scalar envelope reference lane for lane."""
        import json
        from dataclasses import replace

        from repro.backends import run
        from repro.core.batch import BatchRunner

        profile = generator.generate(horizon, seed=gen_seed)
        scenarios = [
            _scenario(config, profile, horizon, seed=gen_seed + lane)
            for lane in range(n_lanes)
        ]

        def payloads(results):
            return [json.dumps(r.to_payload(), sort_keys=True) for r in results]

        want = payloads(
            [run(replace(s, backend="envelope")) for s in scenarios]
        )
        one_call = payloads(
            BatchRunner(jobs=1, cache_size=0).run(scenarios)
        )
        sharded = payloads(
            BatchRunner(jobs=jobs, cache_size=0, executor="thread").run(
                scenarios
            )
        )
        assert want == one_call
        assert one_call == sharded


class TestSlidingMode:
    @slow
    @given(
        accel_mg=st.floats(52.0, 80.0),
        frequency=st.floats(62.0, 70.0),
        tx_interval=st.floats(0.3, 2.0),
    )
    def test_voltage_pins_at_fast_threshold(self, accel_mg, frequency, tx_interval):
        """If harvest lies strictly between the two bands' total drains
        at v_fast, the lockstep integrator must hold the voltage there,
        exactly like the scalar integrator's sliding mode."""
        from repro.system.components import paper_system

        config = SystemConfig(
            clock_hz=4e6, watchdog_s=600.0, tx_interval_s=tx_interval
        )
        parts = paper_system(v_init=2.8, initial_frequency=frequency)
        policy = parts.policy(config.tx_interval_s)
        thr = policy.v_fast

        p_h = parts.microgenerator.charging_power(
            frequency, mg_to_mps2(accel_mg), thr
        )
        p_sleep = parts.node.sleep_power(thr) + parts.mcu(config.clock_hz).sleep_power()
        e_tx = parts.node.transmission_energy(thr)
        drain_fast = e_tx / policy.fast_interval
        drain_mid = e_tx / policy.mid_interval
        if not (drain_mid + p_sleep < p_h < drain_fast + p_sleep):
            return  # not a sliding configuration; nothing to pin

        profile = VibrationProfile.constant(frequency, accel_mg=accel_mg)
        scenario = _scenario(
            config, profile, 120.0, seed=3, v_init=2.8, record_traces=True
        )
        (result,) = simulate_batch([scenario])
        v = np.asarray(result.traces.trace("v_store").values)
        t = np.asarray(result.traces.trace("v_store").times)
        settled = v[t >= 30.0]
        assert settled.size > 0
        assert np.all(np.abs(settled - thr) < 1e-6), (
            f"voltage should pin at {thr} V "
            f"(max deviation {np.max(np.abs(settled - thr)):.2e})"
        )
