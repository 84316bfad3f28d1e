"""Stochastic vibration generators and scenario families."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import BatchRunner
from repro.errors import ConfigError, DesignError, ModelError
from repro.scenario import Scenario, named_scenario
from repro.system.stochastic import (
    FAMILY_LIBRARY,
    EnvironmentState,
    FixedFamily,
    RegimeSwitchingVibration,
    StochasticFamily,
    family_names,
    manifest_scenarios,
    named_family,
)

STATE = EnvironmentState("on", (63.0, 66.0), (40.0, 80.0), (60.0, 300.0))


def _generator(**kwargs) -> RegimeSwitchingVibration:
    return RegimeSwitchingVibration(states=(STATE,), **kwargs)


class TestEnvironmentState:
    def test_scalar_ranges_accepted(self):
        s = EnvironmentState("x", 64.0, 60.0, 100.0)
        assert s.frequency_hz == (64.0, 64.0)
        assert s.accel_mg == (60.0, 60.0)

    def test_validation(self):
        with pytest.raises(ModelError):
            EnvironmentState("x", (66.0, 63.0), (0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ModelError):
            EnvironmentState("x", (0.0, 64.0), (0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ModelError):
            EnvironmentState("x", (63.0, 64.0), (-1.0, 1.0), (1.0, 2.0))
        with pytest.raises(ModelError):
            EnvironmentState("x", (63.0, 64.0), (0.0, 1.0), (0.0, 2.0))


class TestRegimeSwitchingVibration:
    def test_same_seed_same_profile(self):
        gen = _generator(jitter_mg=5.0, drift_hz_per_hour=1.0, dropout_prob=0.1)
        assert gen.generate(3600.0, seed=7) == gen.generate(3600.0, seed=7)

    def test_different_seeds_differ(self):
        gen = _generator(jitter_mg=5.0)
        assert gen.generate(3600.0, seed=1) != gen.generate(3600.0, seed=2)

    def test_segments_cover_horizon_on_resolution_grid(self):
        gen = _generator(resolution_s=30.0)
        profile = gen.generate(600.0, seed=0)
        starts = [s.t_start for s in profile.segments]
        assert starts[0] == 0.0
        assert starts == sorted(starts)
        assert starts[-1] < 600.0

    def test_frequencies_respect_drift_band(self):
        gen = _generator(drift_hz_per_hour=50.0, drift_band_hz=(60.0, 70.0))
        profile = gen.generate(3600.0, seed=3)
        lo, hi = profile.frequency_span()
        assert lo >= 60.0 and hi <= 70.0

    def test_dropout_produces_zero_accel_segments(self):
        gen = _generator(dropout_prob=0.5)
        profile = gen.generate(3600.0, seed=1)
        assert any(s.accel_mps2 == 0.0 for s in profile.segments)

    def test_burst_amplifies(self):
        quiet = _generator()
        loud = _generator(burst_prob=1.0, burst_gain=3.0)
        a = max(s.accel_mps2 for s in quiet.generate(600.0, seed=5).segments)
        b = max(s.accel_mps2 for s in loud.generate(600.0, seed=5).segments)
        assert b == pytest.approx(3.0 * a)

    def test_markov_transitions_visit_states(self):
        gen = RegimeSwitchingVibration(
            states=(
                EnvironmentState("a", 63.0, 10.0, (30.0, 30.0)),
                EnvironmentState("b", 70.0, 10.0, (30.0, 30.0)),
            ),
            transitions=((0.0, 1.0), (1.0, 0.0)),
            resolution_s=30.0,
        )
        profile = gen.generate(600.0, seed=0)
        freqs = {s.frequency_hz for s in profile.segments}
        assert freqs == {63.0, 70.0}

    def test_validation(self):
        with pytest.raises(ModelError):
            RegimeSwitchingVibration(states=())
        with pytest.raises(ModelError):
            _generator(dropout_prob=0.7, burst_prob=0.7)
        with pytest.raises(ModelError):
            _generator(resolution_s=0.0)
        with pytest.raises(ModelError):
            RegimeSwitchingVibration(states=(STATE,), transitions=((0.5, 0.5),))
        with pytest.raises(ModelError):
            RegimeSwitchingVibration(states=(STATE, STATE), transitions=((0.9, 0.0), (0.5, 0.5)))
        with pytest.raises(ModelError):
            _generator().generate(0.0, seed=1)

    def test_regime_outside_drift_band_rejected(self):
        # The band clamps base + drift; an out-of-band regime would be
        # silently rewritten to the band edge, so it must be rejected.
        motor = EnvironmentState("motor", (100.0, 120.0), (50.0, 80.0), (60.0, 300.0))
        with pytest.raises(ModelError, match="drift_band_hz"):
            RegimeSwitchingVibration(states=(motor,))
        # Widening the band makes the same regime legal.
        gen = RegimeSwitchingVibration(states=(motor,), drift_band_hz=(90.0, 130.0))
        lo, hi = gen.generate(600.0, seed=0).frequency_span()
        assert 100.0 <= lo and hi <= 120.0


class TestStochasticFamily:
    def _family(self, **kwargs) -> StochasticFamily:
        defaults = dict(name="fam", generator=_generator(), horizon=600.0)
        defaults.update(kwargs)
        return StochasticFamily(**defaults)

    def test_expansion_is_bit_identical(self):
        fam = self._family()
        a = fam.expand(n=3, seed=11)
        b = fam.expand(n=3, seed=11)
        assert [s.to_json() for s in a] == [s.to_json() for s in b]

    def test_expansion_differs_across_seeds_and_replicates(self):
        fam = self._family()
        a, b = fam.expand(n=2, seed=1)
        assert a.profile != b.profile
        assert a.seed != b.seed
        (c,) = fam.expand(n=1, seed=2)
        assert c.profile != a.profile

    def test_grid_crosses_config_axes(self):
        fam = self._family(
            grid={"tx_interval_s": (1.0, 5.0), "watchdog_s": (120.0, 320.0)}
        )
        scenarios = fam.expand(n=2, seed=0)
        assert len(scenarios) == 8  # 2 x 2 grid points x 2 replicates
        combos = {(s.config.tx_interval_s, s.config.watchdog_s) for s in scenarios}
        assert len(combos) == 4

    def test_unknown_grid_axis_rejected(self):
        with pytest.raises(ConfigError, match="grid axis"):
            self._family(grid={"not_a_field": (1.0,)})

    def test_v_init_sampled_in_range(self):
        fam = self._family(v_init=(2.70, 2.80))
        for s in fam.expand(n=5, seed=9):
            assert 2.70 <= s.parts.v_init <= 2.80

    def test_manifest_roundtrip(self):
        fam = self._family()
        manifest = fam.manifest(n=2, seed=4)
        scenarios = manifest_scenarios(manifest)
        assert scenarios == fam.expand(n=2, seed=4)

    def test_manifest_schema_guard(self):
        with pytest.raises(DesignError):
            manifest_scenarios({"schema": 99, "scenarios": []})
        with pytest.raises(DesignError):
            manifest_scenarios({"no": "scenarios"})

    def test_expand_validation(self):
        with pytest.raises(ConfigError):
            self._family().expand(n=0, seed=1)


class TestFixedFamily:
    def test_replicates_derive_seeds(self):
        base = Scenario(horizon=60.0, seed=None, name="s")
        fam = FixedFamily(name="fixed", scenarios=(base,))
        r0, r1, r2 = fam.expand(n=3, seed=5)
        assert r0.seed == 5  # family seed verbatim for the canonical replicate
        assert r1.seed not in (None, 5)
        assert r1.seed != r2.seed

    def test_canonical_replicate_keeps_explicit_seed(self):
        base = Scenario(horizon=60.0, seed=77)
        fam = FixedFamily(name="fixed", scenarios=(base,))
        assert fam.expand(n=1, seed=5)[0].seed == 77

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            FixedFamily(name="fixed", scenarios=())


class TestFamilyLibrary:
    def test_five_families_ship(self):
        assert set(family_names()) == {
            "factory-floor",
            "vehicle",
            "hvac",
            "intermittent",
            "worst-case-drift",
        }

    def test_every_family_expands(self):
        for name in family_names():
            (s,) = named_family(name).expand(n=1, seed=0)
            assert s.profile is not None
            assert s.name.startswith(name)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown scenario family"):
            named_family("does-not-exist")

    def test_named_scenario_accepts_family_names(self):
        s = named_scenario("factory-floor")
        assert s == named_family("factory-floor").expand(n=1, seed=0)[0]

    def test_named_scenario_error_mentions_families(self):
        with pytest.raises(ConfigError, match="stochastic families"):
            named_scenario("does-not-exist")

    def test_library_returns_fresh_values(self):
        assert named_family("hvac") is not FAMILY_LIBRARY["hvac"]()


class TestBatchDeterminism:
    def test_serial_equals_parallel(self):
        # Acceptance: same family + seed -> bit-identical batch results
        # whether run serially or on 4 workers.
        fam = replace(named_family("intermittent"), horizon=300.0)
        scenarios = fam.expand(n=4, seed=13)
        serial = BatchRunner(jobs=1).run(scenarios)
        parallel = BatchRunner(jobs=4).run(scenarios)
        for a, b in zip(serial, parallel):
            assert a.transmissions == b.transmissions
            assert a.final_voltage == b.final_voltage
            assert a.breakdown.harvested == b.breakdown.harvested

    def test_run_family_uses_runner_seed(self):
        fam = replace(named_family("hvac"), horizon=120.0)
        runner = BatchRunner(jobs=1, seed=3)
        results = runner.run_family(fam, n=1)
        again = BatchRunner(jobs=1, seed=3).run(fam.expand(n=1, seed=3))
        assert [r.final_voltage for r in results] == [
            r.final_voltage for r in again
        ]


def _short_families():
    from repro.core.montecarlo import EnvironmentFamily

    return [
        replace(named_family("hvac"), horizon=60.0),
        FixedFamily(name="fixed", scenarios=(Scenario(horizon=60.0),)),
        EnvironmentFamily(horizon=60.0),
    ]


@pytest.mark.parametrize(
    "family", _short_families(), ids=["stochastic", "fixed", "environment"]
)
def test_numpy_integer_seed_expands_like_python_int(family):
    def keys(seed):
        return [s.cache_key() for s in family.expand(n=2, seed=seed)]

    assert keys(np.int64(5)) == keys(5)
    # A generator is still collapsed to one draw.
    draw = int(np.random.default_rng(3).integers(0, 2**31 - 1))
    assert keys(np.random.default_rng(3)) == keys(draw)
