"""Backend protocol, registry, and run() parity with direct simulators."""

import pytest

import repro
from repro.backends import (
    Backend,
    backend_names,
    get_backend,
    register_backend,
    run,
)
from repro.errors import ConfigError
from repro.scenario import PartsSpec, Scenario
from repro.system.config import ORIGINAL_DESIGN, SystemConfig
from repro.system.envelope import EnvelopeSimulator
from repro.system.vibration import VibrationProfile


def test_shipped_backends_registered():
    assert "envelope" in backend_names()
    assert "detailed" in backend_names()
    assert isinstance(get_backend("envelope"), Backend)


def test_unknown_backend_error_lists_known_names():
    with pytest.raises(ConfigError, match="unknown backend 'nope'") as err:
        get_backend("nope")
    assert "envelope" in str(err.value)
    assert "detailed" in str(err.value)


def test_register_backend_guards_and_overwrite():
    class Fake:
        name = "fake-for-test"

        def simulate(self, scenario):
            raise NotImplementedError

    register_backend("fake-for-test", Fake)
    try:
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("fake-for-test", Fake)
        register_backend("fake-for-test", Fake, overwrite=True)
        assert isinstance(get_backend("fake-for-test"), Fake)
    finally:
        from repro import backends

        backends._REGISTRY.pop("fake-for-test", None)


def test_run_envelope_matches_direct_simulator():
    """run(scenario) is bit-identical to hand-wiring EnvelopeSimulator."""
    profile = VibrationProfile.paper_profile(f_start=66.0)
    scenario = Scenario(
        config=SystemConfig(clock_hz=1e6, watchdog_s=90.0, tx_interval_s=0.2),
        parts=PartsSpec(v_init=2.85),
        profile=profile,
        horizon=400.0,
        seed=11,
    )
    via_api = run(scenario)
    direct = EnvelopeSimulator(
        scenario.config,
        parts=PartsSpec(v_init=2.85).build(),
        profile=profile,
        seed=11,
    ).run(400.0)
    assert via_api.transmissions == direct.transmissions
    assert via_api.final_voltage == direct.final_voltage
    assert via_api.breakdown.harvested == direct.breakdown.harvested
    assert via_api.breakdown.consumed == direct.breakdown.consumed


def test_run_envelope_forwards_options():
    scenario = Scenario(horizon=120.0, seed=1, options={"record_traces": False})
    result = run(scenario)
    assert "v_store" not in result.traces


def test_bad_options_raise_config_error():
    scenario = Scenario(horizon=60.0, options={"no_such_option": 1})
    with pytest.raises(ConfigError, match="no_such_option"):
        run(scenario)


def test_run_detailed_matches_direct_simulator():
    from repro.system.detailed import DetailedSimulator

    config = SystemConfig(clock_hz=4e6, watchdog_s=1e4, tx_interval_s=0.05)
    scenario = Scenario(
        config=config,
        parts=PartsSpec(v_init=2.85),
        horizon=0.25,
        seed=3,
        backend="detailed",
    )
    via_api = run(scenario)
    direct = DetailedSimulator(
        config, parts=PartsSpec(v_init=2.85).build(), seed=3
    ).run(0.25)
    assert via_api.transmissions == direct.transmissions
    assert via_api.final_voltage == direct.final_voltage
    # The adapter fills the storage book-ends of the energy audit.
    assert via_api.breakdown.initial_stored == pytest.approx(
        0.5 * 0.55 * 2.85**2
    )
    assert via_api.config == config
    # The MNA node trace is also published under the canonical name.
    assert "v_store" in via_api.traces
    assert "v(vdc)" in via_api.traces


def test_top_level_lazy_exports():
    assert repro.Scenario is Scenario
    assert repro.run is run
    assert "Scenario" in repro.__all__
    assert "BatchRunner" in dir(repro)
    with pytest.raises(AttributeError):
        repro.not_a_real_export


def test_default_scenario_uses_backend_default_profile():
    """profile=None must match each simulator's own constructor default."""
    result = run(Scenario(horizon=200.0, seed=5))
    direct = EnvelopeSimulator(ORIGINAL_DESIGN, seed=5).run(200.0)
    assert result.transmissions == direct.transmissions
    assert result.final_voltage == direct.final_voltage


# -- vectorized backend: registry and batch capability ------------------------


def test_vectorized_backend_registered():
    assert "vectorized" in backend_names()


def test_unknown_backend_error_lists_vectorized():
    """Regression: the registry's alternatives listing must include the
    vectorized backend (it previously only knew envelope/detailed)."""
    with pytest.raises(ConfigError) as err:
        get_backend("nope")
    assert "vectorized" in str(err.value)


def test_supports_batch_capability():
    from repro.backends import supports_batch

    assert supports_batch(get_backend("vectorized"))
    assert not supports_batch(get_backend("envelope"))
    assert not supports_batch(get_backend("detailed"))


def test_run_batch_groups_by_backend_and_preserves_order():
    from repro.backends import run_batch

    envelope = Scenario(
        config=ORIGINAL_DESIGN,
        profile=VibrationProfile.constant(64.0),
        horizon=60.0,
        seed=1,
        options={"record_traces": False},
    )
    scenarios = [
        envelope,
        Scenario(
            config=ORIGINAL_DESIGN,
            profile=VibrationProfile.constant(64.0),
            horizon=60.0,
            seed=1,
            backend="vectorized",
            options={"record_traces": False},
        ),
        envelope,
    ]
    results = run_batch(scenarios)
    assert len(results) == len(scenarios)
    singles = [run(s) for s in scenarios]
    assert [r.transmissions for r in results] == [
        r.transmissions for r in singles
    ]
    assert [r.final_voltage for r in results] == [
        r.final_voltage for r in singles
    ]


def test_run_conformance_default_includes_vectorized():
    """Regression: run_conformance previously only knew envelope and
    detailed; the default backend set now carries vectorized too."""
    import inspect

    from repro.backends import run_conformance

    defaults = inspect.signature(run_conformance).parameters["backends"].default
    assert "vectorized" in defaults


def test_quiet_options_knows_vectorized():
    from repro.backends import quiet_options

    assert quiet_options("vectorized") == {"record_traces": False}
    assert quiet_options("envelope") == {"record_traces": False}
    assert quiet_options("detailed") == {}


def test_run_batch_rejects_miscounting_backend():
    """A buggy third-party run_batch that returns the wrong number of
    results must fail fast at the dispatch site, not leave None holes."""
    from repro.backends import run_batch
    from repro.errors import SimulationError

    class ShortChanging:
        name = "short-changing"

        def simulate(self, scenario):
            raise NotImplementedError

        def run_batch(self, scenarios):
            return []  # always one short (or more)

    register_backend("short-changing", ShortChanging)
    try:
        scenario = Scenario(
            config=ORIGINAL_DESIGN,
            horizon=30.0,
            seed=1,
            backend="short-changing",
        )
        with pytest.raises(SimulationError, match="0 results for a 1-scenario"):
            run_batch([scenario])
    finally:
        from repro import backends

        backends._REGISTRY.pop("short-changing", None)
