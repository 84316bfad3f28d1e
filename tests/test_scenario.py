"""Scenario value semantics, JSON round-trip and the named library."""

import json

import pytest

from repro.errors import ConfigError, DesignError
from repro.scenario import (
    SCENARIO_LIBRARY,
    PartsSpec,
    Scenario,
    named_scenario,
    scenario_names,
)
from repro.system.config import SystemConfig
from repro.system.vibration import VibrationProfile


def _sample_scenario() -> Scenario:
    return Scenario(
        config=SystemConfig(clock_hz=2e6, watchdog_s=120.0, tx_interval_s=0.5),
        parts=PartsSpec(v_init=2.7, initial_frequency=66.0, initial_position=131),
        profile=VibrationProfile.paper_profile(f_start=66.0),
        horizon=1800.0,
        seed=42,
        backend="envelope",
        options={"record_traces": False, "dt_max": 1.0},
        name="sample",
    )


def test_json_round_trip_preserves_equality_and_hash():
    s = _sample_scenario()
    back = Scenario.from_json(s.to_json())
    assert back == s
    assert hash(back) == hash(s)
    assert back.cache_key() == s.cache_key()


def test_round_trip_defaults_and_none_fields():
    s = Scenario()
    back = Scenario.from_json(s.to_json())
    assert back == s
    assert back.parts is None and back.profile is None


def test_save_load_file(tmp_path):
    path = tmp_path / "scenario.json"
    s = _sample_scenario()
    s.save(path)
    assert Scenario.load(path) == s


def test_payload_carries_schema_version():
    assert _sample_scenario().to_dict()["schema"] == 1


def test_unversioned_payload_loads_as_schema_1():
    payload = _sample_scenario().to_dict()
    del payload["schema"]
    assert Scenario.from_dict(payload) == _sample_scenario()


def test_unknown_schema_rejected():
    payload = _sample_scenario().to_dict()
    payload["schema"] = 99
    with pytest.raises(DesignError):
        Scenario.from_dict(payload)


def test_cache_key_distinguishes_scenarios():
    s = _sample_scenario()
    assert s.cache_key() != s.with_seed(43).cache_key()
    assert s.cache_key() == _sample_scenario().cache_key()


def test_name_is_cosmetic_for_equality_and_cache():
    """Re-labelled copies of the same simulation dedupe and compare equal."""
    from dataclasses import replace

    a = _sample_scenario()
    b = replace(a, name="other-label")
    assert a == b
    assert a.cache_key() == b.cache_key()
    assert hash(a) == hash(b)
    # ...but the label still round-trips through JSON.
    assert Scenario.from_json(b.to_json()).name == "other-label"


def test_cache_key_memo_is_never_carried():
    """The memoised key stays on its instance: replace(), pickling and
    to_dict() never carry it, and it plays no part in ==, hash or repr."""
    import copy
    import pickle
    from dataclasses import replace

    a = _sample_scenario()
    fresh = repr(a)
    key = a.cache_key()
    assert a._cache_key == key
    assert repr(a) == fresh and "_cache_key" not in fresh
    assert a == _sample_scenario() and hash(a) == hash(_sample_scenario())
    assert "_cache_key" not in a.to_dict() and key not in a.to_json()

    relabelled = replace(a, name="other")
    reseeded = replace(a, seed=43)
    assert relabelled._cache_key is None and reseeded._cache_key is None
    assert relabelled.cache_key() == key
    assert reseeded.cache_key() == _sample_scenario().with_seed(43).cache_key()

    blob = pickle.dumps(a)
    assert key.encode() not in blob
    for back in (pickle.loads(blob), copy.copy(a), copy.deepcopy(a)):
        assert back._cache_key is None
        assert back == a and back.cache_key() == key


def test_options_copied_at_construction():
    opts = {"dt_max": 1.0}
    s = Scenario(options=opts)
    key = s.cache_key()
    opts["dt_max"] = 99.0  # caller-side mutation must not reach the scenario
    assert s.options["dt_max"] == 1.0
    assert s.cache_key() == key


def test_scenarios_usable_as_dict_keys():
    s = _sample_scenario()
    table = {s: 1, s.with_seed(43): 2}
    assert table[_sample_scenario()] == 1


def test_validation():
    with pytest.raises(ConfigError):
        Scenario(horizon=0.0)
    with pytest.raises(ConfigError):
        Scenario(backend="")
    with pytest.raises(ConfigError):
        Scenario(options={"dt_max": [1.0]})
    with pytest.raises(ConfigError):
        PartsSpec(v_init=-1.0)


def test_parts_spec_builds_fresh_default_system():
    from repro.system.components import paper_system

    spec = PartsSpec()
    a, b = spec.build(), spec.build()
    assert a is not b
    reference = paper_system()
    assert a.store.voltage == reference.store.voltage
    assert a.microgenerator.position == reference.microgenerator.position


def test_named_library_complete_and_round_trippable():
    assert scenario_names() == sorted(SCENARIO_LIBRARY)
    assert set(scenario_names()) == {
        "paper",
        "bursty",
        "low-vibration",
        "cold-start",
        "long-horizon",
    }
    for name in scenario_names():
        s = named_scenario(name)
        assert s.name == name
        assert Scenario.from_json(s.to_json()) == s
        # Every library scenario is self-contained (explicit profile).
        assert s.profile is not None


def test_unknown_named_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        named_scenario("does-not-exist")


def test_numpy_scalars_normalised():
    import numpy as np

    s = Scenario(
        seed=np.int64(3),
        horizon=np.float64(60.0),
        parts=PartsSpec(v_init=np.float64(2.8), initial_position=np.int64(5)),
    )
    assert type(s.seed) is int and type(s.horizon) is float
    s.cache_key()  # JSON-serialisable, would raise TypeError otherwise
    assert Scenario.from_json(s.to_json()) == s


def test_invalid_json_text_raises_design_error():
    with pytest.raises(DesignError, match="not valid JSON"):
        Scenario.from_json("not json {")
    with pytest.raises(DesignError, match="JSON object"):
        Scenario.from_json("[1, 2, 3]")


def test_json_is_plain_types():
    payload = json.loads(_sample_scenario().to_json())
    assert isinstance(payload, dict)
    assert isinstance(payload["profile"], list)
    assert isinstance(payload["config"]["clock_hz"], float)
