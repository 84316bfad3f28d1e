"""SystemResult JSON round-trip: the canonical persisted form."""

import base64
import json
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from repro.backends import run
from repro.documents import canonical_json
from repro.errors import DesignError, SimulationError
from repro.scenario import Scenario, named_scenario
from repro.sim.trace import TraceSet
from repro.system.result import RESULT_SCHEMA, EnergyBreakdown, SystemResult


def _b64(*samples: float) -> str:
    """A schema-2 trace column: base64 of little-endian float64."""
    return base64.b64encode(struct.pack(f"<{len(samples)}d", *samples)).decode()


@pytest.fixture(scope="module")
def paper_result():
    scenario = replace(named_scenario("paper"), horizon=900.0, seed=1)
    return run(scenario)


def test_full_round_trip_is_byte_stable(paper_result):
    text = paper_result.to_json()
    rebuilt = SystemResult.from_json(text)
    assert rebuilt.to_json() == text


def test_round_trip_preserves_everything(paper_result):
    rebuilt = SystemResult.from_payload(paper_result.to_payload())
    assert rebuilt.transmissions == paper_result.transmissions
    assert rebuilt.horizon == paper_result.horizon
    assert rebuilt.final_voltage == paper_result.final_voltage
    assert rebuilt.final_position == paper_result.final_position
    assert rebuilt.config == paper_result.config
    assert rebuilt.breakdown.imbalance() == paper_result.breakdown.imbalance()
    assert rebuilt.traces.names() == paper_result.traces.names()
    for name in paper_result.traces.names():
        assert list(rebuilt.traces[name].times) == list(
            paper_result.traces[name].times
        )
    assert len(rebuilt.tuning_events) == len(paper_result.tuning_events)
    for mine, theirs in zip(rebuilt.tuning_events, paper_result.tuning_events):
        assert mine.time == theirs.time
        assert mine.energy == theirs.energy
        assert mine.result == theirs.result
    assert rebuilt.retune_count() == paper_result.retune_count()
    assert rebuilt.summary() == paper_result.summary()


def test_payload_is_schema_stamped(paper_result):
    assert paper_result.to_payload()["schema"] == RESULT_SCHEMA


def test_unknown_schema_rejected(paper_result):
    payload = paper_result.to_payload()
    payload["schema"] = 99
    with pytest.raises(DesignError):
        SystemResult.from_payload(payload)


def test_non_object_payload_rejected():
    with pytest.raises(DesignError):
        SystemResult.from_payload([1, 2, 3])
    with pytest.raises(DesignError):
        SystemResult.from_json("not json at all {")


def test_save_load_file(tmp_path, paper_result):
    path = tmp_path / "result.json"
    paper_result.save(path)
    assert SystemResult.load(path).to_json() == paper_result.to_json()


def test_detailed_backend_alias_traces_round_trip():
    scenario = Scenario(horizon=0.2, backend="detailed", seed=1)
    result = run(scenario)
    rebuilt = SystemResult.from_payload(result.to_payload())
    # The adapter aliases "v_store" onto the native "v(vdc)" trace;
    # after a round trip the two names still share one sample list.
    assert rebuilt.to_json() == result.to_json()
    assert rebuilt.traces["v_store"] is rebuilt.traces["v(vdc)"]


def test_energy_breakdown_round_trip():
    breakdown = EnergyBreakdown(
        initial_stored=1.0, harvested=2.5, node_tx=0.5, shortfall=0.125
    )
    rebuilt = EnergyBreakdown.from_payload(breakdown.to_payload())
    assert rebuilt == breakdown


def test_trace_payload_length_mismatch_rejected():
    with pytest.raises(SimulationError):
        TraceSet.from_payload({"bad": {"times": [0.0, 1.0], "values": [1.0]}}, 1)
    with pytest.raises(SimulationError):
        TraceSet.from_payload({"bad": {"times": _b64(0.0, 1.0), "values": _b64(1.0)}})


def test_traceset_alias_round_trip():
    traces = TraceSet()
    t = traces.trace("native")
    t.append(0.0, 1.0)
    t.append(1.0, 2.0)
    traces.alias("canonical", "native")
    payload = traces.to_payload()
    # The alphabetically first name owns the samples; the other aliases.
    assert payload["native"] == {"alias": "canonical"}
    assert payload["canonical"] == {"times": _b64(0.0, 1.0), "values": _b64(1.0, 2.0)}
    rebuilt = TraceSet.from_payload(payload)
    assert rebuilt["canonical"] is rebuilt["native"]
    assert list(rebuilt["native"].values) == [1.0, 2.0]


#: ``run-scenario --out`` of the paper scenario at a 60 s horizon, as
#: written by the schema-1 encoder (decimal trace lists).
SCHEMA1_FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures" / "result-schema1-paper-60s.json"
)


def test_schema1_result_file_loads_with_the_values_of_a_fresh_run():
    assert json.loads(SCHEMA1_FIXTURE.read_text())["schema"] == 1
    loaded = SystemResult.load(SCHEMA1_FIXTURE)
    fresh = run(replace(named_scenario("paper"), horizon=60.0))
    assert loaded.summary() == fresh.summary()
    assert loaded.traces.names() == fresh.traces.names()
    for name in fresh.traces.names():
        for column in ("times", "values"):
            mine = getattr(loaded.traces[name], column)
            theirs = getattr(fresh.traces[name], column)
            assert mine.tobytes() == theirs.tobytes(), (name, column)
    # Re-encoded, the old file is exactly the fresh run's schema-2 payload.
    assert loaded.to_payload()["schema"] == RESULT_SCHEMA == 2
    assert canonical_json(loaded.to_payload()) == canonical_json(fresh.to_payload())
