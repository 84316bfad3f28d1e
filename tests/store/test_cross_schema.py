"""Stores written under result schema 1 merge with schema-2 stores.

Schema 2 changed how traces are encoded, not what a result is.  A
schema-1 row and a schema-2 row of the same content key are the same
result when the schema-1 row re-encodes to the schema-2 bytes; rows
whose decoded values differ, and malformed rows, still refuse to merge.
A row of a schema this library cannot read (a newer one) is refused as
unreadable, never as corrupt or diverging.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.backends import run
from repro.documents import canonical_json
from repro.errors import StoreError
from repro.scenario import PartsSpec, Scenario, named_scenario
from repro.store import ResultStore, merge_stores, sync_stores
from repro.system.config import SystemConfig
from repro.system.result import same_result

FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures" / "result-schema1-paper-60s.json"
)


def schema1_text(result) -> str:
    """The row text the schema-1 writer stored for ``result``: every
    trace as decimal ``times``/``values`` lists, aliases by name."""
    payload = result.to_payload()
    payload["schema"] = 1
    traces, owners = {}, {}
    for name in result.traces.names():
        trace = result.traces[name]
        owner = owners.setdefault(id(trace), name)
        traces[name] = (
            {"alias": owner}
            if owner != name
            else {"times": trace.times.tolist(), "values": trace.values.tolist()}
        )
    payload["traces"] = traces
    return canonical_json(payload)


def _scenarios(n=3):
    return [
        Scenario(
            config=SystemConfig(tx_interval_s=0.5 + 0.5 * i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
        )
        for i in range(n)
    ]


def _rewrite_payloads(store, texts):
    """Replace stored payload bytes (what an older writer left behind)."""
    conn = store._conn()
    conn.execute("BEGIN IMMEDIATE")
    conn.executemany(
        "UPDATE results SET payload=? WHERE key=?",
        [(text, key) for key, text in texts.items()],
    )
    conn.execute("COMMIT")


@pytest.fixture
def stores(tmp_path):
    """``(old, new)``: the same rows, under schema 1 and schema 2."""
    old = ResultStore(tmp_path / "old.db")
    new = ResultStore(tmp_path / "new.db")
    legacy = {}
    for scenario in _scenarios():
        result = run(scenario)
        old.put(scenario, result)
        new.put(scenario, result)
        legacy[scenario.cache_key()] = schema1_text(result)
    _rewrite_payloads(old, legacy)
    return old, new


def test_schema1_writer_matches_the_committed_fixture():
    """``schema1_text`` reproduces the schema-1 writer byte for byte."""
    fresh = run(replace(named_scenario("paper"), horizon=60.0))
    assert schema1_text(fresh) == canonical_json(json.loads(FIXTURE.read_text()))


def test_same_result_compares_across_schemas_only(stores):
    old, new = stores
    for key in new.keys():
        current, legacy = new.get_payload_text(key), old.get_payload_text(key)
        assert json.loads(legacy)["schema"] == 1 and legacy != current
        assert same_result(legacy, current) and same_result(current, legacy)
        # Same schema, different bytes: never the same row.
        assert not same_result(current, current + " ")
        assert not same_result(legacy, legacy + " ")
        assert not same_result(current, "not json")


def test_put_raw_treats_a_reencodable_schema1_row_as_identical(stores):
    old, new = stores
    for key in new.keys():
        assert new.put_raw(old.get_raw(key), source="old") is False
        assert old.put_raw(new.get_raw(key), source="new") is False
        # First writer wins: each store keeps its own bytes.
        assert json.loads(old.get_payload_text(key))["schema"] == 1
        assert json.loads(new.get_payload_text(key))["schema"] == 2
        assert old.get(key).to_payload() == new.get(key).to_payload()


@pytest.mark.parametrize("direction", ["old-into-new", "new-into-old"])
def test_merge_and_sync_report_no_conflicts(stores, direction):
    old, new = stores
    dest, source = (new, old) if direction == "old-into-new" else (old, new)
    dry = merge_stores(dest, source, dry_run=True)
    assert (dry.imported, dry.identical, dry.conflicts) == (0, 3, ())
    report = merge_stores(dest, source)
    assert (report.imported, report.identical) == (0, 3)
    there, back = sync_stores(old, new)
    assert (there.identical, back.identical) == (3, 3)


def test_schema1_row_with_different_values_is_refused(stores):
    old, new = stores
    key = new.keys()[0]
    doc = json.loads(old.get_payload_text(key))
    trace = doc["traces"]["v_store"]
    trace["values"][-1] += 1e-12
    _rewrite_payloads(old, {key: canonical_json(doc)})

    assert not same_result(old.get_payload_text(key), new.get_payload_text(key))
    with pytest.raises(StoreError, match=r"canonical bytes differ \(payload\)"):
        new.put_raw(old.get_raw(key), source="old")
    assert merge_stores(new, old, dry_run=True).conflicts == (key,)
    with pytest.raises(StoreError, match="canonical bytes differ"):
        merge_stores(new, old)
    with pytest.raises(StoreError, match="canonical bytes differ"):
        sync_stores(old, new)


def _forge_schema(store, key, schema):
    """Restamp one stored payload with another result ``schema``."""
    doc = json.loads(store.get_payload_text(key))
    doc["schema"] = schema
    _rewrite_payloads(store, {key: canonical_json(doc)})


_MERGE_PATHS = {
    "put_raw": lambda dest, source, key: dest.put_raw(
        source.get_raw(key), source=str(source.path)
    ),
    "dry-run": lambda dest, source, key: merge_stores(dest, source, dry_run=True),
    "merge": lambda dest, source, key: merge_stores(dest, source),
    "sync": lambda dest, source, key: sync_stores(dest, source),
}


@pytest.mark.parametrize("path", sorted(_MERGE_PATHS))
@pytest.mark.parametrize("newer", ["incoming", "held"])
def test_a_newer_schema_row_is_unreadable_not_corrupt(stores, newer, path):
    """A row this library cannot read may be newer, not divergent: every
    merge path refuses it naming the schema, the key and both stores,
    and none calls it corrupt or counts it as diverging."""
    forged, current = stores
    key = current.keys()[0]
    _forge_schema(forged, key, 3)
    dest, source = (current, forged) if newer == "incoming" else (forged, current)
    with pytest.raises(StoreError) as info:
        _MERGE_PATHS[path](dest, source, key)
    message = str(info.value)
    assert "unsupported result schema 3 (this library reads schema 1 to 2)" in message
    assert key in message
    assert str(dest.path) in message and str(source.path) in message
    assert "corrupt" not in message and "differ" not in message


def test_malformed_rows_still_diverge(stores):
    old, new = stores
    first, second, _ = new.keys()
    doc = json.loads(old.get_payload_text(second))
    doc.pop("schema")
    doc["traces"] = "not traces"
    _rewrite_payloads(old, {first: "not json", second: canonical_json(doc)})
    assert merge_stores(new, old, dry_run=True).conflicts == (first, second)
    with pytest.raises(StoreError, match="corrupt or non-deterministic"):
        merge_stores(new, old)
