"""CLI surface of the persistence subsystem.

Covers the ``store`` and ``campaign`` groups, ``--store`` on the
simulation subcommands, and the canonical result documents written by
``run-scenario --out`` (which ``repro-wsn report`` must render).
"""

import json

import pytest

from repro.cli import main
from repro.store import Campaign, ResultStore, campaign_names
from repro.system.result import RESULT_SCHEMA, SystemResult


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "cli.db")


def test_store_init_and_stats(db, capsys):
    assert main(["store", "init", db]) == 0
    assert main(["store", "stats", db]) == 0
    out = capsys.readouterr().out
    assert "results: 0" in out
    assert "campaigns: 0" in out


def test_run_scenario_with_store_hits_second_time(db, capsys):
    argv = ["run-scenario", "low-vibration", "--seed", "1", "--store", db]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "fresh simulation" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "(store:" in second
    assert len(ResultStore(db)) == 1


def test_run_scenario_out_is_canonical_payload(db, tmp_path, capsys):
    out_file = tmp_path / "result.json"
    assert (
        main(
            [
                "run-scenario",
                "low-vibration",
                "--seed",
                "1",
                "--out",
                str(out_file),
            ]
        )
        == 0
    )
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == RESULT_SCHEMA
    result = SystemResult.from_payload(payload)
    assert result.horizon == 3600.0
    # report renders the canonical document.
    capsys.readouterr()
    assert main(["report", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "transmissions:" in out
    assert "energy (mJ):" in out


def test_manifest_run_with_store_and_out(db, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    results_doc = tmp_path / "results.json"
    assert (
        main(
            [
                "gen-scenarios",
                "hvac",
                "--n",
                "2",
                "--seed",
                "1",
                "--horizon",
                "120",
                "--out",
                str(manifest),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "run-scenario",
                str(manifest),
                "--store",
                db,
                "--out",
                str(results_doc),
            ]
        )
        == 0
    )
    assert len(ResultStore(db)) == 2
    payload = json.loads(results_doc.read_text())
    assert payload["schema"] == RESULT_SCHEMA
    assert len(payload["results"]) == 2
    for entry in payload["results"]:
        SystemResult.from_payload(entry["result"])  # must parse
    capsys.readouterr()
    assert main(["report", str(results_doc)]) == 0
    out = capsys.readouterr().out
    assert "total transmissions:" in out


def test_gen_scenarios_store_journals_campaign(db, capsys):
    assert (
        main(
            [
                "gen-scenarios",
                "hvac",
                "--n",
                "2",
                "--seed",
                "3",
                "--horizon",
                "90",
                "--store",
                db,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "hvac-n2-s3" in out
    campaign = Campaign(ResultStore(db), "hvac-n2-s3")
    assert campaign.total == 2
    assert campaign.status().pending == 2


def test_campaign_run_resume_status_cycle(db, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    main(
        [
            "gen-scenarios",
            "hvac",
            "--n",
            "2",
            "--seed",
            "1",
            "--horizon",
            "90",
            "--out",
            str(manifest),
        ]
    )
    capsys.readouterr()
    assert main(["campaign", "run", str(manifest), "--store", db]) == 0
    out = capsys.readouterr().out
    assert "2/2 done" in out
    assert main(["campaign", "status", "--store", db]) == 0
    assert "2/2 done" in capsys.readouterr().out
    assert main(["campaign", "resume", "hvac-n2-s1", "--store", db]) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_store_export_and_gc(db, tmp_path, capsys):
    main(["run-scenario", "low-vibration", "--seed", "1", "--store", db])
    capsys.readouterr()
    assert main(["store", "export", db, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("key,name,family,backend")
    assert main(["store", "export", db, "--payloads"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    SystemResult.from_payload(doc["results"][0]["result"])
    # gc without a selector is refused; orphan gc clears the row.
    assert main(["store", "gc", db]) == 2
    capsys.readouterr()
    assert main(["store", "gc", db, "--orphans"]) == 0
    assert "deleted 1" in capsys.readouterr().out
    assert len(ResultStore(db)) == 0


def test_report_rejects_payloadless_store_export(db, tmp_path, capsys):
    main(["run-scenario", "low-vibration", "--seed", "1", "--store", db])
    export = tmp_path / "export.json"
    main(["store", "export", db, "--out", str(export)])
    capsys.readouterr()
    # No embedded payloads -> an error, never fabricated zero results.
    assert main(["report", str(export)]) == 1
    assert "result" in capsys.readouterr().err
    # With --payloads the same export renders.
    main(["store", "export", db, "--payloads", "--out", str(export)])
    capsys.readouterr()
    assert main(["report", str(export)]) == 0
    assert "transmissions:" in capsys.readouterr().out


def test_montecarlo_with_store_dedupes_repeat(db, capsys):
    argv = [
        "montecarlo",
        "--samples",
        "3",
        "--seed",
        "2",
        "--store",
        db,
    ]
    assert main(argv) == 0
    store = ResultStore(db)
    assert len(store) == 3
    assert main(argv) == 0  # second run: all served from the store
    assert len(store) == 3


# -- sharding, merge, partitioned runs -----------------------------------------


def test_store_init_sharded_and_stats(tmp_path, capsys):
    root = str(tmp_path / "sharded")
    assert main(["store", "init", root, "--shards", "4"]) == 0
    assert "4 shard(s)" in capsys.readouterr().out
    assert main(["store", "stats", root]) == 0
    assert "shards: 4" in capsys.readouterr().out


def _cli_manifest(tmp_path, n="2", seed="1"):
    manifest = tmp_path / "m.json"
    main(
        ["gen-scenarios", "hvac", "--n", n, "--seed", seed,
         "--horizon", "90", "--out", str(manifest)]
    )
    return str(manifest)


def test_cli_partitioned_run_and_merge_matches_single(tmp_path, capsys):
    manifest = _cli_manifest(tmp_path, n="4")
    single = str(tmp_path / "single.db")
    assert main(["campaign", "run", manifest, "--store", single,
                 "--name", "acc"]) == 0
    # Two processes' worth of slices, each into a private store...
    for i in ("1", "2"):
        part = str(tmp_path / f"p{i}.db")
        assert main(["campaign", "run", manifest, "--store", part,
                     "--name", "acc", "--partitions", "2",
                     "--partition", i]) == 0
    capsys.readouterr()
    # ...merged into a sharded canonical store.
    canonical = str(tmp_path / "canonical")
    assert main(["store", "init", canonical, "--shards", "4"]) == 0
    assert main(["store", "merge", canonical,
                 str(tmp_path / "p1.db"), str(tmp_path / "p2.db")]) == 0
    out = capsys.readouterr().out
    assert "imported" in out
    # The canonical campaign pass finds everything already stored.
    assert main(["campaign", "run", manifest, "--store", canonical,
                 "--name", "acc"]) == 0
    from repro.store import open_store

    a, b = ResultStore(single), open_store(canonical)
    assert a.keys() == b.keys()
    for key in a.keys():
        assert a.get_payload_text(key) == b.get_payload_text(key)


def test_cli_partition_flag_validation(tmp_path, capsys):
    manifest = _cli_manifest(tmp_path)
    db = str(tmp_path / "x.db")
    assert main(["campaign", "run", manifest, "--store", db,
                 "--partition", "1"]) == 2
    assert "--partitions" in capsys.readouterr().err
    assert main(["campaign", "run", manifest, "--store", db,
                 "--partitions", "2", "--partition", "7"]) == 2
    assert "1..2" in capsys.readouterr().err
    # --partitions alone (the removed local fan-out) points at --jobs
    # and journals nothing.
    assert main(["campaign", "run", manifest, "--store", db,
                 "--partitions", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert campaign_names(ResultStore(db)) == []


def test_cli_store_sync(tmp_path, capsys):
    a, b = str(tmp_path / "a.db"), str(tmp_path / "b.db")
    main(["run-scenario", "low-vibration", "--seed", "1", "--store", a])
    main(["run-scenario", "low-vibration", "--seed", "2", "--store", b])
    capsys.readouterr()
    assert main(["store", "sync", a, b]) == 0
    out = capsys.readouterr().out
    assert out.count("merged") == 2
    assert ResultStore(a).keys() == ResultStore(b).keys()


def _floor_manifest(**edits):
    from dataclasses import replace

    from repro.system.stochastic import named_family

    family = replace(named_family("factory-floor"), horizon=90.0)
    manifest = family.manifest(n=2, seed=1)
    for key, value in edits.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    return manifest


@pytest.mark.parametrize(
    "edits, expected",
    [
        ({}, "factory-floor-n2-s1"),
        ({"n": None}, "factory-floor-n1-s1"),
        ({"name": "floor-run"}, "floor-run"),
    ],
    ids=["generated", "no-n", "named"],
)
def test_one_default_campaign_name_per_manifest(tmp_path, capsys, edits, expected):
    from repro.coord import Coordinator
    from repro.service.jobs import validate_job

    manifest = _floor_manifest(**edits)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    db = str(tmp_path / "cli.db")
    assert main(["campaign", "run", str(path), "--store", db]) == 0
    assert campaign_names(ResultStore(db)) == [expected]
    assert validate_job(None, manifest)[1] == expected
    coord_store = ResultStore(tmp_path / "coord.db")
    assert Coordinator(coord_store, manifest, ["http://127.0.0.1:9"]).name == expected


@pytest.mark.parametrize(
    "argv, what",
    [
        (["campaign", "run", "BAD", "--store", "DB"], "manifest"),
        (
            ["coord", "run", "BAD", "--workers", "http://127.0.0.1:9",
             "--store", "DB"],
            "manifest",
        ),
        (["report", "BAD"], "report file"),
    ],
    ids=["campaign-run", "coord-run", "report"],
)
def test_invalid_json_is_an_error(tmp_path, capsys, argv, what):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths = {"BAD": str(bad), "DB": str(tmp_path / "x.db")}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {what} is not valid JSON: ")
