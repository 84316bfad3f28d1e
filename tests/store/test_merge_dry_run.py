"""``merge_stores``/``sync_stores`` dry-run: audit, never write.

A dry run must (a) write nothing to either store, (b) predict exactly
what a real merge imports, and (c) *collect* every conflict a real
merge would refuse on -- rows with diverging canonical bytes, journals
with diverging content -- instead of raising at the first.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import StoreError
from repro.store import (
    Campaign,
    ResultStore,
    merge_stores,
    sync_stores,
)
from repro.store.db import RESULT_COLUMNS
from repro.system.stochastic import named_family


def _scenarios(n=4, seed=3):
    family = replace(
        named_family("factory-floor"), horizon=120.0, backend="envelope"
    )
    return family.expand(n=n, seed=seed)


@pytest.fixture
def populated(tmp_path):
    """Two stores with overlapping content: a holds 0..2, b holds 2..4."""
    scenarios = _scenarios(n=4)
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    Campaign.create(a, "left", scenarios[:3]).run(jobs=1)
    Campaign.create(b, "right", scenarios[2:]).run(jobs=1)
    return a, b


def test_dry_run_predicts_and_writes_nothing(populated):
    a, b = populated
    before_a, before_b = set(a.keys()), set(b.keys())
    report = merge_stores(a, b, dry_run=True)
    assert report.dry_run is True
    assert report.imported == 1  # b's non-overlapping row
    assert report.identical == 1  # the shared scenario
    assert report.campaigns_imported == 1 and report.conflicts == ()
    assert set(a.keys()) == before_a  # nothing written...
    assert set(b.keys()) == before_b
    assert a._conn().execute(
        "SELECT COUNT(*) FROM campaigns WHERE name='right'"
    ).fetchone()[0] == 0  # ...journals included

    # The prediction matches what the real merge then does.
    real = merge_stores(a, b)
    assert (real.imported, real.identical) == (
        report.imported, report.identical,
    )
    summary = report.summary()
    assert "would merge" in summary and "1 row(s) to import" in summary
    assert "would merge" not in real.summary()


def test_dry_run_collects_row_conflicts_instead_of_raising(populated):
    a, b = populated
    # Forge divergence: replant one of b's rows under a's key with
    # different payload bytes.
    shared = sorted(set(a.keys()) & set(b.keys()))[0]
    row = list(b.get_raw(shared))
    payload_idx = RESULT_COLUMNS.index("payload")
    conn = b._conn()
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        "UPDATE results SET payload=? WHERE key=?",
        (row[payload_idx] + " ", shared),
    )
    conn.execute("COMMIT")

    report = merge_stores(a, b, dry_run=True)
    assert report.conflicts == (shared,)
    assert "REFUSES: 1 diverging row(s)" in report.summary()
    assert shared[:12] in report.summary()
    with pytest.raises(StoreError, match="canonical bytes differ"):
        merge_stores(a, b)  # the real merge still refuses


def test_dry_run_collects_journal_conflicts(tmp_path):
    scenarios = _scenarios(n=4)
    a = ResultStore(tmp_path / "a.db")
    b = ResultStore(tmp_path / "b.db")
    # Same campaign name, different journaled scenario lists.
    Campaign.create(a, "camp", scenarios[:2])
    Campaign.create(b, "camp", scenarios[2:])
    report = merge_stores(a, b, dry_run=True)
    assert report.journal_conflicts == ("campaign 'camp'",)
    assert "REFUSES: journal conflict(s) campaign 'camp'" in report.summary()
    with pytest.raises(StoreError, match="campaign 'camp'"):
        merge_stores(a, b)
    # journals=False drops the conflict along with the journals.
    assert merge_stores(a, b, journals=False, dry_run=True).journal_conflicts == ()


def test_sync_dry_run_reports_both_directions(populated):
    a, b = populated
    into_a, into_b = sync_stores(a, b, dry_run=True)
    assert into_a.dry_run and into_b.dry_run
    assert into_a.imported == 1 and into_b.imported == 2
    assert len(a.keys()) == 3 and len(b.keys()) == 2  # untouched


def _counts(report):
    return (
        report.imported,
        report.identical,
        report.campaigns_imported,
        report.campaigns_shared,
        report.studies_imported,
        report.studies_shared,
    )


def test_sync_dry_run_counts_match_the_real_sync(populated):
    a, b = populated
    scenarios = _scenarios(n=4)
    Campaign.create(a, "both", scenarios[2:3])
    Campaign.create(b, "both", scenarios[2:3])
    for store in (a, b):
        store.put_study("st", {"n": 1}, "speckey", "ccd", [[0.0]], ["k1"])
    a.put_study("only-a", {"n": 2}, "speckey-a", "ccd", [[0.0]], ["k2"])
    b.put_study("only-b", {"n": 3}, "speckey-b", "ccd", [[0.0]], ["k3"])
    dry = sync_stores(a, b, dry_run=True)
    real = sync_stores(a, b)
    assert [_counts(r) for r in dry] == [_counts(r) for r in real]
    assert _counts(real[1]) == (2, 2, 1, 2, 1, 2)


def test_cli_merge_and_sync_dry_run(populated, capsys):
    a, b = populated
    assert main(
        ["store", "merge", str(a.path), str(b.path), "--dry-run"]
    ) == 0
    out = capsys.readouterr().out
    assert "would merge" in out and "1 row(s) to import" in out
    assert len(a.keys()) == 3  # no write through the CLI either

    assert main(["store", "sync", str(a.path), str(b.path), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert out.count("would merge") == 2
    assert len(a.keys()) == 3 and len(b.keys()) == 2
