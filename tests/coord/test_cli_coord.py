"""The ``coord`` subcommand, and the full-process kill/recover story.

``test_sigkill_mid_campaign_recovers_on_survivor`` is the acceptance
fault-injection test: two real ``repro-wsn serve`` subprocesses, one
SIGKILLed while it holds an unfinished partition, and the final
coordinator store byte-identical to a single-process ``campaign run``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.coord import Coordinator
from repro.service import ServiceApp, ServiceServer, WorkerPool
from repro.store import Campaign, ResultStore
from repro.system.stochastic import manifest_scenarios, named_family

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _manifest(n=4, seed=3, horizon=120.0):
    family = replace(
        named_family("factory-floor"), horizon=horizon, backend="envelope"
    )
    return family.manifest(n=n, seed=seed)


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_manifest()))
    return str(path)


# -- the CLI face (in-process workers) -----------------------------------------


def test_coord_run_and_status_cli(tmp_path, manifest_path, capsys):
    store_path = str(tmp_path / "local.db")
    worker_store = ResultStore(tmp_path / "worker.db")
    pool = WorkerPool(worker_store, workers=1, poll_interval=0.05)
    pool.start()
    server = ServiceServer(ServiceApp(worker_store, pool=pool)).start()
    try:
        assert main(
            [
                "coord", "run", manifest_path,
                "--workers", server.url,
                "--store", store_path,
                "--poll", "0.05",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "starting 'factory-floor-n4-s3'" in out
        assert "1/1 partition(s) merged" in out
        assert "4/4 done" in out

        assert main(["coord", "status", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "coordinated campaign factory-floor-n4-s3: 1/1" in out
        assert "p1: merged" in out

        # A second run is a resume of a complete journal: a no-op.
        assert main(
            [
                "coord", "run", manifest_path,
                "--workers", server.url,
                "--store", store_path,
            ]
        ) == 0
        assert "resuming 'factory-floor-n4-s3'" in capsys.readouterr().out
    finally:
        server.shutdown()
        pool.stop(drain=False, timeout=5)
    assert len(ResultStore(store_path)) == 4


def test_coord_status_empty_store(tmp_path, capsys):
    store_path = str(tmp_path / "empty.db")
    assert main(["coord", "status", "--store", store_path]) == 0
    assert "no coordinated campaigns" in capsys.readouterr().out


def test_coord_status_unknown_name_errors(tmp_path, capsys):
    store_path = str(tmp_path / "empty.db")
    assert main(["coord", "status", "ghost", "--store", store_path]) == 1
    assert "unknown coordinated campaign" in capsys.readouterr().err


def test_campaign_status_groups_partition_journals(tmp_path, capsys):
    """Satellite view: NAME@pIofN journals fold under their parent."""
    store = ResultStore(tmp_path / "grouped.db")
    scenarios = manifest_scenarios(_manifest(n=4, seed=3))
    Campaign.create(store, "camp", scenarios)
    Campaign.create(store, "camp@p1of2", scenarios[:2]).run(jobs=1)
    Campaign.create(store, "camp@p2of2", scenarios[2:])
    assert main(["campaign", "status", "--store", str(store.path)]) == 0
    out = capsys.readouterr().out
    assert "partitions: 1/2 complete" in out
    assert "p1: camp@p1of2" in out and "2/2 done" in out
    assert out.index("camp:") < out.index("p1:")  # grouped under parent


# -- the real processes --------------------------------------------------------


def _spawn_serve(db, extra=()):
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store", db, "--port", "0", "--workers", "1",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    assert "serving on http://127.0.0.1:" in banner, banner
    port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0].split("/")[0])
    return process, f"http://127.0.0.1:{port}"


def test_sigkill_mid_campaign_recovers_on_survivor(tmp_path):
    manifest = _manifest(n=4, seed=3)
    # The victim polls its queue every 600 s: it accepts the partition
    # job but will never start it, so SIGKILL provably lands while the
    # partition is unfinished -- no timing luck involved.
    survivor, survivor_url = _spawn_serve(
        str(tmp_path / "survivor.db"), extra=("--poll", "0.1")
    )
    victim, victim_url = _spawn_serve(
        str(tmp_path / "victim.db"), extra=("--poll", "600")
    )
    local = ResultStore(tmp_path / "local.db")
    try:
        coord = Coordinator(
            local,
            manifest,
            [survivor_url, victim_url],
            poll_interval_s=0.05,
            breaker_threshold=1,
            breaker_cooldown_s=120.0,
        )
        status = coord.step()  # one partition per worker
        victims = [p for p in status.states if p.worker == victim_url]
        assert len(victims) == 1

        victim.send_signal(signal.SIGKILL)
        victim.communicate(timeout=30)

        deadline = time.monotonic() + 120.0
        while True:
            status = coord.step()
            if status.complete:
                break
            assert time.monotonic() < deadline, f"no recovery: {status}"
            time.sleep(0.05)

        recovered = status.states[victims[0].index - 1]
        assert recovered.worker == survivor_url
        assert recovered.attempts == 2
    finally:
        for process in (survivor, victim):
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)

    # Byte-identity vs the single-process run: rows and journal.
    reference = ResultStore(tmp_path / "reference.db")
    Campaign.create(
        reference, coord.name, manifest_scenarios(manifest)
    ).run(jobs=1)
    assert set(local.keys()) == set(reference.keys())
    for key in reference.keys():
        assert local.get_payload_text(key) == reference.get_payload_text(key)
        assert local.get_scenario(key) == reference.get_scenario(key)
    assert local.campaign_rows(coord.name) == reference.campaign_rows(coord.name)
