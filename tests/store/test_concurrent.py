"""Two independent processes writing the same scenarios to one store.

The WAL + ``INSERT OR IGNORE`` design must guarantee that racing
writers leave exactly one row per scenario, with canonical byte-identical
payloads and an uncorrupted database.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.core.batch import BatchRunner
from repro.documents import canonical_json
from repro.scenario import PartsSpec, Scenario
from repro.store import ResultStore
from repro.system.config import SystemConfig

#: Runs inside each racing process: simulate the same deterministic
#: batch through a store-attached runner with thread fan-out.
_WORKER = """
import sys
from repro.core.batch import BatchRunner
from repro.scenario import PartsSpec, Scenario
from repro.store import ResultStore
from repro.system.config import SystemConfig

path = sys.argv[1]
scenarios = [
    Scenario(
        config=SystemConfig(tx_interval_s=0.5 + 0.5 * i),
        parts=PartsSpec(v_init=2.85),
        horizon=60.0,
        seed=i,
        name=f"race-{i}",
    )
    for i in range(6)
]
runner = BatchRunner(jobs=4, executor="thread", store=ResultStore(path))
results = runner.run(scenarios)
print(sum(r.transmissions for r in results))
"""


def _scenarios():
    return [
        Scenario(
            config=SystemConfig(tx_interval_s=0.5 + 0.5 * i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
            name=f"race-{i}",
        )
        for i in range(6)
    ]


def test_two_processes_race_cleanly(tmp_path):
    db = tmp_path / "race.db"
    ResultStore(db)  # pre-create so both workers open the same schema

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(db)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out.strip())
    # Both processes computed identical aggregate results.
    assert outputs[0] == outputs[1]

    # Exactly one row per scenario, no duplicates, no corruption.
    store = ResultStore(db)
    scenarios = _scenarios()
    assert len(store) == len(scenarios)
    conn = store._conn()
    assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"

    # Payload bytes are the canonical serialisation of a local re-run.
    reference = BatchRunner(jobs=1).run(scenarios)
    for scenario, result in zip(scenarios, reference):
        text = store.get_payload_text(scenario)
        assert text is not None
        assert text == canonical_json(result.to_payload())


def test_concurrent_threads_one_store_object(tmp_path):
    """One shared store object across a thread pool (per-thread conns)."""
    store = ResultStore(tmp_path / "threads.db")
    scenarios = _scenarios()
    runner = BatchRunner(jobs=4, executor="thread", store=store)
    results = runner.run(scenarios)
    assert len(store) == len(scenarios)
    again = BatchRunner(jobs=4, executor="thread", store=store).run(scenarios)
    assert [r.transmissions for r in results] == [
        r.transmissions for r in again
    ]
