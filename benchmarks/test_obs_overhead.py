"""Telemetry overhead on the vectorized batch hot path.

The acceptance case, written to ``BENCH_obs.json``: enabling the full
telemetry stack -- the metrics registry *and* the span event sink -- on
a **256-scenario** vectorized family batch must cost less than **3%**
wall time over the same batch with telemetry off.

The measurement alternates off/on rounds and keeps the best of three of
each, so drift (thermal, scheduler) hits both arms alike.  Every round
gets a fresh store and a fresh runner: nothing is served from cache, so
each timed run is the same full simulate-and-persist pass.
"""

import json
import time
from dataclasses import replace

import repro.obs as obs
from repro.backends import quiet_options
from repro.core.batch import BatchRunner
from repro.obs.state import STATE
from repro.store import ResultStore
from repro.system.stochastic import named_family

#: Acceptance batch size (matches the throughput bench).
N_SCENARIOS = 256
#: Family expansion seed: the whole bench is reproducible.
SEED = 42
#: Telemetry may cost at most this fraction of the untelemetered time.
MAX_OVERHEAD = 0.03
#: Timed rounds per arm; the best (minimum) of each is compared.
ROUNDS = 3


def _scenarios():
    family = named_family("factory-floor")
    return [
        replace(s, options=quiet_options("envelope"))
        for s in family.expand(n=N_SCENARIOS, seed=SEED)
    ]


def _timed_batch(scenarios, tmp_path, label):
    store = ResultStore(tmp_path / f"{label}.db")
    runner = BatchRunner(
        jobs=1, cache_size=0, backend="vectorized", store=store
    )
    started = time.perf_counter()
    results = runner.run(scenarios)
    elapsed = time.perf_counter() - started
    assert len(results) == N_SCENARIOS
    return elapsed


def test_telemetry_overhead_under_three_percent(tmp_path, write_artifact):
    scenarios = _scenarios()
    saved = (STATE.metrics_on, STATE.sink_path)
    off_times, on_times = [], []
    try:
        # One untimed warm-up ahead of the alternation so import costs
        # and allocator warm-up are not charged to the first arm.
        STATE.metrics_on = False
        STATE.close_sink()
        STATE.sink_path = None
        _timed_batch(scenarios, tmp_path, "warmup")
        for i in range(ROUNDS):
            STATE.metrics_on = False
            STATE.close_sink()
            STATE.sink_path = None
            off_times.append(_timed_batch(scenarios, tmp_path, f"off{i}"))

            obs.configure(
                metrics=True, events=str(tmp_path / f"events{i}.jsonl")
            )
            on_times.append(_timed_batch(scenarios, tmp_path, f"on{i}"))
    finally:
        STATE.close_sink()
        STATE.metrics_on, STATE.sink_path = saved

    best_off, best_on = min(off_times), min(on_times)
    overhead = (best_on - best_off) / best_off

    payload = {
        "n_scenarios": N_SCENARIOS,
        "family": "factory-floor",
        "seed": SEED,
        "rounds": ROUNDS,
        "telemetry_off_s": [round(t, 4) for t in off_times],
        "telemetry_on_s": [round(t, 4) for t in on_times],
        "best_off_s": round(best_off, 4),
        "best_on_s": round(best_on, 4),
        "overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": MAX_OVERHEAD,
    }
    write_artifact(
        "BENCH_obs.json", json.dumps(payload, indent=2, sort_keys=True)
    )

    assert overhead < MAX_OVERHEAD, (
        f"telemetry must cost < {MAX_OVERHEAD:.0%} on the vectorized batch "
        f"(measured {overhead:.2%}: off {best_off:.3f} s, on {best_on:.3f} s)"
    )
