"""Throughput of the vectorized batch envelope backend.

The acceptance case, written to ``BENCH_vectorized.json``: one
**1k-scenario** stochastic-family batch on the vectorized backend must
be at least **25x faster** than running the same scenarios serially on
the scalar envelope backend, with byte-identical results.

Workload: the ``factory-floor`` family on the fine integration grid
(``dt_max=0.5`` s -- four integration steps per default-grid step).
Per-step integration work is what the lockstep engine amortises across
the whole batch, while tuning sessions (rare, RNG-stream-bound) run
through scalar machinery on both sides; the fine grid is therefore the
regime the vectorized backend exists for, and the regime where the
paper-scale studies that need 1k-scenario families actually run.

Measurement protocol (container timing noise is +-15% run to run, so
the bench is built to be insensitive to it):

- the serial envelope side is timed on a deterministic 32-lane stride
  of the family (lanes 0, 32, 64, ...) and extrapolated by lane count
  -- scenario costs are iid across the family, and timing all 1024
  serially would take minutes per rep;
- both sides are timed in interleaved repetitions (vec, serial, vec,
  serial, ...) so a slow stretch of the container hits both sides, and
  the reported ratio is the ratio of per-side **medians**;
- byte-identity checks (scalar envelope vs batch payloads, and
  vectorized store rows written serially vs via the batch path) run
  outside the timed sections.
"""

import gc
import json
import statistics
import time
from dataclasses import replace

from repro.backends import get_backend, quiet_options
from repro.core.batch import BatchRunner
from repro.store import ResultStore
from repro.system.stochastic import named_family
from repro.system.vectorized import simulate_batch

#: Acceptance batch size (the issue's 1k-scenario family).
N_SCENARIOS = 1024
#: Family expansion seed: the whole bench is reproducible.
SEED = 42
#: Required vectorized-batch over serial-envelope advantage.
MIN_SPEEDUP = 25.0
#: Fine integration grid (seconds): the per-step-dominated regime the
#: batch engine is built for (the family default is 2.0).
DT_MAX = 0.5
#: Serial lanes actually timed (strided across the family, extrapolated).
SERIAL_STRIDE = 32
#: Interleaved timing repetitions per side.
N_REPS = 3
#: Scenarios re-run one at a time for the store byte-identity check
#: (serial vectorized runs cost scalar-ish time, so the subset is small).
N_STORE_CHECK = 4


def _scenarios():
    family = named_family("factory-floor")
    options = dict(quiet_options("envelope"), dt_max=DT_MAX)
    return [
        replace(s, options=options)
        for s in family.expand(n=N_SCENARIOS, seed=SEED)
    ]


def test_vectorized_batch_speedup_and_byte_identity(tmp_path, write_artifact):
    scenarios = _scenarios()
    assert len(scenarios) == N_SCENARIOS
    serial_subset = scenarios[::SERIAL_STRIDE]
    envelope = get_backend("envelope")

    # Warm both paths before timing (imports, the shared physics cache).
    envelope.simulate(serial_subset[0])
    simulate_batch(scenarios[:8])

    # Interleaved raw-execution timing: each rep times the full
    # vectorized batch, then the strided serial subset.
    vec_times, serial_lane_times = [], []
    batch_results = None
    serial_results = None
    for _ in range(N_REPS):
        gc.collect()
        started = time.perf_counter()
        batch_results = simulate_batch(scenarios)
        vec_times.append(time.perf_counter() - started)

        gc.collect()
        started = time.perf_counter()
        serial_results = [envelope.simulate(s) for s in serial_subset]
        serial_lane_times.append(
            (time.perf_counter() - started) / len(serial_subset)
        )

    vectorized_s = statistics.median(vec_times)
    serial_per_lane_s = statistics.median(serial_lane_times)
    serial_envelope_s = serial_per_lane_s * N_SCENARIOS
    speedup = serial_envelope_s / vectorized_s

    # Byte-identity, scalar envelope vs the batch, on the timed subset:
    # full payloads (counters, tuning log, final state), not just
    # headline numbers.
    for lane, serial_result in zip(range(0, N_SCENARIOS, SERIAL_STRIDE),
                                   serial_results):
        assert json.dumps(
            serial_result.to_payload(), sort_keys=True
        ) == json.dumps(batch_results[lane].to_payload(), sort_keys=True), (
            f"lane {lane}: serial envelope and vectorized batch payloads "
            f"differ"
        )

    # Store byte-identity: rows written through the batch path equal the
    # rows a one-at-a-time vectorized pass writes for the same keys.
    vec_scenarios = [replace(s, backend="vectorized") for s in scenarios]
    batch_store = ResultStore(tmp_path / "vectorized-batch.db")
    for scenario, result in zip(vec_scenarios[:N_STORE_CHECK], batch_results):
        batch_store.put(scenario, result, wall_time_s=0.0)
    serial_store = ResultStore(tmp_path / "vectorized-serial.db")
    serial_runner = BatchRunner(
        jobs=1, cache_size=0, backend="vectorized", store=serial_store
    )
    for scenario in vec_scenarios[:N_STORE_CHECK]:
        serial_runner.run_one(scenario)
    keys = [s.cache_key() for s in vec_scenarios[:N_STORE_CHECK]]
    assert set(keys) <= set(serial_store.keys())
    mismatched = [
        key
        for key in keys
        if batch_store.get_payload_text(key) != serial_store.get_payload_text(key)
    ]
    assert not mismatched, (
        f"{len(mismatched)} of {len(keys)} store rows differ between "
        f"batch and serial vectorized execution"
    )

    payload = {
        "n_scenarios": N_SCENARIOS,
        "family": "factory-floor",
        "seed": SEED,
        "dt_max_s": DT_MAX,
        "reps": N_REPS,
        "serial_lanes_timed": len(serial_subset),
        "serial_per_lane_s": round(serial_per_lane_s, 4),
        "serial_envelope_s": round(serial_envelope_s, 3),
        "vectorized_batch_s": round(vectorized_s, 3),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "payload_lanes_byte_identical": len(serial_subset),
        "store_rows_byte_identical": len(keys),
    }
    write_artifact(
        "BENCH_vectorized.json", json.dumps(payload, indent=2, sort_keys=True)
    )

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized batch must be >= {MIN_SPEEDUP}x faster than serial "
        f"envelope (measured {speedup:.2f}x: serial {serial_envelope_s:.2f} s "
        f"extrapolated from {len(serial_subset)} lanes, vectorized "
        f"{vectorized_s:.2f} s)"
    )
