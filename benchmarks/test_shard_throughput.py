"""Aggregate write capacity of the sharded store (:mod:`repro.store.shard`).

A single-file store has exactly one write lock, so its aggregate intake
is one writer's throughput no matter how many writers queue on it.  A
sharded store carries one lock *per shard file*, so its aggregate
capacity -- the rate N truly concurrent writers (separate processes or
machines, as in a partitioned campaign) can sustain together -- is the
**sum** of the per-shard rates.

This bench measures both sides on the same batch of rows and writes
``BENCH_shard.json``:

- ``single_file_rows_per_s``: wall throughput of ``WRITERS`` concurrent
  threads all writing the batch into one store file (they serialise on
  the single write lock, which is the point);
- ``shard_rows_per_s``: each shard's own intake rate, measured
  independently on its slice of the batch;
- ``aggregate_capacity_rows_per_s``: their sum -- what the same
  ``WRITERS`` writers achieve once each owns its own shard file;
- ``speedup``: aggregate capacity over the single-file wall rate, which
  must clear :data:`MIN_SPEEDUP`.

Capacity, not CPU: on a one-core runner the threads of the single-file
measurement are also GIL-serialised, so the comparison isolates exactly
the resource sharding multiplies (independent write locks), which is
what partitioned campaigns across processes exploit.  Timings take the
best of :data:`ROUNDS` rounds after a warmup pass, each round against
fresh store files.
"""

import json
import threading
import time

from repro.backends import quiet_options, run
from repro.scenario import PartsSpec, Scenario
from repro.store import ResultStore, ShardedResultStore, shard_index
from repro.system.config import SystemConfig

#: Shard count under test (the default layout, and the acceptance case).
N_SHARDS = 4

#: Concurrent writers hammering the single-file store.
WRITERS = 4

#: Rows per measurement: enough that per-shard slices (~1/4 of this)
#: time well above clock resolution, small enough to keep rounds snappy.
N_ROWS = 240

#: Timing rounds (best-of, after one untimed warmup round).
ROUNDS = 3

#: Required aggregate-capacity advantage (acceptance criterion).
MIN_SPEEDUP = 3.0


def _rows():
    """(scenario, result) pairs with distinct content keys.

    One short envelope simulation provides the payload; distinct seeds
    give every row its own sha256 cache key, which the shard router
    spreads uniformly.
    """
    base = Scenario(
        config=SystemConfig(tx_interval_s=0.5),
        parts=PartsSpec(v_init=2.85),
        horizon=60.0,
        seed=0,
        backend="envelope",
        options=quiet_options("envelope"),
    )
    result = run(base)
    scenarios = [
        Scenario(
            config=SystemConfig(tx_interval_s=0.5),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
            backend="envelope",
            options=quiet_options("envelope"),
            name=f"shard-bench-{i}",
        )
        for i in range(N_ROWS)
    ]
    return [(scenario, result) for scenario in scenarios]


def _single_file_wall_rate(rows, tmp_path_factory):
    """Wall throughput of WRITERS threads sharing one store file."""
    best = float("inf")
    for round_no in range(ROUNDS + 1):  # round 0 is the warmup
        store = ResultStore(
            tmp_path_factory.mktemp(f"single-{round_no}") / "bench.db"
        )
        slices = [rows[i::WRITERS] for i in range(WRITERS)]

        def write_slice(chunk):
            for scenario, result in chunk:
                store.put(scenario, result)

        threads = [
            threading.Thread(target=write_slice, args=(chunk,))
            for chunk in slices
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        assert len(store) == len(rows)
        store.close()
        if round_no > 0:
            best = min(best, elapsed)
    return len(rows) / best


def _per_shard_rates(rows, tmp_path_factory):
    """Each shard's independent intake rate on its slice of the batch."""
    groups = [[] for _ in range(N_SHARDS)]
    for scenario, result in rows:
        groups[shard_index(scenario.cache_key(), N_SHARDS)].append(
            (scenario, result)
        )
    assert all(groups), "batch left a shard empty; grow N_ROWS"

    best = [float("inf")] * N_SHARDS
    for round_no in range(ROUNDS + 1):
        store = ShardedResultStore(
            tmp_path_factory.mktemp(f"sharded-{round_no}") / "store",
            shards=N_SHARDS,
        )
        for index, group in enumerate(groups):
            t0 = time.perf_counter()
            for scenario, result in group:
                store.put(scenario, result)
            elapsed = time.perf_counter() - t0
            if round_no > 0:
                best[index] = min(best[index], elapsed)
        assert len(store) == len(rows)
        store.close()
    return [len(group) / t for group, t in zip(groups, best)]


def test_sharded_aggregate_write_capacity(tmp_path_factory, write_artifact):
    rows = _rows()
    single_rate = _single_file_wall_rate(rows, tmp_path_factory)
    shard_rates = _per_shard_rates(rows, tmp_path_factory)
    capacity = sum(shard_rates)
    speedup = capacity / single_rate

    payload = {
        "n_rows": N_ROWS,
        "shards": N_SHARDS,
        "writers": WRITERS,
        "rounds": ROUNDS,
        "single_file_rows_per_s": round(single_rate, 1),
        "shard_rows_per_s": [round(rate, 1) for rate in shard_rates],
        "aggregate_capacity_rows_per_s": round(capacity, 1),
        "speedup": round(speedup, 2),
        "note": (
            "aggregate write capacity (sum of independent per-shard "
            "rates) vs the wall rate of concurrent writers serialising "
            "on one store file's single write lock"
        ),
    }
    write_artifact(
        "BENCH_shard.json", json.dumps(payload, indent=2, sort_keys=True)
    )

    assert speedup >= MIN_SPEEDUP, (
        f"{N_SHARDS} shards only offer {speedup:.2f}x the single-file "
        f"intake ({capacity:.0f} vs {single_rate:.0f} rows/s); sharding "
        f"must multiply write capacity by >= {MIN_SPEEDUP:g}x"
    )
