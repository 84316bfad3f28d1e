"""The four benchmark workloads, each driven through the public API.

Every workload follows one protocol (see :class:`Workload`):

- ``setup()`` builds everything the first timed call needs.  ``run.py``
  times it, repeats it, and reports the median as part of ``setup_s``.
- ``prepare()`` gives the next iteration fresh state (an empty store, or
  the service's stored rows dropped) outside the timed section.
- ``iterate()`` runs one timed iteration and returns an
  :class:`Iteration`: its timings, its exact-repeat record and the
  failures its per-iteration output checks found.
- ``check()`` runs, once after the timed loop, the output checks that
  are too slow to repeat every iteration.

Inputs derive from the workload seed alone; every iteration of a run
repeats identical work (``round_size`` iterations for ``study-paper``),
so records and exact counts must repeat across iterations and runs.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import time
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro import run
from repro.core.study import Study, paper_study_spec
from repro.rng import derive_seed
from repro.scenario import Scenario
from repro.service import ServiceApp, ServiceClient, ServiceServer, WorkerPool
from repro.service.client import ServiceError
from repro.service.jobs import ACTIVE_STATUSES
from repro.store import Campaign, ResultStore
from repro.store.db import RESULT_COLUMNS, canonical_json
from repro.system.stochastic import manifest_scenarios, named_family

#: Scenarios per campaign manifest: two default 16-scenario chunks, so a
#: change that widens chunks moves ``first_result_s``.
CAMPAIGN_SCENARIOS = 32
#: ``campaign-cold`` re-simulates every CHECK_STRIDE-th row on the scalar
#: envelope backend and compares the bytes.
CHECK_STRIDE = 8
#: The paper's reference study seed (the committed Table VI run).
PAPER_SEED = 1
#: The paper's published improvement factor (Table VI: 899/405 ~ 894/405).
PAPER_GAIN = 2.22
#: Studies per ``study-paper`` round: the reference plus seed-derived ones.
STUDIES_PER_ROUND = 4
#: Single-scenario jobs per ``service-jobs`` job list.
SERVICE_JOBS = 4
#: Client status-poll interval and per-job give-up time, seconds.
POLL_S = 0.05
JOB_TIMEOUT_S = 60.0
#: ``repro-wsn serve`` defaults: worker threads and idle poll interval.
SERVE_WORKERS = 2
SERVE_POLL_S = 0.5

_COL = {name: RESULT_COLUMNS.index(name) for name in RESULT_COLUMNS}


@dataclass
class Iteration:
    """One timed iteration's measurements and checks."""

    wall_s: float
    #: Per submitted unit (campaign, study, job): time to its first
    #: durable chunk.
    first_results: List[float]
    scenarios: int
    latencies: List[float]
    record: Dict[str, object]
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Workload-level per-layer values (absent keys read as 0).
    extra: Dict[str, float] = field(default_factory=dict)
    #: The traced window and its per-layer values (traced runs only).
    window: Optional[object] = None
    layers: Dict[str, float] = field(default_factory=dict)


class Clock:
    """Timed-section start plus the first durable-chunk mark."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.first: Optional[float] = None

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def on_chunk(self, done: int, total: int) -> None:
        if done and self.first is None:
            self.first = self.elapsed()


def fresh_store(path: Path) -> ResultStore:
    """An empty store at ``path`` (any previous file is removed)."""
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)
    return ResultStore(path)


def store_record(store: ResultStore) -> Dict[str, object]:
    """Exact-repeat record of every row: digest, rows, transmissions.

    The digest covers the key-ordered ``(key, scenario, payload)`` bytes;
    provenance columns (wall time, timestamps, version) are excluded.
    """
    digest = hashlib.sha256()
    rows = transmissions = size = 0
    for row in store.iter_raw():
        for column in ("key", "scenario", "payload"):
            data = row[_COL[column]].encode()
            digest.update(data)
            digest.update(b"\0")
            if column != "key":
                size += len(data)
        rows += 1
        transmissions += int(row[_COL["transmissions"]])
    return {
        "digest": digest.hexdigest(),
        "rows": rows,
        "transmissions": transmissions,
        "bytes_per_row": size / rows if rows else 0.0,
    }


class Workload:
    """Base protocol; see the module docstring."""

    name = ""
    #: Iterations per repeating unit of distinct inputs.
    round_size = 1

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = int(seed)
        self.work = work
        self.root = root
        self.store: Optional[ResultStore] = None
        self._used = False

    def new_store(self, filename: str) -> ResultStore:
        """Close the current store and open an empty one."""
        if self.store is not None:
            self.store.close()
        self.store = fresh_store(self.work / filename)
        return self.store

    def setup(self) -> None:
        raise NotImplementedError

    def fresh(self) -> None:
        """Per-iteration fresh state (default: none needed)."""

    def prepare(self) -> None:
        if self._used:
            self.fresh()
        self._used = True

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def check(self) -> Tuple[int, List[str]]:
        """Once-per-run output checks: ``(checks made, failures)``."""
        return 0, []

    def teardown(self) -> None:
        """Release what ``setup()`` started (safe to call repeatedly)."""
        self._used = False
        if self.store is not None:
            self.store.close()

    def close(self) -> None:
        self.teardown()


class CampaignCold(Workload):
    """gen-scenarios factory-floor (vectorized) -> campaign run, fresh store."""

    name = "campaign-cold"

    def setup(self) -> None:
        # repro-wsn gen-scenarios factory-floor --n N --seed SEED
        #     --backend vectorized --out cold-manifest.json
        family = replace(named_family("factory-floor"), backend="vectorized")
        manifest = family.manifest(n=CAMPAIGN_SCENARIOS, seed=self.seed)
        self.manifest = self.work / "cold-manifest.json"
        self.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.fresh()

    def fresh(self) -> None:
        self.new_store("cold.db")

    def iterate(self) -> Iteration:
        clock = Clock()
        # repro-wsn campaign run cold-manifest.json: Campaign.create + run.
        payload = json.loads(self.manifest.read_text())
        scenarios = manifest_scenarios(payload)
        campaign = Campaign.create(
            self.store,
            f"{payload['family']}-n{payload['n']}-s{payload['seed']}",
            scenarios,
            source=f"manifest {self.manifest.name}",
            exist_ok=True,
        )
        results = campaign.run(on_chunk=clock.on_chunk)
        wall = clock.elapsed()
        record = store_record(self.store)
        failures = []
        missing = sum(result is None for result in results)
        if missing or record["rows"] != len(scenarios):
            failures.append(
                f"{missing} missing results, {record['rows']} rows stored "
                f"for {len(scenarios)} scenarios"
            )
        self.last = (scenarios, results)
        return Iteration(
            wall_s=wall,
            first_results=[clock.first if clock.first is not None else wall],
            scenarios=len(results),
            latencies=[wall],
            record=record,
            attempted=len(scenarios),
            failures=failures,
            extra={"store.bytes_per_row": record["bytes_per_row"]},
        )

    def check(self) -> Tuple[int, List[str]]:
        scenarios, results = self.last
        failures = []
        for scenario, result in zip(scenarios, results):
            if canonical_json(result.to_payload()) != self.store.get_payload_text(
                scenario
            ):
                failures.append(f"{scenario.name}: returned result != stored row")
        # The differential contract: vectorized rows are byte-identical
        # to scalar envelope runs of the same scenarios.
        strided = scenarios[::CHECK_STRIDE]
        for scenario in strided:
            scalar = run(replace(scenario, backend="envelope"))
            if canonical_json(scalar.to_payload()) != self.store.get_payload_text(
                scenario
            ):
                failures.append(f"{scenario.name}: envelope payload != stored row")
        return len(scenarios) + len(strided), failures


def committed_table6(root: Path) -> Optional[Tuple[int, int, int]]:
    """(original, SA, GA) transmissions of the committed Table VI run."""
    path = root / "benchmarks" / "results" / "table6_optimisation.txt"
    if not path.is_file():
        return None
    match = re.search(
        r"ours:\s+original (\d+), SA (\d+), GA (\d+)", path.read_text()
    )
    return tuple(int(g) for g in match.groups()) if match else None


class StudyPaper(Workload):
    """The paper's section-V Study, one per iteration, fresh store each."""

    name = "study-paper"
    round_size = STUDIES_PER_ROUND

    def __init__(self, seed: int, work: Path, root: Path):
        super().__init__(seed, work, root)
        self.seeds = [PAPER_SEED] + [
            derive_seed(self.seed, i) % 100_000 for i in range(1, STUDIES_PER_ROUND)
        ]
        self.outcomes: Dict[int, tuple] = {}

    def setup(self) -> None:
        self.table6 = committed_table6(self.root)
        self.index = 0
        self.fresh()

    def fresh(self) -> None:
        self.new_store("study.db")

    def iterate(self) -> Iteration:
        seed = self.seeds[self.index % len(self.seeds)]
        self.index += 1
        spec = paper_study_spec(seed=seed)
        clock = Clock()
        study = Study(spec, store=self.store)
        outcome = study.run(on_chunk=clock.on_chunk)
        wall = clock.elapsed()
        record = store_record(self.store)
        record["study_seed"] = seed
        record["outcome"] = [outcome.original_transmissions] + [
            entry.simulated_value for entry in outcome.optima
        ]
        self.outcomes.setdefault(seed, (study, outcome))
        # Every round opens with the reference study, so its outcome is
        # known to the whole round.
        gain = self.outcomes[PAPER_SEED][1].improvement_factor()
        extra = {
            "objective.simulations": outcome.n_simulations,
            "store.bytes_per_row": record["bytes_per_row"],
            "paper_gain_error": abs(gain - PAPER_GAIN) / PAPER_GAIN,
        }
        return Iteration(
            wall_s=wall,
            first_results=[clock.first if clock.first is not None else wall],
            scenarios=outcome.n_simulations,
            latencies=[wall],
            record=record,
            attempted=1,
            extra=extra,
        )

    def check(self) -> Tuple[int, List[str]]:
        failures = []
        checked = 0
        for seed, (study, outcome) in sorted(self.outcomes.items()):
            objective = study.objective
            runs = [("original", study.spec.original, outcome.original_transmissions)]
            runs += [(e.method, e.config, e.simulated_value) for e in outcome.optima]
            for label, config, value in runs:
                checked += 1
                again = run(objective.scenario_for(config)).transmissions
                if again != value:
                    failures.append(
                        f"study seed {seed} {label}: re-simulated {again} != {value}"
                    )
            if seed == PAPER_SEED:
                checked += 1
                ours = tuple(int(value) for _, _, value in runs)
                if ours != self.table6:
                    failures.append(
                        f"seed {PAPER_SEED} outcome {ours} != committed "
                        f"Table VI {self.table6}"
                    )
        return checked, failures


def _unix(iso: str) -> float:
    return datetime.fromisoformat(iso).timestamp()


class ServiceJobs(Workload):
    """In-process serve; one client keeps one single-scenario job in flight."""

    name = "service-jobs"

    def __init__(self, seed: int, work: Path, root: Path):
        super().__init__(seed, work, root)
        self.metrics_were_on = obs.metrics_enabled()
        self.server = self.pool = None
        self.retries = 0
        self.fetched_digests: List[str] = []

    def setup(self) -> None:
        """Expand the job list, then ``repro-wsn serve --store DB --port 0``
        at the CLI defaults, in this process."""
        family = replace(named_family("vehicle"), backend="vectorized")
        self.docs = [s.to_dict() for s in family.expand(n=SERVICE_JOBS, seed=self.seed)]
        self.new_store("service.db")
        self.pool = WorkerPool(
            self.store, workers=SERVE_WORKERS, jobs=1, poll_interval=SERVE_POLL_S
        )
        # ServiceApp's default telemetry=True turns the process-wide
        # metrics registry on, exactly as ``serve`` does; close() restores it.
        app = ServiceApp(self.store, pool=self.pool)
        self.server = ServiceServer(app, host="127.0.0.1", port=0)
        try:
            self.pool.start()
            self.server.start()
            self.client = ServiceClient(self.server.url, sleep=self._retry_sleep)
            self.client.healthz()
        except BaseException:
            self.teardown()
            raise

    def _retry_sleep(self, seconds: float) -> None:
        self.retries += 1
        time.sleep(seconds)

    def fresh(self) -> None:
        # Drop the rows (not the service): the next job list simulates the
        # same scenarios again against workers already in their steady
        # poll rhythm, as a long-running ``serve`` would.
        self.store.gc(family="vehicle")

    def teardown(self) -> None:
        super().teardown()
        try:
            if self.server is not None:
                self.server.shutdown()
        finally:
            self.server = None
            if self.pool is not None:
                pool, self.pool = self.pool, None
                if not pool.stop(drain=True, timeout=JOB_TIMEOUT_S):
                    raise RuntimeError("service worker pool did not stop")

    def close(self) -> None:
        try:
            self.teardown()
        finally:
            obs.configure(metrics=self.metrics_were_on)
            obs.metrics().reset()

    def _one_job(self, doc: dict) -> Tuple[dict, int, float, dict]:
        """Submit -> poll until terminal -> fetch results (one job).

        Returns the final job document, the status polls made, the time
        from submission until the poll that saw the job terminal, and the
        results page.
        """
        started = perf_counter()
        job = self.client.submit(doc, kind="scenario")
        deadline = perf_counter() + JOB_TIMEOUT_S
        polls = 0
        while job["status"] in ACTIVE_STATUSES:
            if perf_counter() > deadline:
                raise TimeoutError(f"job {job['id']} still {job['status']}")
            time.sleep(POLL_S)
            job = self.client.job(job["id"])
            polls += 1
        durable_s = perf_counter() - started
        if job["status"] != "done":
            return job, polls, durable_s, {}
        return job, polls, durable_s, self.client.results(job["id"])

    def iterate(self) -> Iteration:
        self.retries = 0
        clock = Clock()
        latencies, durable, done, failures = [], [], [], []
        polls = 0
        for doc in self.docs:
            started = perf_counter()
            try:
                job, job_polls, durable_s, page = self._one_job(doc)
            except (ServiceError, TimeoutError) as exc:
                failures.append(f"{doc['name']}: {exc}")
                continue
            polls += job_polls
            if job["status"] != "done":
                failures.append(f"job {job['id']} {job['status']}: {job['error']}")
                continue
            latencies.append(perf_counter() - started)
            durable.append(durable_s)
            done.append((job, page))
        wall = clock.elapsed()

        fetched = []
        for job, page in done:
            entries = page.get("results", [])
            if len(entries) != 1 or entries[0].get("result") is None:
                failures.append(f"job {job['id']}: {len(entries)} result entries")
                continue
            fetched.append((entries[0]["key"], canonical_json(entries[0]["result"])))
        self.fetched = fetched
        digest = hashlib.sha256()
        for key, text in fetched:
            digest.update(f"{key}\0{text}\0".encode())
        self.fetched_digests.append(digest.hexdigest())
        record = store_record(self.store)
        waits = [job["started_unix"] - _unix(job["submitted_at"]) for job, _ in done]
        return Iteration(
            wall_s=wall,
            first_results=durable,
            scenarios=len(fetched),
            latencies=latencies,
            record=record,
            attempted=len(self.docs),
            failures=failures,
            extra={
                "store.bytes_per_row": record["bytes_per_row"],
                "worker.queue_wait_s": statistics.median(waits) if waits else 0.0,
                "client.polls_per_job": polls / len(self.docs),
                "client.retries": self.retries,
            },
        )

    def check(self) -> Tuple[int, List[str]]:
        """Fetched rows == the rows an in-process Campaign.run writes."""
        reference = fresh_store(self.work / "service-reference.db")
        for i, doc in enumerate(self.docs):
            Campaign.create(reference, f"reference-{i}", [Scenario.from_dict(doc)]).run()
        failures = [
            f"fetched row {key[:12]} != in-process campaign row"
            for key, text in self.fetched
            if reference.get_payload_text(key) != text
        ]
        if len(set(self.fetched_digests)) != 1:
            failures.append("fetched rows differ between iterations")
        reference.close()
        return len(self.fetched) + 1, failures


#: Every workload by its benchmark name.
WORKLOADS = {cls.name: cls for cls in (CampaignCold, StudyPaper, ServiceJobs)}
