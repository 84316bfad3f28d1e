"""Command-line interface.

Installed as ``repro-wsn``; every capability is also available as a
module run (``python -m repro.cli ...``).  Subcommands:

- ``simulate``      -- one simulation of a configuration on any backend
  (``--trace`` writes the Fig. 5-style supercap CSV).
- ``run-scenario``  -- execute a scenario JSON file, a library name or a
  ``gen-scenarios`` manifest (see :mod:`repro.scenario`; ``--list``
  names the built-in library and the stochastic families).
- ``gen-scenarios`` -- expand a stochastic scenario family
  (:mod:`repro.system.stochastic`) into a JSON manifest of concrete,
  seeded scenarios.
- ``explore``       -- the full paper flow: D-optimal DOE, RSM fit, SA + GA,
  verification; prints Table VI and optionally persists JSON.
  ``--design/--surrogate/--optimizers`` swap any stage for another
  registered one.
- ``study``         -- declarative studies (:mod:`repro.core.study`):
  ``run SPEC.json|NAME``, ``resume NAME``, ``status [NAME]``,
  ``template``.  A study is the whole explore pipeline as a JSON value,
  journaled in a result store and resumable after a kill with zero
  re-simulation of stored design points.
- ``sweep``         -- Fig. 4-style one-parameter sweep on the simulator.
- ``report``        -- re-render a persisted exploration outcome.
- ``tradeoff``      -- NSGA-II Pareto front of transmissions vs. reserve.
- ``montecarlo``    -- distribution of a config over random environments.
- ``store``         -- the persistent result store (:mod:`repro.store`):
  ``init``, ``stats``, ``gc``, ``export``.
- ``campaign``      -- resumable batch execution over a store:
  ``run MANIFEST``, ``resume NAME``, ``status [NAME]``.
- ``serve``         -- simulation as a service (:mod:`repro.service`):
  an HTTP job API (submit scenario manifests or study specs, poll
  status, fetch results, cancel) plus a worker pool draining the
  store's durable job queue.  ``--once`` processes the queue and exits
  (cron-style worker); SIGTERM drains in-flight jobs gracefully.
  ``--log-json`` switches service logs to JSON lines, ``--events PATH``
  records telemetry spans, and ``/v1/metrics?format=prometheus``
  exports the registry (:mod:`repro.obs`).
- ``coord``         -- the distributed campaign coordinator
  (:mod:`repro.coord`): ``run MANIFEST --workers URL,URL`` fans the
  campaign's partitions out to remote ``serve`` processes, journals
  partition state durably in the local store, retries lost partitions
  on healthy workers and stream-merges results back as partitions
  finish; ``status`` reads the journal (and local row counts) with no
  workers needed.  ``--resume`` continues a killed run with zero
  re-fetch of merged partitions.
- ``obs``           -- inspect telemetry event logs: ``summary LOG``
  aggregates spans/events by name, ``tail LOG [-n N]`` shows the last
  records.

``--backend`` selects any registered simulation backend (``envelope``,
``detailed``, or ``vectorized`` -- the NumPy lockstep engine that runs
whole scenario batches as arrays; batch subcommands dispatch it in one
``run_batch`` call), ``--jobs`` fans batch subcommands out over worker
processes, and ``--store DB`` (on ``run-scenario``, ``gen-scenarios``,
``explore``, ``montecarlo``) reads/writes simulations through a
content-addressed on-disk store so repeated work is never simulated
twice.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.documents import format_json, read_json, write_json


def _add_backend_jobs(
    parser: argparse.ArgumentParser,
    jobs_help: str = "worker processes for batched simulations (default: 1)",
) -> None:
    parser.add_argument(
        "--backend",
        type=str,
        default="envelope",
        help=(
            "registered simulation backend: envelope, detailed or "
            "vectorized (default: envelope)"
        ),
    )
    parser.add_argument("--jobs", type=int, default=1, help=jobs_help)


def _add_store(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        required=required,
        metavar="DB",
        help="result store file"
        if required
        else "persistent result store (SQLite file); hits skip simulation",
    )


def _add_save(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--save", type=str, default=None, help="persist outcome JSON here"
    )


def _add_status(sub, help: str, name_help: str) -> None:
    status = sub.add_parser("status", help=help)
    status.add_argument("name", type=str, nargs="?", default=None, help=name_help)
    _add_store(status, required=True)


def _open_store(path: str, shards=None):
    from repro.store import open_store

    # A directory is a sharded store, a file is a plain one -- every
    # --store flag accepts both shapes.
    return open_store(path, shards=shards)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wsn",
        description=(
            "RSM-based design space exploration of an energy-harvester "
            "powered wireless sensor node (Wang et al., DATE 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one system simulation")
    sim.add_argument("--clock", type=float, default=4e6, help="MCU clock in Hz")
    sim.add_argument("--watchdog", type=float, default=320.0, help="watchdog period in s")
    sim.add_argument("--interval", type=float, default=5.0, help="fast transmission interval in s")
    sim.add_argument("--horizon", type=float, default=3600.0, help="simulated seconds")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--trace", type=str, default=None, help="write supercap CSV here")
    _add_backend_jobs(
        sim, jobs_help="accepted for symmetry; a single simulation runs serially"
    )

    rsc = sub.add_parser("run-scenario", help="execute a scenario JSON file")
    rsc.add_argument(
        "path",
        type=str,
        nargs="?",
        default=None,
        help="scenario JSON (from Scenario.save) or a library name",
    )
    rsc.add_argument(
        "--list", action="store_true", help="list the built-in scenario library"
    )
    rsc.add_argument(
        "--save", type=str, default=None, help="write the (resolved) scenario JSON here"
    )
    rsc.add_argument(
        "--backend", type=str, default=None, help="override the scenario's backend"
    )
    rsc.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "override the scenario's seed (for a manifest: re-seed the "
            "batch with per-scenario derived seeds)"
        ),
    )
    rsc.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes when running a manifest (default: 1)",
    )
    rsc.add_argument(
        "--out",
        type=str,
        default=None,
        help=(
            "write the canonical schema-stamped result payload JSON here "
            "(readable by 'repro-wsn report')"
        ),
    )
    _add_store(rsc)

    gen = sub.add_parser(
        "gen-scenarios",
        help="expand a stochastic scenario family into a JSON manifest",
    )
    gen.add_argument(
        "family",
        type=str,
        nargs="?",
        default=None,
        help="family name (see --list)",
    )
    gen.add_argument(
        "--list", action="store_true", help="list the stochastic family library"
    )
    gen.add_argument(
        "--n", type=int, default=1, help="replicates per grid point (default: 1)"
    )
    gen.add_argument(
        "--seed", type=int, default=0, help="family expansion seed (default: 0)"
    )
    gen.add_argument(
        "--horizon", type=float, default=None, help="override the family horizon (s)"
    )
    gen.add_argument(
        "--backend", type=str, default=None, help="override the family backend"
    )
    gen.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the manifest JSON here (default: stdout)",
    )
    gen.add_argument(
        "--campaign",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "with --store: campaign name to journal the expansion under "
            "(default: FAMILY-nN-sSEED)"
        ),
    )
    _add_store(gen)

    exp = sub.add_parser("explore", help="run the full paper DSE flow")
    exp.add_argument("--runs", type=int, default=10, help="D-optimal design size")
    exp.add_argument("--seed", type=int, default=1)
    exp.add_argument("--horizon", type=float, default=3600.0)
    _add_save(exp)
    exp.add_argument(
        "--design",
        type=str,
        default="d-optimal",
        help="registered design generator (default: d-optimal)",
    )
    exp.add_argument(
        "--surrogate",
        type=str,
        default="quadratic",
        help="registered surrogate fitter (default: quadratic)",
    )
    exp.add_argument(
        "--optimizers",
        type=str,
        default=None,
        metavar="A,B,...",
        help=(
            "comma-separated registered optimizers "
            "(default: simulated-annealing,genetic-algorithm)"
        ),
    )
    _add_backend_jobs(exp)
    _add_store(exp)

    stu = sub.add_parser(
        "study", help="declarative, journaled, resumable explorations"
    )
    stu_sub = stu.add_subparsers(dest="study_command", required=True)

    stu_run = stu_sub.add_parser(
        "run", help="execute a study spec (JSON file or library name)"
    )
    stu_run.add_argument(
        "spec",
        type=str,
        help="StudySpec JSON file, or a library name (e.g. 'paper')",
    )
    stu_run.add_argument(
        "--name",
        type=str,
        default=None,
        help="journal name override (default: the spec's own name)",
    )
    stu_run.add_argument("--jobs", type=int, default=None)
    stu_run.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="design points per durable chunk (default: max(4*jobs, 8))",
    )
    _add_save(stu_run)
    _add_store(stu_run)

    stu_res = stu_sub.add_parser(
        "resume", help="continue an interrupted study"
    )
    stu_res.add_argument("name", type=str, help="journaled study name")
    _add_store(stu_res, required=True)
    stu_res.add_argument("--jobs", type=int, default=None)
    _add_save(stu_res)

    _add_status(stu_sub, "study progress", "study name (omit to list every study)")

    stu_tpl = stu_sub.add_parser(
        "template", help="print a starter spec (the paper study) as JSON"
    )
    stu_tpl.add_argument(
        "--out", type=str, default=None, help="write the spec here (default: stdout)"
    )

    swp = sub.add_parser("sweep", help="one-parameter sweep (Fig. 4 style)")
    swp.add_argument(
        "--parameter",
        choices=["clock_hz", "watchdog_s", "tx_interval_s"],
        required=True,
    )
    swp.add_argument("--points", type=int, default=7)
    swp.add_argument("--seed", type=int, default=1)
    _add_backend_jobs(swp)

    rep = sub.add_parser("report", help="render a persisted outcome")
    rep.add_argument("path", type=str, help="JSON file from 'explore --save'")

    tro = sub.add_parser("tradeoff", help="Pareto front: transmissions vs reserve")
    tro.add_argument("--seed", type=int, default=1)
    tro.add_argument("--population", type=int, default=16)
    tro.add_argument("--generations", type=int, default=8)

    mc = sub.add_parser(
        "montecarlo", help="distribution of a config over random environments"
    )
    mc.add_argument("--clock", type=float, default=4e6)
    mc.add_argument("--watchdog", type=float, default=320.0)
    mc.add_argument("--interval", type=float, default=5.0)
    mc.add_argument("--samples", type=int, default=20)
    mc.add_argument("--seed", type=int, default=1)
    _add_backend_jobs(mc)
    _add_store(mc)

    sto = sub.add_parser("store", help="manage a persistent result store")
    sto_sub = sto.add_subparsers(dest="store_command", required=True)

    sto_init = sto_sub.add_parser("init", help="create an empty store")
    sto_init.add_argument("path", type=str, help="store database file")
    sto_init.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="create a sharded store: PATH becomes a directory of N "
        "shard files (N independent writers instead of one)",
    )

    sto_stats = sto_sub.add_parser("stats", help="summarise a store")
    sto_stats.add_argument("path", type=str, help="store database file")

    sto_gc = sto_sub.add_parser("gc", help="delete result rows and compact")
    sto_gc.add_argument("path", type=str, help="store database file")
    sto_gc.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        help="delete rows created at least this many days ago",
    )
    sto_gc.add_argument(
        "--family", type=str, default=None, help="delete one family's rows"
    )
    sto_gc.add_argument(
        "--orphans",
        action="store_true",
        help="delete rows referenced by no campaign or study",
    )
    sto_gc.add_argument(
        "--dry-run", action="store_true", help="count, do not delete"
    )
    sto_gc.add_argument(
        "--force",
        action="store_true",
        help="delete even rows an active (queued/running) job derives "
        "its progress from",
    )

    sto_mrg = sto_sub.add_parser(
        "merge", help="import other stores' rows (byte-identity checked)"
    )
    sto_mrg.add_argument(
        "dest", type=str, help="destination store (file or shard directory)"
    )
    sto_mrg.add_argument(
        "sources", type=str, nargs="+", help="source store(s) to import"
    )
    sto_mrg.add_argument(
        "--no-journals",
        action="store_true",
        help="import result rows only (skip campaign/study journals)",
    )
    sto_mrg.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be imported (rows, collisions, journal "
        "conflicts) without writing anything",
    )

    sto_syn = sto_sub.add_parser(
        "sync", help="merge two stores both ways so they converge"
    )
    sto_syn.add_argument("a", type=str, help="first store")
    sto_syn.add_argument("b", type=str, help="second store")
    sto_syn.add_argument(
        "--no-journals",
        action="store_true",
        help="sync result rows only (skip campaign/study journals)",
    )
    sto_syn.add_argument(
        "--dry-run",
        action="store_true",
        help="report both directions without writing anything",
    )

    sto_exp = sto_sub.add_parser("export", help="export rows as JSON or CSV")
    sto_exp.add_argument("path", type=str, help="store database file")
    sto_exp.add_argument(
        "--format", choices=["json", "csv"], default="json", help="output format"
    )
    sto_exp.add_argument(
        "--out", type=str, default=None, help="output file (default: stdout)"
    )
    sto_exp.add_argument("--family", type=str, default=None)
    sto_exp.add_argument("--backend", type=str, default=None)
    sto_exp.add_argument("--name-like", type=str, default=None, metavar="PATTERN")
    sto_exp.add_argument("--min-tx", type=int, default=None, metavar="N")
    sto_exp.add_argument("--max-tx", type=int, default=None, metavar="N")
    sto_exp.add_argument("--min-voltage", type=float, default=None, metavar="V")
    sto_exp.add_argument("--max-voltage", type=float, default=None, metavar="V")
    sto_exp.add_argument("--limit", type=int, default=None)
    sto_exp.add_argument(
        "--payloads",
        action="store_true",
        help="JSON only: embed the full result payloads",
    )

    camp = sub.add_parser("campaign", help="resumable batch execution")
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)

    camp_run = camp_sub.add_parser(
        "run", help="journal a gen-scenarios manifest and execute it"
    )
    camp_run.add_argument("manifest", type=str, help="gen-scenarios manifest JSON")
    _add_store(camp_run, required=True)
    camp_run.add_argument(
        "--name",
        type=str,
        default=None,
        help="campaign name (default: FAMILY-nN-sSEED from the manifest)",
    )
    camp_run.add_argument("--jobs", type=int, default=1)
    camp_run.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="scenarios per durable chunk (default: max(4*jobs, 16))",
    )
    camp_run.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help="split the campaign into N disjoint partitions; needs "
        "--partition I to pick the slice this process runs",
    )
    camp_run.add_argument(
        "--partition",
        type=int,
        default=None,
        metavar="I",
        help="with --partitions N: run only the I-th (1-based) slice as "
        "sub-campaign NAME@pIofN -- the distributed mode, where each "
        "process writes its own store and 'store merge' reconstitutes "
        "the canonical one",
    )

    camp_res = camp_sub.add_parser(
        "resume", help="continue an interrupted campaign"
    )
    camp_res.add_argument("name", type=str, help="campaign name")
    _add_store(camp_res, required=True)
    camp_res.add_argument("--jobs", type=int, default=1)
    camp_res.add_argument("--chunk", type=int, default=None)

    _add_status(
        camp_sub, "campaign progress", "campaign name (omit to list every campaign)"
    )

    srv = sub.add_parser(
        "serve", help="HTTP job API + worker pool over a result store"
    )
    _add_store(srv, required=True)
    srv.add_argument("--host", type=str, default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8080, help="listen port (0 picks a free one)"
    )
    srv.add_argument(
        "--workers", type=int, default=2, help="worker threads draining the queue"
    )
    srv.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="BatchRunner fan-out inside each job (default: 1)",
    )
    srv.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="scenarios per durable chunk (default: the campaign/study one)",
    )
    srv.add_argument(
        "--token",
        action="append",
        default=None,
        metavar="TOKEN",
        help="accepted bearer token (repeatable; omit for an open service)",
    )
    srv.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="rate limit per caller in requests/s (0 disables; 429 + Retry-After)",
    )
    srv.add_argument(
        "--burst", type=int, default=None, help="rate-limit burst (default: 2*rate)"
    )
    srv.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="idle worker poll interval in seconds: bounds pickup of jobs "
        "queued by other processes (a POST wakes an idle worker at once)",
    )
    srv.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=60.0,
        help="requeue a running job after this many silent seconds",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="graceful-shutdown window before in-flight jobs are requeued",
    )
    srv.add_argument(
        "--once",
        action="store_true",
        help="no HTTP server: drain the queue once and exit (cron worker)",
    )
    srv.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    srv.add_argument(
        "--log-json",
        action="store_true",
        help="emit service logs as JSON lines (default: human text)",
    )
    srv.add_argument(
        "--events",
        type=str,
        default=None,
        metavar="PATH",
        help="write telemetry spans/events as JSON lines to PATH",
    )
    srv.add_argument(
        "--stats-ttl",
        type=float,
        default=5.0,
        help="seconds /v1/metrics may serve cached store stats "
        "(0 rescans every scrape)",
    )

    crd = sub.add_parser(
        "coord", help="coordinate a campaign across remote serve workers"
    )
    crd_sub = crd.add_subparsers(dest="coord_command", required=True)

    crd_run = crd_sub.add_parser(
        "run", help="fan a manifest's partitions out to HTTP workers"
    )
    crd_run.add_argument(
        "manifest", type=str, help="gen-scenarios manifest JSON"
    )
    crd_run.add_argument(
        "--workers",
        type=str,
        required=True,
        metavar="URL[,URL...]",
        help="comma-separated worker base URLs (repro-wsn serve processes)",
    )
    crd_run.add_argument(
        "--store",
        type=str,
        required=True,
        metavar="DB",
        help="local canonical store: journals + stream-merged results",
    )
    crd_run.add_argument(
        "--name",
        type=str,
        default=None,
        help="campaign name (default: FAMILY-nN-sSEED from the manifest)",
    )
    crd_run.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help="slice count (default: min(workers, scenarios))",
    )
    crd_run.add_argument(
        "--token", type=str, default=None, help="bearer token for the workers"
    )
    crd_run.add_argument(
        "--resume",
        action="store_true",
        help="explicitly continue a journaled run (also implied when the "
        "journal already matches this manifest)",
    )
    crd_run.add_argument(
        "--poll",
        type=float,
        default=None,
        help="seconds between coordinator passes (default: 0.5)",
    )
    crd_run.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        help="declare a partition lost after this many seconds without "
        "progress (default: 60)",
    )
    crd_run.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="submission budget per partition (default: 3)",
    )
    crd_run.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="give up (CoordinationError) after this many seconds "
        "(default: wait for workers to come back)",
    )

    _add_status(
        crd_sub,
        "coordinated-campaign progress",
        "coordinated campaign name (omit to list every run)",
    )

    ob = sub.add_parser(
        "obs", help="inspect telemetry event logs (spans and events)"
    )
    ob_sub = ob.add_subparsers(dest="obs_command", required=True)
    ob_sum = ob_sub.add_parser(
        "summary", help="aggregate a span/event log by name"
    )
    ob_sum.add_argument("log", type=str, help="JSON-lines event log path")
    ob_tail = ob_sub.add_parser(
        "tail", help="render the last records of an event log"
    )
    ob_tail.add_argument("log", type=str, help="JSON-lines event log path")
    ob_tail.add_argument(
        "-n", type=int, default=20, help="records to show (default: 20)"
    )

    return parser


def _write_trace(result, path: str) -> None:
    from repro.core.report import series_to_csv

    grid = np.linspace(0.0, result.horizon, 721)
    csv = series_to_csv(
        {"time_s": grid, "v_store": result.traces["v_store"].resample(grid)}
    )
    with open(path, "w") as fh:
        fh.write(csv + "\n")
    print(f"trace written to {path}")


def _cmd_simulate(args) -> int:
    from repro.backends import run
    from repro.scenario import Scenario
    from repro.system.config import SystemConfig

    scenario = Scenario(
        config=SystemConfig(
            clock_hz=args.clock, watchdog_s=args.watchdog, tx_interval_s=args.interval
        ),
        horizon=args.horizon,
        seed=args.seed,
        backend=args.backend,
    )
    result = run(scenario)
    print(result.summary())
    if args.trace:
        _write_trace(result, args.trace)
    return 0


def _write_results_payload(path: str, scenarios, results) -> None:
    """Write a batch's canonical schema-stamped result document."""
    from repro.system.result import RESULT_SCHEMA

    payload = {
        "schema": RESULT_SCHEMA,
        "results": [
            {"name": s.name, "result": r.to_payload()}
            for s, r in zip(scenarios, results)
        ],
    }
    write_json(path, payload)
    print(f"results written to {path}")


def _run_manifest(args, payload) -> int:
    """Execute every scenario of a gen-scenarios manifest as one batch."""
    from dataclasses import replace

    from repro.core.batch import BatchRunner
    from repro.system.stochastic import manifest_scenarios

    scenarios = manifest_scenarios(payload)
    if args.backend is not None:
        scenarios = [replace(s, backend=args.backend) for s in scenarios]
    if args.seed is not None:
        # Re-seed the whole batch, keeping one independent noise stream
        # per scenario (a single shared seed would collapse the
        # replicate spread the family derived per (grid, replicate)).
        from repro.rng import derive_seed

        scenarios = [
            s.with_seed(derive_seed(args.seed, i)) for i, s in enumerate(scenarios)
        ]
    store = _open_store(args.store) if args.store else None
    label = payload.get("family", "manifest")
    print(f"{label}: {len(scenarios)} scenarios on {args.jobs} worker(s)")
    runner = BatchRunner(jobs=max(args.jobs, 1), store=store)
    results = runner.run(scenarios)
    for scenario, result in zip(scenarios, results):
        print(
            f"  {scenario.name or scenario.describe():<28s} "
            f"tx {result.transmissions:>6d}   "
            f"final {result.final_voltage:.3f} V"
        )
    total = sum(r.transmissions for r in results)
    print(f"total transmissions: {total}")
    if store is not None:
        print(
            f"store: {runner.store_hits} served from {args.store}, "
            f"{runner.misses} simulated fresh"
        )
    if args.out:
        _write_results_payload(args.out, scenarios, results)
    return 0


def _cmd_run_scenario(args) -> int:
    from dataclasses import replace
    from pathlib import Path

    from repro.backends import run
    from repro.scenario import Scenario, named_scenario, scenario_names
    from repro.system.stochastic import family_names, named_family

    if args.list:
        for name in scenario_names():
            print(f"{name:<16s} {named_scenario(name).describe()}")
        for name in family_names():
            fam = named_family(name)
            print(
                f"{name:<16s} stochastic family: "
                f"{len(fam.generator.states)} regimes, "
                f"horizon {fam.horizon:g} s (see gen-scenarios)"
            )
        return 0
    if args.path is None:
        print("error: give a scenario file (or --list)", file=sys.stderr)
        return 2
    path = Path(args.path)
    # Anything path-shaped is a file; bare words fall back to the library
    # (so a mistyped filename errors as a missing file, not a bad name).
    looks_like_file = path.suffix == ".json" or len(path.parts) > 1
    if path.exists() or looks_like_file:
        payload = read_json(args.path, "scenario file")
        if isinstance(payload, dict) and "scenarios" in payload:
            return _run_manifest(args, payload)
        scenario = Scenario.from_dict(payload)
    else:
        scenario = named_scenario(args.path)
    if args.backend is not None:
        scenario = replace(scenario, backend=args.backend)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    if args.save:
        scenario.save(args.save)
        print(f"scenario written to {args.save}")
    print(scenario.describe())
    if args.store:
        from repro.core.batch import BatchRunner

        runner = BatchRunner(jobs=1, store=_open_store(args.store))
        result = runner.run_one(scenario)
        source = "store" if runner.store_hits else "fresh simulation"
        print(f"({source}: {args.store})")
    else:
        result = run(scenario)
    print(result.summary())
    if args.out:
        result.save(args.out)
        print(f"result written to {args.out}")
    return 0


def _cmd_gen_scenarios(args) -> int:
    from dataclasses import replace

    from repro.system.stochastic import family_names, named_family

    if args.list:
        for name in family_names():
            fam = named_family(name)
            regimes = ", ".join(s.name for s in fam.generator.states)
            print(f"{name:<18s} regimes: {regimes}")
        return 0
    if args.family is None:
        print("error: give a family name (or --list)", file=sys.stderr)
        return 2
    family = named_family(args.family)
    if args.horizon is not None:
        family = replace(family, horizon=args.horizon)
    if args.backend is not None:
        family = replace(family, backend=args.backend)
    manifest = family.manifest(n=args.n, seed=args.seed)
    if args.out:
        write_json(args.out, manifest)
        print(
            f"{manifest['count']} scenarios of family {family.name!r} "
            f"(seed {args.seed}) written to {args.out}"
        )
    elif not args.store:
        print(format_json(manifest))
    if args.store:
        from repro.store import Campaign
        from repro.system.stochastic import manifest_name, manifest_scenarios

        name = args.campaign or manifest_name(manifest)
        campaign = Campaign.create(
            _open_store(args.store),
            name,
            manifest_scenarios(manifest),
            source=f"gen-scenarios {family.name}",
            exist_ok=True,
        )
        print(f"journaled in {args.store}: {campaign.status().summary()}")
        print(f"execute with: repro-wsn campaign resume {name} --store {args.store}")
    return 0


def _print_outcome(outcome, save: Optional[str] = None) -> None:
    from repro.core.report import render_table_vi

    print(outcome.summary())
    print()
    print(render_table_vi(outcome))
    print("\nmodel: y =", outcome.model.to_string(["x1", "x2", "x3"]))
    if save:
        from repro.core.campaign import save_outcome

        save_outcome(outcome, save)
        print(f"\noutcome saved to {save}")


def _cmd_explore(args) -> int:
    from dataclasses import replace

    from repro.core.study import Study, paper_study_spec, variant_name

    spec = paper_study_spec(
        seed=args.seed,
        n_runs=args.runs,
        horizon=args.horizon,
        backend=args.backend,
        jobs=args.jobs,
    )
    optimizers = (
        tuple(n.strip() for n in args.optimizers.split(",") if n.strip())
        if args.optimizers
        else spec.optimizers
    )
    spec = variant_name(
        replace(
            spec,
            design=args.design,
            surrogate=args.surrogate,
            optimizers=optimizers,
        ),
        paper_study_spec(),
    )
    study = Study(
        spec,
        store=_open_store(args.store) if args.store else None,
        on_name_conflict="suffix",
    )
    outcome = study.run()
    _print_outcome(outcome, save=args.save)
    return 0


def _cmd_study(args) -> int:
    from pathlib import Path

    from repro.core.study import (
        STUDY_LIBRARY,
        Study,
        StudySpec,
        named_study,
        paper_study_spec,
        study_status,
        study_statuses,
    )

    if args.study_command == "template":
        spec = paper_study_spec()
        if args.out:
            spec.save(args.out)
            print(f"study template written to {args.out}")
            print(f"run it with: repro-wsn study run {args.out} --store results.db")
        else:
            print(spec.to_json())
        return 0
    if args.study_command == "run":
        from dataclasses import replace

        if args.spec in STUDY_LIBRARY and not Path(args.spec).exists():
            spec = named_study(args.spec)
        else:
            spec = StudySpec.load(args.spec)
        if args.name:
            spec = replace(spec, name=args.name)
        store = _open_store(args.store) if args.store else None
        study = Study(spec, store=store, jobs=args.jobs, chunk_size=args.chunk)
        print(spec.describe())
        if store is not None:
            before = study.status()
            print(before.summary())
        outcome = study.run()
        if store is not None:
            print(study.status().summary())
        _print_outcome(outcome, save=args.save)
        if store is None:
            print(
                "\nhint: add --store DB to journal this study and make it "
                "resumable"
            )
        return 0
    if args.study_command == "resume":
        store = _open_store(args.store)
        study = Study.load(store, args.name, jobs=args.jobs)
        before = study.status()
        print(before.summary())
        outcome = study.run()
        print(study.status().summary())
        _print_outcome(outcome, save=args.save)
        return 0
    if args.study_command == "status":
        store = _open_store(args.store)
        if args.name is not None:
            print(study_status(store, args.name).summary())
            return 0
        statuses = study_statuses(store)
        if not statuses:
            print("no studies in this store")
            return 0
        for status in statuses:
            print(status.summary())
        return 0
    raise AssertionError(f"unhandled study command {args.study_command!r}")


def _cmd_sweep(args) -> int:
    from repro.core.paper import paper_objective
    from repro.core.report import format_table
    from repro.system.config import paper_parameter_space

    objective = paper_objective(seed=args.seed, backend=args.backend, jobs=args.jobs)
    space = paper_parameter_space()
    idx = space.names().index(args.parameter)
    axis = np.linspace(-1.0, 1.0, max(args.points, 2))
    points = np.zeros((len(axis), 3))
    points[:, idx] = axis
    values = objective.evaluate_design(points)
    rows = [
        [f"{coded:+.2f}", f"{space.to_natural(point)[idx]:g}", f"{value:.0f}"]
        for coded, point, value in zip(axis, points, values)
    ]
    print(
        format_table(
            ["coded", args.parameter, "transmissions"],
            rows,
            title=f"sweep of {args.parameter} (others at centre)",
        )
    )
    return 0


def _cmd_report(args) -> int:
    from repro.errors import DesignError

    payload = read_json(args.path, "report file")
    if not isinstance(payload, dict):
        raise DesignError(
            f"report payload must be a JSON object, got {type(payload).__name__}"
        )

    if "breakdown" in payload:
        # A single canonical result document (run-scenario --out).
        from repro.system.result import SystemResult

        print(SystemResult.from_payload(payload).summary())
        return 0
    if "results" in payload and "design" not in payload:
        # A batch result document (run-scenario MANIFEST --out).  Other
        # documents share the "results" key (e.g. store exports without
        # --payloads); fabricating empty results for those would be
        # silently wrong, so require the per-entry payload.
        from repro.system.result import SystemResult

        entries = payload["results"]
        if not all(isinstance(e, dict) and "result" in e for e in entries):
            raise DesignError(
                "not a renderable result document: entries in 'results' "
                "carry no 'result' payload (store exports need --payloads "
                "to be reportable)"
            )
        total = 0
        for entry in entries:
            result = SystemResult.from_payload(entry["result"])
            name = entry.get("name") or result.config.describe()
            print(f"== {name} ==")
            print(result.summary())
            print()
            total += result.transmissions
        print(f"total transmissions: {total}")
        return 0

    from repro.core.campaign import outcome_from_payload
    from repro.core.report import render_table_vi

    outcome = outcome_from_payload(payload)
    print(outcome.summary())
    print()
    print(render_table_vi(outcome))
    return 0


def _cmd_store(args) -> int:
    if args.store_command == "merge":
        from repro.store import merge_stores

        dest = _open_store(args.dest)
        earlier = []
        for source_path in args.sources:
            source = _open_store(source_path)
            report = merge_stores(
                dest,
                source,
                journals=not args.no_journals,
                dry_run=args.dry_run,
                earlier=earlier,
            )
            print(report.summary())
            earlier.append(source)
        return 0
    if args.store_command == "sync":
        from repro.store import sync_stores

        reports = sync_stores(
            _open_store(args.a),
            _open_store(args.b),
            journals=not args.no_journals,
            dry_run=args.dry_run,
        )
        for report in reports:
            print(report.summary())
        return 0
    if args.store_command == "init":
        from repro.store import STORE_SCHEMA

        store = _open_store(args.path, shards=args.shards)
        shards = getattr(store, "n_shards", 1)
        layout = f"{shards} shard(s), " if shards > 1 else ""
        print(
            f"store initialised at {args.path} "
            f"({layout}layout version {STORE_SCHEMA})"
        )
        return 0
    store = _open_store(args.path)
    if args.store_command == "stats":
        print(store.stats().summary())
        return 0
    if args.store_command == "gc":
        if (
            args.older_than_days is None
            and args.family is None
            and not args.orphans
        ):
            print(
                "error: gc needs a selector "
                "(--older-than-days / --family / --orphans)",
                file=sys.stderr,
            )
            return 2
        count = store.gc(
            older_than_days=args.older_than_days,
            family=args.family,
            orphans=args.orphans,
            dry_run=args.dry_run,
            force=args.force,
        )
        verb = "would delete" if args.dry_run else "deleted"
        print(f"{verb} {count} result row(s)")
        return 0
    if args.store_command == "export":
        filters = dict(
            family=args.family,
            backend=args.backend,
            name_like=args.name_like,
            min_transmissions=args.min_tx,
            max_transmissions=args.max_tx,
            min_final_voltage=args.min_voltage,
            max_final_voltage=args.max_voltage,
            limit=args.limit,
        )
        if args.format == "csv":
            text = store.export_csv(**filters)
        else:
            text = store.export_json(include_payloads=args.payloads, **filters)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"export written to {args.out}")
        else:
            print(text)
        return 0
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _cmd_campaign(args) -> int:
    from repro.store import Campaign, campaign_statuses

    # Flag and manifest errors come first, so a refused command writes
    # nothing.
    if args.campaign_command == "run":
        from repro.system.stochastic import manifest_name, manifest_scenarios

        error = None
        if args.partition is not None and args.partitions is None:
            error = "--partition needs --partitions (the total N)"
        elif args.partitions is not None and args.partition is None:
            error = (
                "--partitions needs --partition I (the slice this process "
                "runs); use --jobs N for a local run, or 'coord run' to "
                "spread the partitions over several hosts"
            )
        elif args.partitions is not None and not (
            1 <= args.partition <= args.partitions
        ):
            error = f"--partition must be 1..{args.partitions}, got {args.partition}"
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        payload = read_json(args.manifest, "manifest")
        scenarios = manifest_scenarios(payload)
        name = args.name or manifest_name(payload) or (
            f"manifest-n{payload.get('n', len(scenarios))}"
            f"-s{payload.get('seed', 0)}"
        )
    store = _open_store(args.store)
    if args.campaign_command == "run":
        source = f"manifest {args.manifest}"
        if args.partitions is not None:
            # Distributed mode: this process owns one slice, written to
            # its own --store; 'store merge' reconstitutes the whole.
            # The same two calls as a service partition job.
            from repro.store import partition_name, partition_scenarios

            index, of = args.partition, args.partitions
            scenarios = partition_scenarios(scenarios, of)[index - 1]
            print(
                f"partition {index}/{of} of {name!r}: "
                f"{len(scenarios)} scenario(s) -> {args.store}"
            )
            source = f"partition {index}/{of} of {name}"
            name = partition_name(name, index, of)
        campaign = Campaign.create(
            store, name, scenarios, source=source, exist_ok=True
        )
        if args.partitions is None:
            print(campaign.status().summary())
        results = campaign.run(jobs=max(args.jobs, 1), chunk_size=args.chunk)
        print(campaign.status().summary())
        print(f"total transmissions: {sum(r.transmissions for r in results)}")
        return 0
    if args.campaign_command == "resume":
        campaign = Campaign(store, args.name)
        before = campaign.status()
        print(before.summary())
        if before.complete:
            print("nothing to do")
            return 0
        results = campaign.resume(jobs=max(args.jobs, 1), chunk_size=args.chunk)
        print(campaign.status().summary())
        print(f"total transmissions: {sum(r.transmissions for r in results)}")
        return 0
    if args.campaign_command == "status":
        from repro.store import group_campaign_statuses

        if args.name is not None:
            print(Campaign(store, args.name).status().summary())
        else:
            statuses = campaign_statuses(store)
            if not statuses:
                print("no campaigns in this store")
            # NAME@pIofN partition journals fold under their parent
            # with an I/N-complete summary instead of flooding the list.
            for group in group_campaign_statuses(statuses):
                for line in group.summary_lines():
                    print(line)
        _print_job_counts(store)
        return 0
    raise AssertionError(f"unhandled campaign command {args.campaign_command!r}")


def _print_job_counts(store) -> None:
    """One service-queue line for the store-aware status commands."""
    from repro.service import JobQueue

    counts = JobQueue(store).counts()
    if any(counts.values()):
        print(
            "jobs: "
            + ", ".join(f"{status} {count}" for status, count in counts.items())
        )


def _cmd_serve(args) -> int:
    import signal
    import threading

    import repro.obs as obs
    from repro.service import JobQueue, ServiceApp, ServiceServer, WorkerPool

    # Every service line flows through the shared "repro" logger tree,
    # so --log-json switches the whole process (HTTP access lines,
    # worker claims, these status lines) to JSON lines at once.
    obs.configure_logging(json_lines=args.log_json)
    obs.configure(metrics=True, events=args.events)
    log = obs.get_logger("repro.service.serve")

    store = _open_store(args.store)
    queue = JobQueue(store)
    requeued = queue.requeue_orphans(args.heartbeat_timeout)
    if requeued:
        log.info("requeued %d orphaned job(s)", requeued)
    pool = WorkerPool(
        store,
        workers=max(args.workers, 1),
        jobs=max(args.jobs, 1),
        poll_interval=args.poll,
        heartbeat_timeout=args.heartbeat_timeout,
        chunk_size=args.chunk,
    )

    def _queue_line() -> str:
        counts = queue.counts()
        return ", ".join(f"{status} {count}" for status, count in counts.items())

    if args.once:
        processed = pool.run_once(requeue_orphans=False)
        log.info("processed %d job(s); queue: %s", processed, _queue_line())
        return 0

    app = ServiceApp(
        store,
        pool=pool,
        tokens=tuple(args.token or ()),
        rate=args.rate,
        burst=args.burst,
        verbose=args.verbose,
        stats_ttl=args.stats_ttl,
    )
    server = ServiceServer(app, host=args.host, port=args.port)
    pool.start()
    server.start()
    log.info(
        "serving on %s (store %s, %d worker(s), %d fan-out job(s) each)",
        server.url,
        args.store,
        pool.workers,
        args.jobs,
    )
    if not args.token:
        log.warning("no --token configured; the API is open")

    stop = threading.Event()

    def _request_shutdown(signum, frame):  # noqa: ARG001 (signal API)
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    log.info("shutting down: draining in-flight jobs...")
    server.shutdown()
    drained = pool.stop(drain=True, timeout=args.drain_timeout)
    if not drained:
        log.warning(
            "a worker did not exit; its job will requeue by heartbeat"
        )
    log.info("stopped; queue: %s", _queue_line())
    return 0


def _cmd_coord(args) -> int:
    from repro.coord import Coordinator, check_coordination, coord_names, coord_status

    if args.coord_command == "run":
        # Every store-free check first, so a refused run creates no store.
        payload = read_json(args.manifest, "manifest")
        workers = [u.strip() for u in args.workers.split(",") if u.strip()]
        options = {}
        if args.stall_timeout is not None:
            options["stall_timeout_s"] = args.stall_timeout
        if args.max_attempts is not None:
            options["max_attempts"] = args.max_attempts
        check_coordination(payload, workers, args.name, args.partitions, **options)
        if args.poll is not None:
            options["poll_interval_s"] = args.poll
    store = _open_store(args.store)
    if args.coord_command == "status":
        if args.name is not None:
            print(coord_status(store, args.name).summary())
            return 0
        names = coord_names(store)
        if not names:
            print("no coordinated campaigns in this store")
        for name in names:
            print(coord_status(store, name).summary())
        return 0
    if args.coord_command == "run":
        coordinator = Coordinator(
            store,
            payload,
            workers,
            name=args.name,
            partitions=args.partitions,
            token=args.token,
            deadline_s=args.deadline,
            **options,
        )
        if args.resume and not coordinator._resumed:
            print(f"note: no prior journal for {coordinator.name!r}; starting fresh")
        verb = "resuming" if coordinator._resumed else "starting"
        print(
            f"{verb} {coordinator.name!r}: {coordinator.partitions} "
            f"partition(s) over {len(workers)} worker(s)"
        )
        status = coordinator.run()
        print(status.summary())
        return 0
    raise AssertionError(f"unhandled coord command {args.coord_command!r}")


def _cmd_obs(args) -> int:
    from repro.obs.report import format_event_line, summarize_events, tail_events

    if args.obs_command == "summary":
        print(summarize_events(args.log).render())
        return 0
    for record in tail_events(args.log, n=args.n):
        print(format_event_line(record))
    return 0


def _cmd_tradeoff(args) -> int:
    from repro.core.multiobjective import explore_tradeoff
    from repro.core.report import format_table

    entries, result = explore_tradeoff(
        seed=args.seed,
        population_size=args.population,
        n_generations=args.generations,
    )
    rows = [
        [
            e.config.describe(),
            f"{e.transmissions:.0f}",
            f"{e.final_energy:.3f}",
        ]
        for e in entries
    ]
    print(
        format_table(
            ["configuration", "transmissions", "final energy (J)"],
            rows,
            title=f"Pareto front ({result.n_evaluations} evaluations)",
        )
    )
    point, objs = result.knee_point()
    print(f"\nknee point: {objs[0]:.0f} tx with {objs[1]:.3f} J reserved")
    return 0


def _cmd_montecarlo(args) -> int:
    from repro.core.montecarlo import monte_carlo
    from repro.system.config import SystemConfig

    config = SystemConfig(
        clock_hz=args.clock, watchdog_s=args.watchdog, tx_interval_s=args.interval
    )
    result = monte_carlo(
        config,
        n_samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
        backend=args.backend,
        store=_open_store(args.store) if args.store else None,
    )
    print(result.summary())
    print(
        f"final voltage: mean {np.mean(result.final_voltages):.3f} V, "
        f"min {np.min(result.final_voltages):.3f} V"
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "run-scenario": _cmd_run_scenario,
    "gen-scenarios": _cmd_gen_scenarios,
    "explore": _cmd_explore,
    "study": _cmd_study,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "tradeoff": _cmd_tradeoff,
    "montecarlo": _cmd_montecarlo,
    "store": _cmd_store,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "coord": _cmd_coord,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Piping into ``head``/``grep -q`` closes stdout early; that is
        # the consumer's prerogative, not an error worth a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
