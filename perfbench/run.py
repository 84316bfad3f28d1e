"""Benchmark entry point: one workload, timed end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-cold --seed 0 --seconds 35 --trace 0

``--trace 0`` times the workload with tracing off and reports every
end-to-end metric.  ``--trace 1`` first times it untraced, then wraps
each layer's public functions (``layers.py``) and reports the per-layer
table, its reconciliation with the traced wall time, and the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402 -- the clock above starts before any import
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sqlite3  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The second seed: re-check a claimed gain on inputs it was not tuned on.
CHECK_SEED = 7
#: Set-up repetitions per run (``setup_s`` reports their median).
SETUP_REPEATS = 3
#: Minimum timed iterations (untraced run; each traced-run phase).
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("first_result_s", "s"),
    ("job_latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

def _frame_s(frame: str):
    return lambda sample: sample.window.time(frame)


def _frame_calls(frame: str):
    return lambda sample: sample.window.n(frame)


def _counted(name: str):
    return lambda sample: sample.window.counts.get(name, 0)


def _ratio(counted: str, frame: str):
    return lambda sample: sample.window.ratio(counted, frame)


def _extra(name: str):
    return lambda sample: sample.extra.get(name, 0)


def _keys_per_scenario(sample) -> float:
    window = sample.window
    distinct = window.distinct_keys
    return window.n("scenario.cache_key") / distinct if distinct else 0.0


#: Every per-layer metric: (name, unit, exact, how one traced iteration
#: reads it).  ``exact`` values must repeat on every iteration and on
#: every run with the same seed.
PER_LAYER = (
    ("scenario.cache_key.calls", "count", True, _frame_calls("scenario.cache_key")),
    ("scenario.cache_key.per_scenario", "ratio", True, _keys_per_scenario),
    ("scenario.cache_key.self_s", "s", False, _frame_s("scenario.cache_key")),
    ("scenario.from_dict.self_s", "s", False, _frame_s("scenario.from_dict")),
    ("stochastic.expand.self_s", "s", False, _extra("stochastic.expand.self_s")),
    ("vectorized.run_batch.calls", "count", True, _frame_calls("vectorized.run_batch")),
    ("vectorized.lanes_per_call", "ratio", True,
     _ratio("vectorized.lanes", "vectorized.run_batch")),
    ("vectorized.run_batch.self_s", "s", False, _frame_s("vectorized.run_batch")),
    ("envelope.simulate.calls", "count", True, _frame_calls("envelope.simulate")),
    ("envelope.simulate.self_s", "s", False, _frame_s("envelope.simulate")),
    ("result.to_payload.self_s", "s", False, _frame_s("result.to_payload")),
    ("result.from_payload.self_s", "s", False, _frame_s("result.from_payload")),
    ("store.put.calls", "count", True, _frame_calls("store.put")),
    ("store.put.insert_ratio", "ratio", True, _ratio("store.put.inserted", "store.put")),
    ("store.put.self_s", "s", False, _frame_s("store.put")),
    ("store.get.calls", "count", True, _frame_calls("store.get")),
    ("store.get.hit_ratio", "ratio", True, _ratio("store.get.hits", "store.get")),
    ("store.get.self_s", "s", False, _frame_s("store.get")),
    ("store.bytes_per_row", "bytes", True, _extra("store.bytes_per_row")),
    ("campaign.chunks", "count", True, _counted("campaign.chunks")),
    ("campaign.create.self_s", "s", False, _frame_s("campaign.create")),
    ("campaign.run.self_s", "s", False, _frame_s("campaign.run")),
    ("batch.run.calls", "count", True, _frame_calls("batch.run")),
    ("batch.simulated", "count", True, _counted("batch.simulated")),
    ("batch.store_hits", "count", True, _counted("batch.store_hits")),
    ("batch.memory_hits", "count", True, _counted("batch.memory_hits")),
    ("batch.run.self_s", "s", False, _frame_s("batch.run")),
    ("doe.build_design.self_s", "s", False, _frame_s("doe.build_design")),
    ("rsm.fit.self_s", "s", False, _frame_s("rsm.fit")),
    ("rsm.predict.calls", "count", True, _counted("rsm.predict.calls")),
    ("optimize.self_s", "s", False, _frame_s("optimize")),
    ("objective.simulations", "count", True, _extra("objective.simulations")),
    ("objective.evaluate_design.self_s", "s", False,
     _frame_s("objective.evaluate_design")),
    ("http.requests", "count", False, _counted("http.requests")),
    ("http.requests.submit", "count", True, _counted("http.requests.submit")),
    ("http.requests.status", "count", False, _counted("http.requests.status")),
    ("http.requests.results", "count", True, _counted("http.requests.results")),
    ("http.dispatch.self_s", "s", False, _frame_s("http.dispatch")),
    ("client.request.s", "s", False, _frame_s("client.request")),
    ("client.polls_per_job", "count", False, _extra("client.polls_per_job")),
    ("client.retries", "count", False, _extra("client.retries")),
    ("jobs.submit.self_s", "s", False, _frame_s("jobs.submit")),
    ("jobs.claim.calls", "count", False, _frame_calls("jobs.claim")),
    ("jobs.claim.hit_ratio", "ratio", False, _ratio("jobs.claim.hits", "jobs.claim")),
    ("jobs.result_entries.self_s", "s", False, _frame_s("jobs.result_entries")),
    ("worker.queue_wait_s", "s", False, _extra("worker.queue_wait_s")),
    ("worker.execute_job.self_s", "s", False, _frame_s("worker.execute_job")),
    ("paper_gain_error", "ratio", True, _extra("paper_gain_error")),
)
EXACT = tuple(name for name, _, exact, _ in PER_LAYER if exact)


def parse_args(workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- environment ------------------------------------------------------------------


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    return done.stdout.strip()


def git_state():
    """(HEAD sha, dirty flag), or (None, None) outside a git checkout."""
    try:
        if Path(_git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        return _git("rev-parse", "HEAD"), dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    sha, dirty = git_state()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(),
        "seed": seed,
        "check_seed": CHECK_SEED,
    }


# -- hygiene ---------------------------------------------------------------------


def child_pids():
    pids = set()
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(pid) for pid in children.read_text().split())
        except OSError:
            pass
    return sorted(pids)


def leftovers(grace_s: float = 5.0):
    """Problems left behind: live threads besides main, child processes."""
    main = threading.main_thread()
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline and (
        len(threading.enumerate()) > 1 or child_pids()
    ):
        time.sleep(0.05)
    problems = []
    others = [t for t in threading.enumerate() if t is not main]
    if others:
        problems.append(
            "threads still alive: "
            + ", ".join(f"{t.name}{'' if t.daemon else ' (non-daemon)'}" for t in others)
        )
    pids = child_pids()
    if pids:
        problems.append(f"child processes still alive: {pids}")
    return problems


# -- measurement -----------------------------------------------------------------


def measure(workload, seconds: float, min_iterations: int, tracer=None):
    """Timed iterations until ``seconds`` pass (whole rounds, >= minimum)."""
    samples = []
    deadline = perf_counter() + seconds
    rounds = workload.round_size
    while (
        len(samples) < max(min_iterations, rounds)
        or perf_counter() < deadline
        or len(samples) % rounds
    ):
        workload.prepare()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        sample = workload.iterate()
        if tracer is not None:
            sample.window = tracer.snapshot()
        samples.append(sample)
    return samples


def reconcile(sample) -> list:
    """Per thread: (thread, wall, traced self time, residual).

    Long-lived threads span the whole timed section; an HTTP request
    thread lives exactly as long as its ``http.handler`` frame.
    """
    rows = []
    requests, request_s = 0, 0.0
    for view in sample.window.threads:
        if "http.handler" in view.self_s:
            requests += 1
            request_s += view.covered_s
        else:
            rows.append(
                (view.name, sample.wall_s, view.covered_s, sample.wall_s - view.covered_s)
            )
    if requests:
        rows.append((f"{requests} HTTP request threads", request_s, request_s, 0.0))
    return rows


def print_layers(traced, untraced_wall: float) -> None:
    """The per-layer table, its reconciliation and the tracing overhead."""
    walls = [s.wall_s for s in traced]
    rep = min(traced, key=lambda s: abs(s.wall_s - median(walls)))
    window = rep.window
    print(f"per-layer self time, traced iteration with the median wall ({rep.wall_s:.4f} s):")
    print(f"  {'frame':<28s} {'calls':>8s} {'self_s':>10s}")
    for name in sorted(window.self_s, key=lambda n: -window.self_s[n]):
        print(f"  {name:<28s} {window.n(name):>8d} {window.time(name):>10.4f}")
    print("reconciliation per thread (table rows + residual = wall):")
    for thread, wall, covered, residual in reconcile(rep):
        print(
            f"  {thread:<40s} wall {wall:.4f} s = traced {covered:.4f} s"
            f" + residual {residual:.4f} s"
        )
    traced_wall = median(walls)
    overhead = traced_wall - untraced_wall
    share = overhead / untraced_wall if untraced_wall else 0.0
    print(
        f"tracing overhead: traced wall {traced_wall:.4f} s - untraced wall "
        f"{untraced_wall:.4f} s = {overhead:.4f} s ({100 * share:+.1f}%)"
    )


def check_repeats(samples, rounds: int, exact=()) -> list:
    """Records (and exact layer values) must repeat round after round."""
    problems = []
    for i in range(rounds, len(samples)):
        first, again = samples[i % rounds], samples[i]
        if again.record != first.record:
            problems.append(f"iteration {i}: record differs from iteration {i % rounds}")
        for name in exact:
            if again.layers.get(name) != first.layers.get(name):
                problems.append(
                    f"iteration {i}: {name} {again.layers.get(name)} != "
                    f"{first.layers.get(name)}"
                )
    return problems


def run_record(samples, rounds: int) -> dict:
    """The run's exact-repeat record, built from the first round."""
    first = [s.record for s in samples[:rounds]]
    if rounds == 1:
        return dict(first[0])
    digest = hashlib.sha256("".join(r["digest"] for r in first).encode())
    return {
        "digest": digest.hexdigest(),
        "rows": sum(r["rows"] for r in first),
        "transmissions": sum(r["transmissions"] for r in first),
        "rounds": [
            {k: r[k] for k in ("study_seed", "digest", "outcome") if k in r}
            for r in first
        ],
        "paper_gain_error": samples[0].extra.get("paper_gain_error"),
    }


def time_setups(workload) -> list:
    """Set the workload up SETUP_REPEATS times; keep the last set-up."""
    durations = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        started = perf_counter()
        workload.setup()
        durations.append(perf_counter() - started)
    return durations


def measure_traced(workload, seconds: float):
    """Untraced iterations, then a traced set-up and traced iterations."""
    from layers import Tracer

    untraced = measure(workload, seconds / 2, MIN_TRACED_ITERATIONS)
    tracer = Tracer()
    tracer.install()
    try:
        workload.teardown()
        tracer.reset()
        workload.setup()
        expand_s = tracer.snapshot().time("stochastic.expand")
        traced = measure(workload, seconds / 2, MIN_TRACED_ITERATIONS, tracer)
    finally:
        tracer.uninstall()
    for sample in traced:
        sample.extra["stochastic.expand.self_s"] = expand_s
        sample.layers = {name: read(sample) for name, _, _, read in PER_LAYER}
    return untraced, traced


def end_to_end(samples, setups, import_s: float) -> dict:
    latencies = [x for s in samples for x in s.latencies]
    print(
        f"iterations {len(samples)}, jobs timed {len(latencies)}, "
        f"import {import_s:.4f} s, set-ups {[round(s, 4) for s in setups]}"
    )
    values = {
        "setup_s": import_s + median(setups),
        "wall_s": median(s.wall_s for s in samples),
        "scenarios_per_s": median(s.scenarios / s.wall_s for s in samples),
        "first_result_s": median(x for s in samples for x in s.first_results),
        "job_latency_p50_s": median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    import repro.obs as obs
    from workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START
    args = parse_args(sorted(WORKLOADS))
    metrics_at_start = obs.metrics_enabled()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work, ROOT)
    rounds = workload.round_size
    problems = []
    try:
        setups = time_setups(workload)
        if args.trace:
            untraced, traced = measure_traced(workload, args.seconds)
            samples = untraced + traced
            problems += check_repeats(untraced, rounds)
            problems += check_repeats(traced, rounds, EXACT)
            if traced[0].record != untraced[0].record:
                problems.append("traced record differs from untraced record")
        else:
            samples = measure(workload, args.seconds, MIN_ITERATIONS)
            problems += check_repeats(samples, rounds)
        checked, failures = workload.check()
        problems += failures
    finally:
        try:
            workload.close()
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    if obs.metrics_enabled() != metrics_at_start:
        problems.append("repro.obs metrics switch was not restored")
    problems += [f for s in samples for f in s.failures]
    problems += leftovers()

    record = run_record(samples, rounds)
    if args.trace:
        record.update({name: median(s.layers[name] for s in traced) for name in EXACT})
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        print_layers(traced, median(s.wall_s for s in untraced))
        metrics = {
            name: {"value": median(s.layers[name] for s in traced), "unit": unit}
            for name, unit, _, _ in PER_LAYER
        }
    else:
        metrics = end_to_end(samples, setups, import_s)
    for name, entry in metrics.items():
        print(f"  {name:<34s} {entry['value']:>14.6g} {entry['unit']}")

    attempted = sum(s.attempted for s in samples) + checked
    failed = len(problems)
    print(f"failed_fraction {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
