"""The durable job queue: simulation work as rows in the result store.

A job is a unit of client-submitted work -- a single scenario, a
scenario manifest (campaign) or a :class:`~repro.core.study.StudySpec`
-- journaled in the ``jobs`` table of the same SQLite file as the
:class:`~repro.store.ResultStore` it will run against.  Sharing the
file is the point: a job's *claim* state (queued/running/...) lives in
the queue, but its *progress* is always derived from the results table
itself, exactly like campaigns and studies.  A worker that dies holding
a job loses nothing but its claim -- the heartbeat-based
:meth:`JobQueue.requeue_orphans` hands the job to the next worker, and
the campaign/study resume machinery underneath re-simulates zero stored
rows.

Lifecycle::

    queued --claim--> running --finish--> done
       ^                 |    \\--fail--> failed
       |                 |     \\-------> cancelled
       +---requeue-------+        (DELETE /v1/jobs/{id}, or a drain)

Claiming is atomic: ``UPDATE ... WHERE status='queued'`` inside a
``BEGIN IMMEDIATE`` transaction, so two workers racing on the same
queue never run the same job.  Heartbeats are conditional the same way
(``WHERE worker=? AND status='running'``), so a worker whose claim was
requeued or cancelled finds out at its next chunk boundary and stops.

Everything validates at submission time: a malformed manifest or spec
raises the library's own :class:`~repro.errors.ConfigError` /
:class:`~repro.errors.DesignError` *before* a row is written, which is
what lets the HTTP layer turn bad payloads into clean 400s.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass
from functools import cached_property
from time import time as _wall_clock
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, DesignError, ReproError
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.obs.trace import event
from repro.store.db import ResultStore, _utc_now, canonical_json

#: Accepted job kinds, in routing order for payload sniffing.
JOB_KINDS = ("scenario", "campaign", "study")

#: Queue lifecycle telemetry; the matching ``job.*`` events carry ids.
_JOBS_SUBMITTED = _obs_metrics().counter(
    "repro_jobs_submitted_total", "Jobs accepted into the queue", ("kind",)
)
_JOBS_CLAIMED = _obs_metrics().counter(
    "repro_jobs_claimed_total", "Job claims handed to workers"
)
_JOBS_FINISHED = _obs_metrics().counter(
    "repro_jobs_finished_total",
    "Jobs reaching a terminal state",
    ("status",),
)
_JOBS_REQUEUED = _obs_metrics().counter(
    "repro_jobs_requeued_total",
    "Claims returned to the queue",
    ("reason",),
)

#: Every queue state a job row can be in.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Queue states a job can still leave (everything else is terminal).
ACTIVE_STATUSES = ("queued", "running")


class JobCancelled(ReproError):
    """Raised inside a running job when its claim was cancelled or lost.

    Workers raise this from the job-context hook (``on_chunk``) at a
    durable chunk boundary; everything already written through to the
    store stays, so a later resubmission resumes instead of redoing.
    """


def _new_job_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class Job:
    """One decoded job row.

    The payload column stays as stored JSON text until something
    actually reads :attr:`payload`: a status poll on a campaign job
    carries the whole manifest in that column, and decoding it on
    every ``GET /v1/jobs/{id}`` would make polling cost scale with
    manifest size instead of O(1).
    """

    id: str
    kind: str
    name: str
    payload_text: str
    status: str
    priority: int
    owner: str
    worker: Optional[str]
    attempts: int
    error: Optional[str]
    total: int
    submitted_at: str
    submitted_unix: float
    started_unix: Optional[float]
    finished_unix: Optional[float]
    heartbeat_unix: Optional[float]

    @cached_property
    def payload(self) -> dict:
        """The decoded payload (parsed once, on first access)."""
        return json.loads(self.payload_text)

    @property
    def terminal(self) -> bool:
        return self.status not in ACTIVE_STATUSES

    def to_payload(self, include_spec: bool = False) -> dict:
        """JSON-ready view of the row (the API's job document)."""
        doc = {
            "id": self.id,
            "kind": self.kind,
            "name": self.name,
            "status": self.status,
            "priority": self.priority,
            "owner": self.owner,
            "worker": self.worker,
            "attempts": self.attempts,
            "error": self.error,
            "total": self.total,
            "submitted_at": self.submitted_at,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "heartbeat_unix": self.heartbeat_unix,
        }
        if include_spec:
            doc["payload"] = self.payload
        return doc


def _detect_kind(payload: dict) -> str:
    """Infer what a bare (un-enveloped) submission payload describes.

    A manifest carries ``scenarios``, a study spec carries stage names
    (``design``/``surrogate``/``optimizers``/``space``), a scenario
    carries ``config``.  Anything else is a submission error.
    """
    if "scenarios" in payload:
        return "campaign"
    if any(k in payload for k in ("design", "surrogate", "optimizers", "space")):
        return "study"
    if "config" in payload:
        return "scenario"
    raise DesignError(
        "cannot infer the job kind from the payload (no 'scenarios', "
        "study stage names, or 'config'); submit "
        '{"kind": ..., "payload": ...} explicitly'
    )


def job_partition(payload: dict, total: int) -> Optional[Tuple[int, int]]:
    """Decode and validate a payload's ``partition`` request, if any.

    A campaign payload may carry ``{"partition": {"index": I, "of": N}}``
    (``I`` 1-based) to run only its I-th of N disjoint slices: the
    worker runs ``partition_scenarios(scenarios, N)[I - 1]`` as campaign
    ``NAME@pIofN`` (:func:`~repro.store.partition_scenarios`,
    :func:`~repro.store.partition_name`), the same two calls as
    ``campaign run --partition I --partitions N``, so N workers with
    local shards can split one manifest and the shards merge
    afterwards.  Returns ``(index, of)`` or ``None``.
    """
    part = payload.get("partition")
    if part is None:
        return None
    if not isinstance(part, dict) or set(part) != {"index", "of"}:
        raise DesignError(
            'a job partition must be {"index": I, "of": N} (I is 1-based)'
        )
    index, of = part["index"], part["of"]
    for label, value in (("index", index), ("of", of)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DesignError(f"partition {label!r} must be an integer")
    if not 1 <= of <= total:
        raise DesignError(
            f"cannot split {total} scenario(s) into {of} partition(s)"
        )
    if not 1 <= index <= of:
        raise DesignError(
            f"partition index must be in 1..{of}, got {index}"
        )
    return index, of


def _decode_job(
    kind: Optional[str], payload: dict
) -> Tuple[str, object, Optional[str], Optional[Tuple[int, int]]]:
    """``(kind, work, default name, partition)`` of a submission.

    The one decoder of :func:`validate_job` and the worker.  ``work`` is
    a study's spec or the scenarios to journal: for a partition job,
    its slice of the seeded full list
    (:func:`~repro.store.partition_scenarios`).
    """
    from repro.backends import get_backend
    from repro.core.study import StudySpec
    from repro.scenario import Scenario
    from repro.store.campaign import partition_scenarios
    from repro.system.stochastic import manifest_name, manifest_scenarios

    if kind is not None and kind not in JOB_KINDS:
        raise ConfigError(
            f"unknown job kind {kind!r} (known: {', '.join(JOB_KINDS)})"
        )
    if not isinstance(payload, dict):
        raise DesignError(
            f"job payload must be a JSON object, got {type(payload).__name__}"
        )
    if kind is None:
        kind = _detect_kind(payload)
    if kind != "campaign" and payload.get("partition") is not None:
        raise DesignError(
            f"only campaign jobs can be partitioned, not {kind} jobs"
        )
    if kind == "study":
        work = StudySpec.from_dict(payload)
        backends, name = {work.backend}, work.name
    elif kind == "campaign":
        work = manifest_scenarios(payload)
        backends, name = {s.backend for s in work}, manifest_name(payload)
    else:
        work = [Scenario.from_dict(payload)]
        backends, name = {work[0].backend}, work[0].name
    for backend in backends:
        get_backend(backend)
    part = job_partition(payload, len(work)) if kind == "campaign" else None
    if part is not None:
        index, of = part
        work = partition_scenarios(work, of)[index - 1]
    return kind, work, name, part


def validate_job(
    kind: Optional[str], payload: dict, name: Optional[str] = None
) -> Tuple[str, str, int]:
    """Parse-validate a submission; return ``(kind, job name, total)``.

    Runs the worker's own decoder (backend resolution included), so
    everything that would fail a job at execution time fails the
    *submission* instead -- with the library's own errors.
    """
    from repro.store.campaign import partition_name

    kind, work, default_name, part = _decode_job(kind, payload)
    job_name = str(name or default_name or "")
    if part is not None and job_name:
        # The journal name always carries the slice, so N partition
        # jobs of one manifest never collide on it.
        job_name = partition_name(job_name, *part)
    # A study runs n_runs design points + the original-design check;
    # its journal holds the authoritative total once the design is set.
    return kind, job_name, work.n_runs + 1 if kind == "study" else len(work)


class JobQueue:
    """The durable queue living inside a result store's database.

    All methods are safe to call from any thread or process pointed at
    the same store file; writes serialise through the store's own
    ``BEGIN IMMEDIATE`` transaction helper, exactly like its rows.
    """

    def __init__(self, store: ResultStore):
        self.store = store

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        payload: dict,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        priority: int = 0,
        owner: str = "",
    ) -> Job:
        """Validate and enqueue one job; returns the queued row.

        ``kind`` may be omitted -- manifests, study specs and scenarios
        are structurally distinguishable.  ``name`` overrides the
        journal name the job will run under (default: derived from the
        payload, or ``job-<id>``).
        """
        kind, job_name, total = validate_job(kind, payload, name=name)
        job_id = _new_job_id()
        if not job_name:
            job_name = f"job-{job_id}"
        now = _utc_now()
        with self.store._transaction() as conn:
            conn.execute(
                "INSERT INTO jobs(id, kind, name, payload, status, priority, "
                "owner, attempts, total, submitted_at, submitted_unix) "
                "VALUES (?, ?, ?, ?, 'queued', ?, ?, 0, ?, ?, ?)",
                (
                    job_id,
                    kind,
                    job_name,
                    canonical_json(payload),
                    int(priority),
                    str(owner),
                    int(total),
                    now.isoformat(),
                    now.timestamp(),
                ),
            )
        if _OBS.metrics_on:
            _JOBS_SUBMITTED.inc(kind=kind)
        event("job.submit", job=job_id, kind=kind, name=job_name)
        return self.get(job_id)

    # -- reading -----------------------------------------------------------------

    _COLUMNS = (
        "id, kind, name, payload, status, priority, owner, worker, "
        "attempts, error, total, submitted_at, submitted_unix, "
        "started_unix, finished_unix, heartbeat_unix"
    )

    @staticmethod
    def _row_job(row) -> Job:
        return Job(
            id=row[0],
            kind=row[1],
            name=row[2],
            payload_text=row[3],
            status=row[4],
            priority=int(row[5]),
            owner=row[6],
            worker=row[7],
            attempts=int(row[8]),
            error=row[9],
            total=int(row[10]),
            submitted_at=row[11],
            submitted_unix=float(row[12]),
            started_unix=row[13],
            finished_unix=row[14],
            heartbeat_unix=row[15],
        )

    def get(self, job_id: str) -> Job:
        """The decoded job row, or :class:`ConfigError` if unknown."""
        row = self.store._conn().execute(
            f"SELECT {self._COLUMNS} FROM jobs WHERE id=?", (job_id,)
        ).fetchone()
        if row is None:
            raise ConfigError(f"unknown job {job_id!r} in {self.store.path}")
        return self._row_job(row)

    @staticmethod
    def _job_filters(
        status: Optional[str], kind: Optional[str]
    ) -> Tuple[str, List[object]]:
        """Validated ``WHERE`` clause + params for job listings."""
        if status is not None and status not in JOB_STATUSES:
            raise ConfigError(
                f"unknown job status {status!r} "
                f"(known: {', '.join(JOB_STATUSES)})"
            )
        if kind is not None and kind not in JOB_KINDS:
            raise ConfigError(
                f"unknown job kind {kind!r} (known: {', '.join(JOB_KINDS)})"
            )
        clauses: List[str] = []
        params: List[object] = []
        if status is not None:
            clauses.append("status=?")
            params.append(status)
        if kind is not None:
            clauses.append("kind=?")
            params.append(kind)
        return (" WHERE " + " AND ".join(clauses)) if clauses else "", params

    def jobs(
        self,
        status: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Job]:
        """Job rows, newest submission first, filtered and paginated.

        ``status``/``kind`` filter (AND-combined), ``limit``/``offset``
        page through the filtered listing -- what a coordinator polling
        a busy queue needs instead of the whole table.
        """
        if offset < 0:
            raise ConfigError("job listing offset must be >= 0")
        where, params = self._job_filters(status, kind)
        sql = f"SELECT {self._COLUMNS} FROM jobs{where}"
        sql += " ORDER BY submitted_unix DESC, id"
        if limit is not None or offset:
            # SQLite's OFFSET requires a LIMIT; -1 means "unbounded".
            sql += " LIMIT ? OFFSET ?"
            params.extend([-1 if limit is None else int(limit), int(offset)])
        return [
            self._row_job(row)
            for row in self.store._conn().execute(sql, params)
        ]

    def count(
        self, status: Optional[str] = None, kind: Optional[str] = None
    ) -> int:
        """How many jobs match the given filters (ignoring pagination)."""
        where, params = self._job_filters(status, kind)
        return int(
            self.store._conn().execute(
                f"SELECT COUNT(*) FROM jobs{where}", params
            ).fetchone()[0]
        )

    def counts(self) -> Dict[str, int]:
        """Jobs by status (every status present, zero included)."""
        out = {status: 0 for status in JOB_STATUSES}
        for status, count in self.store._conn().execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ):
            out[status] = int(count)
        return out

    def depth(self) -> int:
        """How many jobs are waiting to be claimed."""
        return self.counts()["queued"]

    # -- claiming ----------------------------------------------------------------

    def claim(self, worker: str) -> Optional[Job]:
        """Atomically move the best queued job to running for ``worker``.

        Highest priority first, then oldest submission.  Returns the
        claimed job, or ``None`` when the queue is empty.  ``BEGIN
        IMMEDIATE`` serialises racing claimers, and the conditional
        ``status='queued'`` guard means at most one of them flips any
        given row.
        """
        if not worker:
            raise ConfigError("worker id must be non-empty")
        now = _wall_clock()
        with self.store._transaction() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE status='queued' "
                "ORDER BY priority DESC, submitted_unix, id LIMIT 1"
            ).fetchone()
            claimed = None
            if row is not None:
                cursor = conn.execute(
                    "UPDATE jobs SET status='running', worker=?, "
                    "attempts=attempts+1, started_unix=?, heartbeat_unix=?, "
                    "error=NULL WHERE id=? AND status='queued'",
                    (worker, now, now, row[0]),
                )
                if cursor.rowcount == 1:
                    claimed = row[0]
        if claimed is None:
            return None
        if _OBS.metrics_on:
            _JOBS_CLAIMED.inc()
        event("job.claim", job=claimed, worker=worker)
        return self.get(claimed)

    def heartbeat(self, job_id: str, worker: str) -> None:
        """Refresh a running claim; raise :class:`JobCancelled` if lost.

        The update is conditional on still *being* the claim holder, so
        a cancelled job (or one requeued from under a stalled worker)
        surfaces here, at the next durable chunk boundary.
        """
        cursor = self._execute_write(
            "UPDATE jobs SET heartbeat_unix=? "
            "WHERE id=? AND worker=? AND status='running'",
            (_wall_clock(), job_id, worker),
        )
        if cursor == 0:
            status = self.get(job_id).status
            raise JobCancelled(
                f"job {job_id} is no longer running as {worker!r} "
                f"(status is now {status!r})"
            )

    # -- completion --------------------------------------------------------------

    def finish(self, job_id: str, worker: str) -> None:
        """Mark a running claim done."""
        self._finish_as(job_id, worker, "done", None)

    def fail(self, job_id: str, worker: str, error: str) -> None:
        """Mark a running claim failed, recording the error detail."""
        self._finish_as(job_id, worker, "failed", str(error))

    def _finish_as(
        self, job_id: str, worker: str, status: str, error: Optional[str]
    ) -> None:
        changed = self._execute_write(
            "UPDATE jobs SET status=?, error=?, finished_unix=? "
            "WHERE id=? AND worker=? AND status='running'",
            (status, error, _wall_clock(), job_id, worker),
        )
        if changed == 0:
            # The claim was cancelled or requeued mid-run; leave the
            # authoritative row alone (its owner already moved on).
            self.get(job_id)  # still raises for a genuinely unknown id
            return
        if _OBS.metrics_on:
            _JOBS_FINISHED.inc(status=status)
        if status == "failed":
            event("job.fail", job=job_id, worker=worker, error=error)
        else:
            event("job.finish", job=job_id, worker=worker)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job.

        A queued job is terminally cancelled right here.  A running
        job's row flips to ``cancelled`` immediately and its worker
        finds out at the next chunk boundary (its conditional heartbeat
        stops matching); no stored result is lost either way.  A job
        already in a terminal state raises :class:`ConfigError` -- the
        HTTP layer turns that into a 409.
        """
        job = self.get(job_id)
        if job.terminal:
            raise ConfigError(
                f"job {job_id} is already {job.status} and cannot be cancelled"
            )
        changed = self._execute_write(
            "UPDATE jobs SET status='cancelled', finished_unix=? "
            "WHERE id=? AND status IN ('queued', 'running')",
            (_wall_clock(), job_id),
        )
        if changed:
            if _OBS.metrics_on:
                _JOBS_FINISHED.inc(status="cancelled")
            event("job.cancel", job=job_id)
        return self.get(job_id)

    def requeue(self, job_id: str, worker: str) -> None:
        """Return a running claim to the queue (graceful drain path)."""
        changed = self._execute_write(
            "UPDATE jobs SET status='queued', worker=NULL, started_unix=NULL, "
            "heartbeat_unix=NULL WHERE id=? AND worker=? AND status='running'",
            (job_id, worker),
        )
        if changed:
            if _OBS.metrics_on:
                _JOBS_REQUEUED.inc(reason="drain")
            event("job.requeue", job=job_id, worker=worker, reason="drain")

    def requeue_orphans(self, timeout_s: float) -> int:
        """Requeue running jobs whose heartbeat went silent.

        A worker SIGKILLed mid-job never updates its heartbeat again;
        once it is ``timeout_s`` stale the claim is released and the
        next claimer resumes the job -- the store still holds every
        chunk the dead worker finished, so nothing is re-simulated.
        Returns how many jobs were requeued.
        """
        if timeout_s <= 0.0:
            raise ConfigError("heartbeat timeout must be positive")
        requeued = self._execute_write(
            "UPDATE jobs SET status='queued', worker=NULL, started_unix=NULL, "
            "heartbeat_unix=NULL WHERE status='running' AND heartbeat_unix < ?",
            (_wall_clock() - float(timeout_s),),
        )
        if requeued:
            if _OBS.metrics_on:
                _JOBS_REQUEUED.inc(requeued, reason="orphan")
            event("job.requeue", n=requeued, reason="orphan")
        return requeued

    def _execute_write(self, sql: str, params) -> int:
        with self.store._transaction() as conn:
            cursor = conn.execute(sql, params)
        return cursor.rowcount

    # -- progress and results ----------------------------------------------------

    def progress(self, job: Job) -> Tuple[int, int]:
        """(done, total) simulation counts straight from the store.

        For campaign/scenario jobs: stored rows among the journaled
        campaign's keys.  For studies: the study journal's key list.
        Before the worker journals anything, the submission-time total
        estimate stands with zero done -- the counts never go backwards
        because the results table only grows.
        """
        if job.kind == "study":
            row = self.store.get_study(job.name)
            if row is not None:
                return row.done(self.store), row.total
            return 0, job.total
        keys = self.store.campaign_keys(job.name)
        if keys:
            return self.store.count_keys(keys), len(keys)
        return 0, job.total

    def result_entries(
        self, job: Job, offset: int = 0, limit: int = 100, raw: bool = False
    ) -> Tuple[int, List[dict]]:
        """One page of the job's canonical result payloads.

        Returns ``(total entry count, entries)``; each entry carries the
        journal index, scenario name (design-point index for studies),
        content key, and the *parsed* canonical payload (``None`` while
        pending).  Serialising an entry back with
        :func:`~repro.store.db.canonical_json` reproduces the stored
        row's exact bytes -- the byte-identity contract the tests pin.

        ``raw=True`` swaps the payload for the full
        :data:`~repro.store.db.RESULT_COLUMNS` row (``"row"``, a list;
        again ``None`` while pending): the exact canonical bytes *and*
        provenance columns, so a remote coordinator can feed pages
        straight into :meth:`~repro.store.db.ResultStore.put_raw` and
        an HTTP-fetched merge is byte-identical to a file-level one.
        """
        if offset < 0 or limit < 1:
            raise ConfigError("results page needs offset >= 0 and limit >= 1")
        if job.kind == "study":
            row = self.store.get_study(job.name)
            keys = [] if row is None else row.keys
            total = len(keys)
            stop = min(offset + limit, total)
            page = [(f"point-{i}", keys[i]) for i in range(offset, stop)]
        else:
            # Only this page's journal rows are read; the header counts
            # them all (both commit in one transaction).
            journal = self.store.get_campaign(job.name)
            total, rows = 0, []
            if journal is not None:
                total = journal.total
                rows = self.store.campaign_scenario_names(
                    job.name, offset, offset + limit
                )
            page = [(name, key) for key, name in rows]
        entries = []
        for index, (name, key) in enumerate(page, start=offset):
            entry = {"index": index, "name": name, "key": key}
            if raw:
                stored = self.store.get_raw(key)
                entry["row"] = None if stored is None else list(stored)
            else:
                text = self.store.get_payload_text(key)
                entry["result"] = None if text is None else json.loads(text)
            entries.append(entry)
        return total, entries
