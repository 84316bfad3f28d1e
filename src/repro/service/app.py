"""The simulation service's JSON API.

:class:`ServiceApp` maps HTTP requests onto one
:class:`~repro.service.jobs.JobQueue` (and, for wake-ups and liveness
reporting, the :class:`~repro.service.worker.WorkerPool` draining it):

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
POST   ``/v1/jobs``                 submit a scenario / manifest / study spec
GET    ``/v1/jobs``                 list jobs (``status/kind/limit/offset``)
GET    ``/v1/jobs/{id}``            claim state + progress from the store
GET    ``/v1/jobs/{id}/results``    canonical payload page (``offset/limit``;
                                    ``raw=1`` serves full store rows)
DELETE ``/v1/jobs/{id}``            cancel (409 once terminal)
GET    ``/v1/healthz``              cheap liveness probe (never auth-gated)
GET    ``/v1/metrics``              queue depths, workers, store, requests
====== ============================ ==========================================

Error contract: anything wrong with a *submission* -- invalid JSON, an
oversized body, a malformed manifest or spec, an unknown backend --
surfaces as HTTP 400 carrying the library's own
:class:`~repro.errors.ConfigError`/:class:`~repro.errors.DesignError`
message, never as a 500; unknown jobs are 404s; cancelling a finished
job is a 409; rate-limited requests are 429s with ``Retry-After``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import repro
import repro.obs as obs
from repro.errors import ReproError
from repro.obs.metrics import metrics as _obs_metrics, render_prometheus
from repro.obs.state import STATE as _OBS
from repro.obs.trace import span
from repro.service.http import (
    RateLimiter,
    Request,
    Response,
    TokenAuth,
    error_response,
)
from repro.service.jobs import JobQueue
from repro.store.db import ResultStore

#: Result-page size cap: keeps one response bounded however large the job.
MAX_PAGE_LIMIT = 500

#: How long a cached ``store.stats()`` snapshot serves /v1/metrics
#: before the next scrape recomputes it (a full-store scan otherwise).
DEFAULT_STATS_TTL_S = 5.0

#: Content type the Prometheus text exposition format specifies.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request telemetry (the registry mirror of the JSON request counters)
#: and the scrape-time gauges for queue depth, workers and store size.
_HTTP_REQUESTS = _obs_metrics().counter(
    "repro_http_requests_total",
    "HTTP requests served, by method and response status",
    ("method", "status"),
)
_HTTP_SECONDS = _obs_metrics().histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency",
    ("method",),
)
_QUEUE_JOBS = _obs_metrics().gauge(
    "repro_queue_jobs", "Jobs in the queue, by status", ("status",)
)
_WORKERS_ALIVE = _obs_metrics().gauge(
    "repro_workers_alive", "Worker threads alive in the attached pool"
)
_STORE_RESULTS = _obs_metrics().gauge(
    "repro_store_results", "Result rows in the store (cached scan)"
)


class _HTTPError(Exception):
    """Internal routing signal: becomes an error response, not a 500."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceApp:
    """Routes + middleware over one store's job queue.

    Parameters
    ----------
    store:
        The shared result store (jobs, journals, results).
    pool:
        Optional :class:`~repro.service.worker.WorkerPool` draining the
        queue: every committed submission calls its
        :meth:`~repro.service.worker.WorkerPool.notify`, so an idle
        worker claims the job at once instead of at its next poll, and
        ``/v1/healthz`` and ``/v1/metrics`` report its liveness (the
        API works fine with external ``--once`` cron workers instead).
    tokens:
        Bearer tokens; empty means an open (unauthenticated) service.
    rate, burst:
        Token-bucket rate limit per caller (``rate <= 0`` disables).
    stats_ttl:
        Seconds a cached ``store.stats()`` snapshot keeps serving
        ``/v1/metrics`` before a scrape recomputes it (``0`` scans
        every scrape); the response reports the staleness as
        ``store.stats_age_s``.
    telemetry:
        Switch the process-wide metrics registry on (the default: a
        service without counters has nothing to export).  Pass
        ``False`` to leave the global telemetry state alone.
    """

    def __init__(
        self,
        store: ResultStore,
        pool=None,
        tokens: Tuple[str, ...] = (),
        rate: float = 0.0,
        burst: Optional[int] = None,
        verbose: bool = False,
        stats_ttl: float = DEFAULT_STATS_TTL_S,
        telemetry: bool = True,
    ):
        self.store = store
        self.queue = JobQueue(store)
        self.pool = pool
        self.auth = TokenAuth(tuple(tokens))
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.middleware = (self.auth, self.limiter)
        self.verbose = verbose
        self.stats_ttl = float(stats_ttl)
        if telemetry:
            obs.configure(metrics=True)
        self._lock = threading.Lock()
        self._requests_total = 0
        self._requests_by_status: Dict[str, int] = {}
        self._stats_cache: Optional[tuple] = None

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Middleware chain -> route -> error mapping.  Never raises."""
        if request.method == "HEAD":
            # HEAD is GET without the body; the HTTP handler suppresses
            # the bytes, so routing can treat the two identically.
            from dataclasses import replace

            request = replace(request, method="GET")
        started = time.perf_counter()
        with span(
            "http.request", method=request.method, path=request.path
        ) as request_span:
            try:
                response = self._dispatch_inner(request)
            except _HTTPError as exc:
                response = error_response(exc.status, str(exc))
            except ReproError as exc:
                # The library's own validation errors are the client's
                # fault by definition: 400 with the real message.
                response = error_response(400, str(exc))
            except Exception as exc:  # noqa: BLE001 -- last-resort boundary
                response = error_response(
                    500, f"internal error: {type(exc).__name__}: {exc}"
                )
            request_span.annotate(status=response.status)
        with self._lock:
            self._requests_total += 1
            key = str(response.status)
            self._requests_by_status[key] = (
                self._requests_by_status.get(key, 0) + 1
            )
        if _OBS.metrics_on:
            _HTTP_REQUESTS.inc(
                method=request.method, status=str(response.status)
            )
            _HTTP_SECONDS.observe(
                time.perf_counter() - started, method=request.method
            )
        return response

    def _dispatch_inner(self, request: Request) -> Response:
        if request.method == "GET" and request.path == "/v1/healthz":
            return self._healthz()  # probes bypass auth and rate limits
        for middleware in self.middleware:
            refused = middleware(request)
            if refused is not None:
                return refused
        parts = [p for p in request.path.split("/") if p]
        if len(parts) < 2 or parts[0] != "v1":
            raise _HTTPError(404, f"no such path {request.path!r}")
        if parts[1] == "metrics" and len(parts) == 2:
            self._require(request, "GET")
            return self._metrics(request)
        if parts[1] == "jobs":
            if len(parts) == 2:
                if request.method == "POST":
                    return self._submit(request)
                self._require(request, "GET")
                return self._list_jobs(request)
            if len(parts) == 3:
                if request.method == "DELETE":
                    return self._cancel(parts[2])
                self._require(request, "GET")
                return self._job_status(parts[2])
            if len(parts) == 4 and parts[3] == "results":
                self._require(request, "GET")
                return self._job_results(request, parts[2])
        raise _HTTPError(404, f"no such path {request.path!r}")

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise _HTTPError(
                405, f"{request.method} is not supported on {request.path}"
            )

    # -- handlers ----------------------------------------------------------------

    def _submit(self, request: Request) -> Response:
        try:
            body = request.json()
        except ValueError as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        # Enveloped ({"kind", "payload", ...}) or bare (the payload
        # itself -- manifests, specs and scenarios are sniffable).
        if "payload" in body:
            payload = body["payload"]
            kind = body.get("kind")
            name = body.get("name")
            priority = body.get("priority", 0)
            # Envelope sugar for partitioned campaigns: {"partitions":
            # N, "partition": I} folds into an object payload's
            # partition object.  The kind, the payload and the
            # partition are all validated in validate_job.
            partitions = body.get("partitions")
            part_index = body.get("partition")
            if partitions is not None or part_index is not None:
                if partitions is None or part_index is None:
                    raise _HTTPError(
                        400,
                        "partitioned submissions need both 'partitions' "
                        "(N) and 'partition' (1-based index)",
                    )
                if isinstance(payload, dict):
                    payload = dict(
                        payload,
                        partition={"index": part_index, "of": partitions},
                    )
        else:
            payload, kind, name, priority = body, body.pop("kind", None), None, 0
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise _HTTPError(400, "job priority must be an integer")
        if name is not None and not isinstance(name, str):
            raise _HTTPError(400, "job name must be a string")
        job = self.queue.submit(
            payload,
            kind=kind,
            name=name,
            priority=priority,
            owner=request.token() or request.client,
        )
        if self.pool is not None:
            self.pool.notify()
        doc = job.to_payload()
        doc["url"] = f"/v1/jobs/{job.id}"
        return Response(201, doc, headers={"Location": doc["url"]})

    def _list_jobs(self, request: Request) -> Response:
        status = request.query.get("status")
        kind = request.query.get("kind")
        limit = self._int_param(request, "limit", default=100, minimum=1)
        offset = self._int_param(request, "offset", default=0, minimum=0)
        jobs = self.queue.jobs(
            status=status, kind=kind, limit=limit, offset=offset
        )
        return Response(
            200,
            {
                "count": len(jobs),
                "total": self.queue.count(status=status, kind=kind),
                "offset": offset,
                "jobs": [job.to_payload() for job in jobs],
            },
        )

    def _job_status(self, job_id: str) -> Response:
        job = self._get_job(job_id)
        done, total = self.queue.progress(job)
        doc = job.to_payload()
        doc.update(done=done, total=total)
        return Response(200, doc)

    def _job_results(self, request: Request, job_id: str) -> Response:
        job = self._get_job(job_id)
        offset = self._int_param(request, "offset", default=0, minimum=0)
        limit = self._int_param(request, "limit", default=100, minimum=1)
        limit = min(limit, MAX_PAGE_LIMIT)
        raw = request.query.get("raw", "") not in ("", "0", "false")
        count, entries = self.queue.result_entries(
            job, offset=offset, limit=limit, raw=raw
        )
        return Response(
            200,
            {
                "job": job.id,
                "status": job.status,
                "count": count,
                "offset": offset,
                "limit": limit,
                "raw": raw,
                "results": entries,
            },
            canonical=True,  # embedded payloads keep their stored bytes
        )

    def _cancel(self, job_id: str) -> Response:
        job = self._get_job(job_id)
        if job.terminal:
            raise _HTTPError(
                409, f"job {job.id} is already {job.status}"
            )
        return Response(200, self.queue.cancel(job.id).to_payload())

    def _healthz(self) -> Response:
        doc = {
            "status": "ok",
            "version": repro.__version__,
            "store": str(self.store.path),
        }
        if self.pool is not None:
            states = self.pool.worker_states()
            doc["workers"] = {
                "configured": len(states),
                "alive": sum(1 for s in states if s["alive"]),
            }
        return Response(200, doc)

    def _store_snapshot(self) -> tuple:
        """``(stats, n_studies, refreshed_monotonic)``, TTL-cached.

        ``store.stats()`` walks the whole results table; serving scrapes
        from a bounded-staleness cache keeps tight scrape intervals from
        turning into repeated full-store scans.
        """
        now = time.monotonic()
        with self._lock:
            cached = self._stats_cache
        if cached is not None and now - cached[2] < self.stats_ttl:
            return cached
        entry = (
            self.store.stats(),
            len(self.store.study_names()),
            time.monotonic(),
        )
        with self._lock:
            self._stats_cache = entry
        return entry

    def _metrics(self, request: Request) -> Response:
        stats, n_studies, refreshed = self._store_snapshot()
        counts = self.queue.counts()
        states = None if self.pool is None else self.pool.worker_states()
        if _OBS.metrics_on:
            # Scrape-time gauges: the Prometheus view of queue depth,
            # worker liveness and store size comes from the registry.
            for status, count in counts.items():
                _QUEUE_JOBS.set(count, status=status)
            if states is not None:
                _WORKERS_ALIVE.set(sum(1 for s in states if s["alive"]))
            _STORE_RESULTS.set(stats.n_results)
        if self._wants_prometheus(request):
            return Response(
                200,
                render_prometheus(_obs_metrics().snapshot()),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        with self._lock:
            requests = {
                "total": self._requests_total,
                "by_status": dict(self._requests_by_status),
                "rate_limited": self.limiter.rejected,
            }
        doc = {
            "jobs": counts,
            "store": {
                "results": stats.n_results,
                "campaigns": stats.n_campaigns,
                "studies": n_studies,
                "payload_bytes": stats.payload_bytes,
                "file_bytes": stats.file_bytes,
                "wall_time_banked_s": stats.total_wall_time_s,
                "stats_age_s": round(time.monotonic() - refreshed, 3),
            },
            "requests": requests,
            "workers": states,
        }
        return Response(200, doc)

    @staticmethod
    def _wants_prometheus(request: Request) -> bool:
        """Content negotiation: ``?format=prometheus`` or text/plain."""
        explicit = request.query.get("format")
        if explicit is not None:
            if explicit not in ("json", "prometheus"):
                raise _HTTPError(
                    400,
                    f"unknown metrics format {explicit!r} "
                    f"(known: json, prometheus)",
                )
            return explicit == "prometheus"
        accept = request.headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept

    # -- helpers -----------------------------------------------------------------

    def _get_job(self, job_id: str):
        from repro.errors import ConfigError

        try:
            return self.queue.get(job_id)
        except ConfigError as exc:
            raise _HTTPError(404, str(exc)) from exc

    @staticmethod
    def _int_param(
        request: Request, name: str, default: int, minimum: int
    ) -> int:
        raw = request.query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise _HTTPError(400, f"query parameter {name!r} must be an integer")
        if value < minimum:
            raise _HTTPError(400, f"query parameter {name!r} must be >= {minimum}")
        return value
