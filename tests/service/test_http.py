"""The HTTP surface: full job loop, byte-identity, and the error contract.

These tests speak real HTTP (``urllib`` against a ``ThreadingHTTPServer``
bound to port 0), because the contract under test is wire-level: the
``/results`` page must reproduce the store's canonical bytes exactly,
bad submissions must come back as 400s carrying the library's own
error messages, rate-limited callers must see 429 + ``Retry-After``.
"""

import json
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.service import JobQueue, ServiceApp, ServiceServer, WorkerPool
from repro.service.http import MAX_BODY_BYTES
from repro.store import Campaign, ResultStore
from repro.store.db import canonical_json
from repro.system.stochastic import manifest_scenarios, named_family


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "http.db")


@pytest.fixture
def served(store):
    """A running server over a plain (open, unlimited) app."""
    server = ServiceServer(ServiceApp(store)).start()
    yield server
    server.shutdown()


def _manifest(n=2, seed=3, horizon=120.0, backend="envelope"):
    family = replace(
        named_family("factory-floor"), horizon=horizon, backend=backend
    )
    return family.manifest(n=n, seed=seed)


def _call(base, method, path, body=None, token=None, raw_body=None):
    """One HTTP exchange; returns (status, headers, body bytes)."""
    data = raw_body
    if body is not None:
        data = json.dumps(body).encode()
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _json(raw):
    return json.loads(raw.decode())


# -- the full loop -------------------------------------------------------------


@pytest.mark.parametrize("backend", ["envelope", "vectorized"])
def test_submit_poll_fetch_matches_direct_run_bytes(
    tmp_path, store, served, backend
):
    """The acceptance property: results fetched over HTTP are
    byte-identical to a direct ``Campaign.run()`` on the same inputs --
    for the scalar and the vectorized backend alike."""
    manifest = _manifest(n=2, seed=5, backend=backend)
    base = served.url

    status, headers, raw = _call(base, "POST", "/v1/jobs", body=manifest)
    assert status == 201
    job = _json(raw)
    assert headers["Location"] == f"/v1/jobs/{job['id']}"
    assert job["kind"] == "campaign" and job["status"] == "queued"
    assert job["total"] == 2

    assert WorkerPool(store, workers=1, poll_interval=0.05).run_once() == 1

    status, _, raw = _call(base, "GET", f"/v1/jobs/{job['id']}")
    polled = _json(raw)
    assert status == 200 and polled["status"] == "done"
    assert (polled["done"], polled["total"]) == (2, 2)

    status, _, raw = _call(base, "GET", f"/v1/jobs/{job['id']}/results")
    page = _json(raw)
    assert status == 200 and page["count"] == 2 and len(page["results"]) == 2

    # Direct run of the same manifest against a fresh store.
    direct_store = ResultStore(tmp_path / f"direct-{backend}.db")
    scenarios = manifest_scenarios(manifest)
    Campaign.create(direct_store, "direct", scenarios).run(jobs=1)
    direct = {
        s.cache_key(): direct_store.get_payload_text(s.cache_key())
        for s in scenarios
    }
    via_http = {
        entry["key"]: canonical_json(entry["result"])
        for entry in page["results"]
    }
    assert via_http == direct  # byte-identical canonical payloads


def test_enveloped_submission_and_listing(store, served):
    base = served.url
    body = {
        "kind": "campaign",
        "payload": _manifest(n=2, seed=3),
        "name": "named-via-api",
        "priority": 4,
    }
    status, _, raw = _call(base, "POST", "/v1/jobs", body=body)
    assert status == 201
    job = _json(raw)
    assert job["name"] == "named-via-api" and job["priority"] == 4

    status, _, raw = _call(base, "GET", "/v1/jobs?status=queued&limit=10")
    listing = _json(raw)
    assert status == 200 and listing["count"] == 1
    assert listing["jobs"][0]["id"] == job["id"]


def test_results_pagination_and_param_validation(store, served):
    base = served.url
    _, _, raw = _call(base, "POST", "/v1/jobs", body=_manifest(n=3, seed=2))
    job_id = _json(raw)["id"]
    WorkerPool(store, workers=1, poll_interval=0.05).run_once()

    status, _, raw = _call(
        base, "GET", f"/v1/jobs/{job_id}/results?offset=2&limit=1"
    )
    page = _json(raw)
    assert status == 200
    assert page["count"] == 3
    assert [e["index"] for e in page["results"]] == [2]

    status, _, raw = _call(
        base, "GET", f"/v1/jobs/{job_id}/results?limit=999999"
    )
    assert status == 200 and _json(raw)["limit"] == 500  # capped

    status, _, raw = _call(base, "GET", f"/v1/jobs/{job_id}/results?offset=x")
    assert status == 400 and "offset" in _json(raw)["error"]


def test_cancel_flow(store, served):
    base = served.url
    _, _, raw = _call(base, "POST", "/v1/jobs", body=_manifest())
    job_id = _json(raw)["id"]
    status, _, raw = _call(base, "DELETE", f"/v1/jobs/{job_id}")
    assert status == 200 and _json(raw)["status"] == "cancelled"
    status, _, raw = _call(base, "DELETE", f"/v1/jobs/{job_id}")
    assert status == 409  # already terminal
    assert JobQueue(store).get(job_id).status == "cancelled"


# -- the error contract --------------------------------------------------------


def test_malformed_submissions_are_400s_with_library_messages(served):
    base = served.url
    # Garbage bytes.
    status, _, raw = _call(
        base, "POST", "/v1/jobs", raw_body=b"{not json"
    )
    assert status == 400 and "not valid JSON" in _json(raw)["error"]
    # Not an object.
    status, _, raw = _call(base, "POST", "/v1/jobs", body=[1, 2, 3])
    assert status == 400
    # Structurally unsniffable payload: the DesignError text comes through.
    status, _, raw = _call(base, "POST", "/v1/jobs", body={"family": "x"})
    assert status == 400 and "cannot infer the job kind" in _json(raw)["error"]
    # A broken manifest: the underlying DesignError text (not a 500)
    # reaches the client.
    status, _, raw = _call(
        base, "POST", "/v1/jobs", body={"schema": 99, "scenarios": []}
    )
    assert status == 400
    assert "unsupported manifest schema" in _json(raw)["error"]
    # Bad envelope fields.
    status, _, raw = _call(
        base,
        "POST",
        "/v1/jobs",
        body={"payload": _manifest(), "priority": "high"},
    )
    assert status == 400 and "priority" in _json(raw)["error"]
    status, _, raw = _call(
        base,
        "POST",
        "/v1/jobs",
        body={"payload": _manifest(), "kind": "sorcery"},
    )
    assert status == 400 and "sorcery" in _json(raw)["error"]
    # Kind and payload checks are validate_job's own, texts included.
    status, _, raw = _call(
        base, "POST", "/v1/jobs", body={"kind": "bogus", "payload": _manifest()}
    )
    assert status == 400
    assert _json(raw)["error"] == (
        "unknown job kind 'bogus' (known: scenario, campaign, study)"
    )
    status, _, raw = _call(base, "POST", "/v1/jobs", body={"payload": [1]})
    assert status == 400
    assert "job payload must be a JSON object" in _json(raw)["error"]
    # The partition sugar leaves a non-object payload to validate_job.
    body = {"kind": "campaign", "payload": [1], "partitions": 2, "partition": 1}
    status, _, raw = _call(base, "POST", "/v1/jobs", body=body)
    assert status == 400
    assert "job payload must be a JSON object" in _json(raw)["error"]


@pytest.mark.parametrize(
    "options, expected, message",
    [(None, 201, None), ([1], 400, "scenario options must be a JSON object")],
    ids=["null", "list"],
)
def test_scenario_options_null_means_none(served, options, expected, message):
    from repro.scenario import named_scenario

    payload = named_scenario("low-vibration").to_dict()
    payload["options"] = options
    status, _, raw = _call(served.url, "POST", "/v1/jobs", body=payload)
    assert status == expected
    if message is not None:
        assert message in _json(raw)["error"]


def test_oversized_body_is_a_400(served):
    import http.client

    conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
    try:
        # Announce an absurd body without sending it: the handler must
        # refuse on the header alone, before reading anything.
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert b"bytes" in response.read()
    finally:
        conn.close()


def test_unknown_paths_and_methods(served):
    base = served.url
    assert _call(base, "GET", "/nope")[0] == 404
    assert _call(base, "GET", "/v1/unknown")[0] == 404
    assert _call(base, "GET", "/v1/jobs/does-not-exist")[0] == 404
    assert _call(base, "POST", "/v1/jobs/some-id", body={})[0] == 405
    assert _call(base, "DELETE", "/v1/metrics")[0] == 405


# -- middleware ----------------------------------------------------------------


def test_token_auth_gates_everything_but_healthz(store):
    server = ServiceServer(ServiceApp(store, tokens=("sesame",))).start()
    try:
        base = server.url
        status, headers, _ = _call(base, "GET", "/v1/jobs")
        assert status == 401
        assert "Bearer" in headers["WWW-Authenticate"]
        assert _call(base, "GET", "/v1/jobs", token="wrong")[0] == 401
        assert _call(base, "GET", "/v1/jobs", token="sesame")[0] == 200
        # The liveness probe stays open for load balancers.
        assert _call(base, "GET", "/v1/healthz")[0] == 200
    finally:
        server.shutdown()


def test_rate_limit_yields_429_with_retry_after(store):
    server = ServiceServer(ServiceApp(store, rate=0.01, burst=2)).start()
    try:
        base = server.url
        assert _call(base, "GET", "/v1/jobs")[0] == 200
        assert _call(base, "GET", "/v1/jobs")[0] == 200
        status, headers, raw = _call(base, "GET", "/v1/jobs")
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in _json(raw)["error"]
        # Health probes are never throttled.
        assert _call(base, "GET", "/v1/healthz")[0] == 200
        # The refusal shows up in the metrics (which are throttled too,
        # so read them through the app object instead of the wire).
        assert server.app.limiter.rejected >= 1
    finally:
        server.shutdown()


# -- observability -------------------------------------------------------------


def test_healthz_and_metrics_shapes(store, served):
    base = served.url
    status, _, raw = _call(base, "GET", "/v1/healthz")
    health = _json(raw)
    assert status == 200 and health["status"] == "ok"
    import repro

    assert health["version"] == repro.__version__

    _call(base, "POST", "/v1/jobs", body=_manifest())
    status, _, raw = _call(base, "GET", "/v1/metrics")
    metrics = _json(raw)
    assert status == 200
    assert metrics["jobs"]["queued"] == 1
    assert metrics["requests"]["total"] >= 2
    assert "store" in metrics and metrics["store"]["results"] == 0
    assert metrics["workers"] is None  # no pool attached to this app


def test_healthz_reports_pool_liveness(store):
    pool = WorkerPool(store, workers=2, poll_interval=0.05)
    server = ServiceServer(ServiceApp(store, pool=pool)).start()
    try:
        status, _, raw = _call(server.url, "GET", "/v1/healthz")
        workers = _json(raw)["workers"]
        assert status == 200
        assert workers == {"configured": 2, "alive": 0}  # not started
    finally:
        server.shutdown()


# -- HEAD ----------------------------------------------------------------------


def test_head_healthz_is_get_without_the_body(served):
    """Load balancers probe ``HEAD /v1/healthz``; it must not be a 501."""
    get_status, _, get_body = _call(served.url, "GET", "/v1/healthz")
    status, headers, body = _call(served.url, "HEAD", "/v1/healthz")
    assert (get_status, status) == (200, 200)
    assert body == b""
    # Same headers a GET would carry, including the suppressed body's
    # true Content-Length.
    assert headers["Content-Length"] == str(len(get_body))
    assert headers["Content-Type"] == "application/json"


def test_head_routes_and_errors_like_get(served):
    status, _, body = _call(served.url, "HEAD", "/v1/jobs")
    assert status == 200 and body == b""
    status, _, body = _call(served.url, "HEAD", "/v1/nope")
    assert status == 404 and body == b""


def test_head_passes_through_auth_middleware(store):
    server = ServiceServer(ServiceApp(store, tokens=("s3cret",))).start()
    try:
        # The probe stays open...
        status, _, _ = _call(server.url, "HEAD", "/v1/healthz")
        assert status == 200
        # ...everything else still needs the token, HEAD included.
        status, _, _ = _call(server.url, "HEAD", "/v1/jobs")
        assert status == 401
        status, _, _ = _call(server.url, "HEAD", "/v1/jobs", token="s3cret")
        assert status == 200
    finally:
        server.shutdown()


# -- partitioned submissions ---------------------------------------------------


def test_envelope_partition_sugar_names_and_slices(store, served):
    manifest = _manifest(n=4)
    body = {"kind": "campaign", "name": "px", "payload": manifest,
            "partitions": 2, "partition": 1}
    status, _, raw = _call(served.url, "POST", "/v1/jobs", body=body)
    job = _json(raw)
    assert status == 201
    assert job["name"] == "px@p1of2"
    full_total = len(manifest_scenarios(manifest))
    assert 0 < job["total"] < full_total


def test_envelope_partition_requires_both_fields(served):
    body = {"kind": "campaign", "payload": _manifest(), "partitions": 2}
    status, _, raw = _call(served.url, "POST", "/v1/jobs", body=body)
    assert status == 400
    assert "partition" in _json(raw)["error"]
    body = {"kind": "campaign", "payload": _manifest(),
            "partitions": 2, "partition": 5}
    status, _, raw = _call(served.url, "POST", "/v1/jobs", body=body)
    assert status == 400
    assert "1..2" in _json(raw)["error"]
