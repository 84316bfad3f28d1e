#!/usr/bin/env bash
# End-to-end smoke checks of the installed package (CLI, result schemas,
# studies, the vectorized engine, the HTTP service, telemetry, sharded
# stores, the coordinator and the examples).  Needs `repro-wsn` on PATH,
# `repro` importable by `python`, curl, free local ports 8080, 8081 and
# 8091-8094, and the checkout's tests/fixtures and examples directories.
# Usage: bash ci/smoke.sh
set -Eeuo pipefail
trap 'echo "smoke: failed at line $LINENO: $BASH_COMMAND" >&2' ERR
WORK=$(mktemp -d)
FIXTURES=$(cd "$(dirname "$0")/../tests/fixtures" && pwd)
EXAMPLES=$(cd "$(dirname "$0")/../examples" && pwd)

# On exit, stop every background server or run, also after a failure.
cleanup() {
  local status=$? pids
  pids=$(jobs -p)
  if [ -n "$pids" ]; then kill $pids 2>/dev/null || true; fi
  wait || true
  if [ "$status" -eq 0 ]; then rm -rf "$WORK"; else echo "smoke: files kept in $WORK" >&2; fi
}
trap cleanup EXIT

# serve LOG PORT ARGS...: start `repro-wsn serve` on PORT in the
# background (its pid in SERVED) and wait until /v1/healthz answers.
serve() {
  local log=$1 port=$2
  shift 2
  if curl -s -o /dev/null "http://127.0.0.1:$port/v1/healthz"; then
    echo "smoke: port $port is already serving" >&2
    return 1
  fi
  repro-wsn serve --port "$port" "$@" > "$log" 2>&1 &
  SERVED=$!
  for _ in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$port/v1/healthz" > /dev/null && return 0
    sleep 0.2
  done
  cat "$log"
  return 1
}

# stop PID...: SIGTERM servers and wait for each one's (zero) exit status.
stop() {
  local p
  kill -TERM "$@"
  for p; do wait "$p"; done
}

# field KEY: print one key of the JSON object on stdin.
field() {
  python -c 'import json, sys; print(json.load(sys.stdin)[sys.argv[1]])' "$1"
}

# wait_job LOG URL [CURL-ARG...]: poll a job until it is done; print the
# server's LOG if the job failed.
wait_job() {
  local log=$1 url=$2 status
  shift 2
  for _ in $(seq 1 240); do
    status=$(curl -sf "$@" "$url" | field status)
    case $status in
      done) return 0 ;;
      failed) cat "$log"; return 1 ;;
    esac
    sleep 0.5
  done
  echo "smoke: $url still $status" >&2
  return 1
}

# same_rows A B CAMPAIGN: both stores hold the same keys, payload bytes
# and scenarios, and the same journal for CAMPAIGN.
same_rows() {
  python - "$@" <<'EOF'
import sys
from repro.store import open_store
a, b, campaign = open_store(sys.argv[1]), open_store(sys.argv[2]), sys.argv[3]
assert a.keys() == b.keys(), "key sets differ"
for key in a.keys():
    assert a.get_payload_text(key) == b.get_payload_text(key), key
    assert a.get_scenario(key) == b.get_scenario(key), key
assert a.campaign_rows(campaign) == b.campaign_rows(campaign), "journals differ"
print("byte-identical:", len(a.keys()), "rows + journal")
EOF
}

# study_spec PATH NAME: the paper study template, shortened to 300 s.
study_spec() {
  repro-wsn study template --out "$1"
  python - "$1" "$2" <<'EOF'
import json, sys
path, name = sys.argv[1:]
spec = json.load(open(path))
spec.update(horizon=300.0, name=name, seed=1)
json.dump(spec, open(path, "w"))
EOF
}

section_cli() {
  repro-wsn simulate --horizon 60 --backend envelope
  repro-wsn run-scenario --list
  repro-wsn run-scenario low-vibration --seed 1 --save scenario.json
  repro-wsn run-scenario scenario.json
  repro-wsn gen-scenarios --list
  repro-wsn gen-scenarios factory-floor --n 2 --seed 1 --horizon 300 --out manifest.json
  repro-wsn run-scenario manifest.json --jobs 2
  repro-wsn store init results.db
  repro-wsn campaign run manifest.json --store results.db --jobs 2
  repro-wsn campaign status --store results.db
  repro-wsn campaign resume factory-floor-n2-s1 --store results.db
  repro-wsn run-scenario low-vibration --seed 1 --store results.db --out result.json
  repro-wsn report result.json
  repro-wsn store stats results.db
  repro-wsn store export results.db --format csv --out export.csv
  repro-wsn store gc results.db --orphans
  # A missing or refused manifest exits 1 before any store is opened.
  local code=0
  repro-wsn campaign run missing.json --store refused.db 2> refused.err || code=$?
  if [ "$code" -ne 1 ] || [ -e refused.db ]; then exit 1; fi
  grep -q "error: cannot read manifest" refused.err
  echo '[]' > list.json
  code=0
  repro-wsn coord run list.json --workers http://127.0.0.1:9 \
    --store refused.db 2> refused.err || code=$?
  if [ "$code" -ne 1 ] || [ -e refused.db ]; then exit 1; fi
  grep -q "error: the campaign manifest must be a JSON object" refused.err
  code=0
  repro-wsn coord run manifest.json --workers http://127.0.0.1:9 \
    --store refused.db --max-attempts 0 2> refused.err || code=$?
  if [ "$code" -ne 1 ] || [ -e refused.db ]; then exit 1; fi
  grep -q "error: max_attempts must be >= 1" refused.err
}

section_schema() {
  # A result file written under schema 1 (decimal trace lists) reports
  # exactly like a fresh schema-2 run of the same scenario.
  python -c 'from dataclasses import replace
from repro.scenario import named_scenario
replace(named_scenario("paper"), horizon=60.0).save("paper-60s.json")'
  repro-wsn report "$FIXTURES/result-schema1-paper-60s.json" > old.txt
  repro-wsn run-scenario paper-60s.json --store new.db --out new.json
  repro-wsn report new.json > new.txt
  diff old.txt new.txt
  # A store holding the schema-1 row of the same key merges into the
  # schema-2 store with 0 conflicts.
  repro-wsn run-scenario paper-60s.json --store old.db
  python - "$FIXTURES/result-schema1-paper-60s.json" <<'EOF'
import json, sqlite3, sys
from repro.documents import canonical_json
row = canonical_json(json.load(open(sys.argv[1])))
with sqlite3.connect("old.db") as conn:
    assert conn.execute("UPDATE results SET payload=?", (row,)).rowcount == 1
EOF
  repro-wsn store merge new.db old.db --dry-run | tee dry.txt
  if grep -q REFUSES dry.txt; then exit 1; fi
  repro-wsn store merge new.db old.db | tee merge.txt
  grep -q "0 row(s) imported, 1 already present" merge.txt
  repro-wsn store sync old.db new.db
  # A row of a newer result schema is unreadable here, not corrupt: the
  # merge and its dry run both exit 1 naming the schema.
  cp old.db newer.db
  python - <<'EOF'
import json, sqlite3
from repro.documents import canonical_json
with sqlite3.connect("newer.db") as conn:
    (text,) = conn.execute("SELECT payload FROM results").fetchone()
    row = canonical_json(dict(json.loads(text), schema=3))
    assert conn.execute("UPDATE results SET payload=?", (row,)).rowcount == 1
EOF
  local flag code
  for flag in "" --dry-run; do
    code=0
    repro-wsn store merge new.db newer.db $flag 2> newer.err || code=$?
    cat newer.err
    if [ "$code" -ne 1 ] || grep -q corrupt newer.err; then exit 1; fi
    grep -q "unsupported result schema 3" newer.err
  done
}

section_study() {
  study_spec study.json smoke
  repro-wsn store init studies.db
  repro-wsn study run study.json --store studies.db
  repro-wsn study resume smoke --store studies.db
  repro-wsn study status --store studies.db
  repro-wsn study status smoke --store studies.db
  # gc keeps every row a study journal references.
  repro-wsn store gc studies.db --orphans
  repro-wsn study status smoke --store studies.db > status.txt
  grep -q "(100%)" status.txt
  repro-wsn explore --horizon 300 --seed 1 --design lhs \
    --surrogate quadratic --optimizers nelder-mead,pattern
}

section_vectorized() {
  # One-scenario runs stay below the lockstep crossover
  # (LOCKSTEP_MIN_LANES = 5) and run the scalar integrator; every later
  # step batches >= 5 lanes per run_batch.
  repro-wsn simulate --horizon 300 --backend vectorized
  repro-wsn run-scenario cold-start --seed 1 --backend vectorized
  repro-wsn gen-scenarios intermittent --n 8 --seed 1 --horizon 300 \
    --backend vectorized --out manifest.json
  repro-wsn run-scenario manifest.json
  repro-wsn store init vec.db
  repro-wsn campaign run manifest.json --store vec.db
  repro-wsn campaign resume intermittent-n8-s1 --store vec.db
  repro-wsn store stats vec.db
  python - <<'EOF'
from dataclasses import replace
from repro.core.batch import BatchRunner
from repro.core.montecarlo import monte_carlo
from repro.store import ResultStore
from repro.system.config import ORIGINAL_DESIGN
from repro.system.stochastic import named_family
# 2 workers x 5 lanes: both shards run on the lockstep engine.
scalar = monte_carlo(ORIGINAL_DESIGN, n_samples=10, horizon=600.0,
                     seed=5, backend="envelope")
batched = monte_carlo(ORIGINAL_DESIGN, n_samples=10, horizon=600.0,
                      seed=5, backend="vectorized", jobs=2)
assert list(scalar.transmissions) == list(batched.transmissions)
assert list(scalar.final_voltages) == list(batched.final_voltages)
# Rows written through the sharded batch path equal the scalar rows.
scens = [replace(s, horizon=600.0)
         for s in named_family("factory-floor").expand(10, seed=9)]
env_store, vec_store = ResultStore("mc-env.db"), ResultStore("mc-vec.db")
BatchRunner(jobs=1, cache_size=0, store=env_store).run(scens)
BatchRunner(jobs=2, cache_size=0, store=vec_store,
            backend="vectorized", executor="thread").run(scens)
for s in scens:
    env_row = env_store.get_payload_text(s.cache_key())
    vec_row = vec_store.get_payload_text(
        replace(s, backend="vectorized").cache_key())
    assert env_row is not None and env_row == vec_row
print("batched Monte Carlo rows byte-identical to scalar")
EOF
  python - <<'EOF'
from repro.core.study import Study, StudySpec
from repro.store import ResultStore
common = dict(n_runs=10, horizon=300.0, seed=1, optimizers=("nelder-mead",))
env_store, vec_store = ResultStore("study-env.db"), ResultStore("study-vec.db")
env = Study(StudySpec(name="smoke-env", backend="envelope", **common),
            store=env_store)
# 10-point chunks: 2 workers x 5 lanes reach the lockstep engine.
vec = Study(StudySpec(name="smoke-vec", backend="vectorized", jobs=2,
                      **common), store=vec_store, chunk_size=10)
env_out, vec_out = env.run(), vec.run()
assert list(env_out.responses) == list(vec_out.responses)
assert env_out.best().simulated_value == vec_out.best().simulated_value
env_keys, vec_keys = env.design_keys(), vec.design_keys()
assert len(env_keys) == len(vec_keys)
for ek, vk in zip(env_keys, vec_keys):
    env_row = env_store.get_payload_text(ek)
    assert env_row is not None and env_row == vec_store.get_payload_text(vk)
print(f"batched Study DoE: {len(env_keys)} store rows byte-identical")
EOF
}

section_service() {
  local url=http://127.0.0.1:8080 pid doc job
  local -a auth=(-H "Authorization: Bearer smoke-token")
  repro-wsn store init service.db
  serve serve.log 8080 --store service.db --workers 2 --token smoke-token
  pid=$SERVED
  # Load balancers probe with HEAD; it must be a bodyless 200.
  test "$(curl -s -o /dev/null -w '%{http_code}' -I "$url/v1/healthz")" = 200
  repro-wsn gen-scenarios factory-floor --n 2 --seed 1 --horizon 300 --out manifest.json
  job=$(curl -sf "${auth[@]}" -X POST --data-binary @manifest.json "$url/v1/jobs" | field id)
  wait_job serve.log "$url/v1/jobs/$job" "${auth[@]}"
  curl -sf "${auth[@]}" "$url/v1/jobs/$job/results" > via-http.json
  curl -sf "${auth[@]}" "$url/v1/metrics" | python -m json.tool
  test "$(curl -s -o /dev/null -w '%{http_code}' "$url/v1/jobs")" = 401
  study_spec study.json svc-smoke
  doc=$(curl -sf "${auth[@]}" -X POST --data-binary @study.json "$url/v1/jobs")
  test "$(field kind <<< "$doc")" = study
  wait_job serve.log "$url/v1/jobs/$(field id <<< "$doc")" "${auth[@]}"
  repro-wsn study status svc-smoke --store service.db

  # The HTTP results page equals a direct campaign run byte for byte.
  repro-wsn store init direct.db
  repro-wsn campaign run manifest.json --store direct.db
  python - <<'EOF'
import json
from repro.store import ResultStore
from repro.store.db import canonical_json
page = json.load(open("via-http.json"))
direct = ResultStore("direct.db")
assert page["count"] == 2, page
for entry in page["results"]:
    stored = direct.get_payload_text(entry["key"])
    assert stored == canonical_json(entry["result"]), entry["key"]
print("byte-identical:", page["count"], "results")
EOF

  stop "$pid"
  cat serve.log
  grep -q draining serve.log
  repro-wsn serve --store service.db --once
  repro-wsn store stats service.db | grep "jobs:"
  repro-wsn campaign status --store service.db
}

section_obs() {
  local url=http://127.0.0.1:8081 pid job
  repro-wsn store init obs.db
  serve serve.log 8081 --store obs.db --workers 2 --log-json \
    --events events.jsonl --stats-ttl 1
  pid=$SERVED
  repro-wsn gen-scenarios factory-floor --n 2 --seed 1 --horizon 300 --out manifest.json
  job=$(curl -sf -X POST --data-binary @manifest.json "$url/v1/jobs" | field id)
  wait_job serve.log "$url/v1/jobs/$job"

  # JSON (the default): cached store stats report their age.
  curl -sf "$url/v1/metrics" > metrics.json
  python -m json.tool metrics.json
  python - <<'EOF'
import json
doc = json.load(open("metrics.json"))
assert "stats_age_s" in doc["store"], doc["store"]
assert doc["requests"]["total"] > 0, doc["requests"]
EOF
  # Prometheus text via content negotiation and via ?format=.
  curl -sf -H "Accept: text/plain" "$url/v1/metrics" > metrics.txt
  head -30 metrics.txt
  curl -sf "$url/v1/metrics?format=prometheus" > metrics.prom
  grep -q '^# TYPE repro_http_requests_total counter' metrics.prom
  grep -q 'repro_batch_tier_total{tier="simulate"} 2' metrics.prom
  grep -q '^# TYPE repro_jobs_finished_total counter' metrics.prom

  stop "$pid"
  python - <<'EOF'
import json
lines = [line for line in open("serve.log") if line.strip()]
assert lines, "serve wrote no log lines"
for line in lines:
    json.loads(line)
print(len(lines), "JSON log lines")
EOF
  repro-wsn obs summary events.jsonl > summary.txt
  cat summary.txt
  repro-wsn obs tail events.jsonl -n 10
  grep -q job.execute summary.txt
}

section_shard() {
  local p1
  repro-wsn gen-scenarios factory-floor --n 4 --seed 1 --horizon 300 --out manifest.json
  repro-wsn campaign run manifest.json --store single.db --name shard-smoke
  # Two partition processes, each into a private store.
  repro-wsn campaign run manifest.json --store part1.db --name shard-smoke \
    --partitions 2 --partition 1 &
  p1=$!
  repro-wsn campaign run manifest.json --store part2.db --name shard-smoke \
    --partitions 2 --partition 2 &
  wait "$p1"
  wait "$!"
  # A partition store lists its journal under the parent campaign.
  repro-wsn campaign status --store part1.db | tee status.txt
  grep -q "shard-smoke@p1of2 \[partition 1/2 of shard-smoke\]" status.txt
  repro-wsn store init canonical --shards 4
  # The dry run predicts the real merge's row and journal counts.
  repro-wsn store merge canonical part1.db part2.db --dry-run | tee dry.txt
  repro-wsn store merge canonical part1.db part2.db | tee merge.txt
  [ "$(grep -c "^would merge" dry.txt)" -eq 2 ]
  diff <(sed -e 's/^would merge /merged /' -e 's/ to import,/ imported,/' dry.txt) merge.txt
  # A multi-source dry run checks each source against the earlier ones
  # too: a row two sources hold with different bytes is refused.
  cp part1.db clash.db
  python - <<'EOF'
import sqlite3
with sqlite3.connect("clash.db") as conn:
    conn.execute(
        "UPDATE results SET payload = payload || ' ' "
        "WHERE rowid = (SELECT MIN(rowid) FROM results)"
    )
EOF
  repro-wsn store init empty.db
  repro-wsn store merge empty.db part1.db clash.db --dry-run | tee clash.txt
  if head -n 1 clash.txt | grep -q REFUSES; then exit 1; fi
  tail -n 1 clash.txt | grep -q "REFUSES: 1 diverging row(s)"
  # A sync's dry run predicts both passes: the reverse one counts what
  # the forward one copies over as already present.
  cp single.db sync-a.db
  cp part1.db sync-b.db
  repro-wsn store sync sync-a.db sync-b.db --dry-run | tee sync-dry.txt
  repro-wsn store sync sync-a.db sync-b.db | tee sync.txt
  diff <(sed -e 's/^would merge /merged /' -e 's/ to import,/ imported,/' sync-dry.txt) sync.txt
  repro-wsn store stats canonical | grep "shards: 4"
  # The canonical pass simulates nothing and matches byte for byte.
  repro-wsn campaign run manifest.json --store canonical --name shard-smoke
  same_rows single.db canonical shard-smoke
}

section_coord() {
  local w1 w2 coord
  repro-wsn gen-scenarios factory-floor --n 6 --seed 1 --horizon 600 --out manifest.json
  repro-wsn campaign run manifest.json --store single.db --name coord-smoke

  serve w1.log 8091 --store w1.db --workers 1 --poll 0.2
  w1=$SERVED
  serve w2.log 8092 --store w2.db --workers 1 --poll 0.2
  w2=$SERVED
  repro-wsn coord run manifest.json \
    --workers http://127.0.0.1:8091,http://127.0.0.1:8092 \
    --store local.db --name coord-smoke --partitions 2 --poll 0.2 --deadline 180
  repro-wsn coord status coord-smoke --store local.db
  # Partition journals group under the parent campaign.
  repro-wsn campaign status --store local.db
  same_rows single.db local.db coord-smoke
  stop "$w1" "$w2"

  # Fresh worker stores, so both partitions really simulate.  Worker 2
  # is SIGKILLed the moment it claims its partition: the coordinator
  # must declare the partition lost and resubmit it to worker 1.
  serve kill-w1.log 8093 --store kill-w1.db --workers 1 --poll 0.2
  w1=$SERVED
  serve kill-w2.log 8094 --store kill-w2.db --workers 1 --poll 0.2
  w2=$SERVED
  repro-wsn coord run manifest.json \
    --workers http://127.0.0.1:8093,http://127.0.0.1:8094 \
    --store kill-local.db --name coord-smoke --partitions 2 --poll 0.2 \
    --stall-timeout 5 --deadline 300 > kill-coord.log 2>&1 &
  coord=$!
  for _ in $(seq 1 100); do
    grep -q "claimed job" kill-w2.log && break
    sleep 0.2
  done
  kill -9 "$w2"
  wait "$w2" || true
  wait "$coord" || { cat kill-coord.log; return 1; }
  cat kill-coord.log
  repro-wsn coord status coord-smoke --store kill-local.db
  same_rows single.db kill-local.db coord-smoke
  stop "$w1"
}

# Every example runs to a zero exit, each in a directory of its own.
section_examples() {
  local example name
  for example in "$EXAMPLES"/*.py; do
    name=$(basename "$example" .py)
    echo "-- $name"
    mkdir "$name"
    (cd "$name" && python "$example" > stdout.txt)
  done
  # The detailed co-simulation is seeded: a second run prints the same.
  (cd detailed_cosim && python "$EXAMPLES/detailed_cosim.py" > again.txt)
  diff detailed_cosim/stdout.txt detailed_cosim/again.txt
}

for section in section_cli section_schema section_study section_vectorized \
  section_service section_obs section_shard section_coord section_examples; do
  echo "== $section"
  mkdir "$WORK/$section"
  cd "$WORK/$section"
  "$section"
done
echo "smoke: all sections passed"
