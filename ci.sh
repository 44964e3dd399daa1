#!/usr/bin/env bash
# ci.sh — the repo's full correctness gate. Run locally before pushing;
# .github/workflows/ci.yml runs exactly this script, so green here
# means green in CI. Zero external dependencies: everything below is
# the Go toolchain operating on this module. Sections: gofmt, vet,
# build, tests (plain and -race), deterministic examples, opmaplint,
# opmapd/shard smokes and fuzz smokes. Every gate checks a fact (an exit status, an exact
# counter, byte-identical responses); none reads a wall clock. The
# benchmark is perfbench/run.sh, not part of this gate.
set -euo pipefail
cd "$(dirname "$0")"

# One exit trap for the whole script: whatever check fails, it stops
# the daemons still running in the background and removes every temp
# dir the sections below made.
exdir="" lintdir="" smokedir=""
cleanup() {
    local pids
    pids=$(jobs -p)
    if [ -n "$pids" ]; then
        kill $pids 2>/dev/null || true
        wait $pids 2>/dev/null || true
    fi
    rm -rf "$exdir" "$lintdir" "$smokedir"
}
trap cleanup EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== examples (every run prints the same) =="
# Each example runs in a directory of its own (callfailures writes its
# report into the working directory), and every run's stdout must
# equal the first run's. Go randomizes map iteration per run, so an
# example that prints in map order differs from its first run only
# some of the time: a two-key map takes its rarer order in about one
# run in eight, so 40 runs leave such a bug under a 1% chance to pass.
exdir=$(mktemp -d)
for ex in examples/*/; do
    go build -o "$exdir/bin/" "./$ex"
done
for bin in "$exdir"/bin/*; do
    name=$(basename "$bin")
    for i in $(seq 1 40); do
        rundir="$exdir/run/$name.$i"
        mkdir -p "$rundir"
        (cd "$rundir" && "$bin" >stdout)
        if ! cmp -s "$exdir/run/$name.1/stdout" "$rundir/stdout"; then
            echo "examples/$name printed differently on run $i:" >&2
            diff "$exdir/run/$name.1/stdout" "$rundir/stdout" >&2 || true
            exit 1
        fi
    done
done
rm -rf "$exdir"

echo "== serving benchmark (compiles and runs once) =="
go test -run '^$' -bench BenchmarkServeCompare -benchtime 1x -benchmem ./internal/server
go test -run '^$' -bench BenchmarkSessionAppend -benchtime 1x -benchmem .

echo "== opmaplint =="
lintdir=$(mktemp -d)
go build -o "$lintdir/opmaplint" ./cmd/opmaplint
# Exit status 1 on any finding fails the gate here; the SARIF is the
# CI artifact upload.
"$lintdir/opmaplint" -format sarif ./... >lint.sarif
rm -rf "$lintdir"

echo "== opmapd smoke (serve, probe, drain) =="
smokedir=$(mktemp -d)
go build -o "$smokedir/opmapd" ./cmd/opmapd
"$smokedir/opmapd" -demo -records 4000 -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr" >"$smokedir/opmapd.log" 2>&1 &
opmapd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr" ]; then
    echo "opmapd never became ready:" >&2
    cat "$smokedir/opmapd.log" >&2
    exit 1
fi
addr=$(cat "$smokedir/addr")
"$smokedir/opmapd" -probe "$addr/readyz" >/dev/null
"$smokedir/opmapd" -probe "$addr/api/sweep?attr=Phone-Model&class=dropped-in-progress&max_pairs=3" \
    | grep -q '"pairs_compared"'
"$smokedir/opmapd" -probe "$addr/api/compare?attr=Phone-Model&v1=ph1&v2=ph2&class=dropped-in-progress" \
    | grep -q '"ranked"'
# Malformed query parameters are a 400, not a silent default.
if "$smokedir/opmapd" -probe "$addr/api/sweep?attr=Phone-Model&class=dropped-in-progress&max_pairs=abc" >/dev/null 2>&1; then
    echo "malformed max_pairs was not rejected" >&2
    exit 1
fi
# The /metrics scrape must show the traffic just driven: request
# counters advanced for both API paths, the outcome counters present,
# and the pipeline stage histograms populated by the sweep + compare.
"$smokedir/opmapd" -probe "$addr/metrics" >"$smokedir/metrics"
for want in \
    'opmapd_requests_total{path="/api/sweep",status="200"} 1' \
    'opmapd_requests_total{path="/api/compare",status="200"} 1' \
    'opmapd_sheds_total 0' \
    'opmapd_timeouts_total 0' \
    'opmapd_panics_total 0' \
    'opmapd_partials_total 0' \
    'opmap_stage_duration_seconds_count{stage="sweep"} 1' \
    'opmap_stage_duration_seconds_count{stage="compare"}' \
    'opmap_stage_duration_seconds_count{stage="build_cubes"} 1' \
    'opmap_cubes_built_total'; do
    if ! grep -qF "$want" "$smokedir/metrics"; then
        echo "metrics scrape missing: $want" >&2
        cat "$smokedir/metrics" >&2
        exit 1
    fi
done
kill -TERM "$opmapd_pid"
if ! wait "$opmapd_pid"; then
    echo "opmapd did not drain cleanly on SIGTERM:" >&2
    cat "$smokedir/opmapd.log" >&2
    exit 1
fi
grep -q "drained cleanly" "$smokedir/opmapd.log"

echo "== opmapd smoke (two lazy datasets) =="
go build -o "$smokedir/genlog" ./cmd/genlog
"$smokedir/genlog" -records 3000 -seed 11 -noise 6 -o "$smokedir/east.csv" 2>/dev/null
"$smokedir/genlog" -records 2000 -seed 12 -noise 6 -o "$smokedir/west.csv" 2>/dev/null
"$smokedir/opmapd" -lazy -data "east=$smokedir/east.csv" -data "west=$smokedir/west.csv" \
    -addr 127.0.0.1:0 -ready-file "$smokedir/addr2" >"$smokedir/opmapd2.log" 2>&1 &
opmapd2_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr2" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr2" ]; then
    echo "lazy opmapd never became ready:" >&2
    cat "$smokedir/opmapd2.log" >&2
    exit 1
fi
addr2=$(cat "$smokedir/addr2")
# A lazy startup materializes nothing: before any API traffic the cube
# cache counters exist (pre-registered) and sit at zero.
"$smokedir/opmapd" -probe "$addr2/metrics" >"$smokedir/metrics2"
for want in \
    'opmap_cube_cache_misses_total 0' \
    'opmap_cube_cache_hits_total 0' \
    'opmap_result_cache_misses_total 0'; do
    if ! grep -qF "$want" "$smokedir/metrics2"; then
        echo "lazy startup metrics missing: $want" >&2
        cat "$smokedir/metrics2" >&2
        exit 1
    fi
done
# Both datasets answer; the default (first -data) needs no parameter.
"$smokedir/opmapd" -probe "$addr2/api/datasets" | grep -q '"west"'
"$smokedir/opmapd" -probe "$addr2/api/overview" | grep -q '"rows": 3000'
"$smokedir/opmapd" -probe "$addr2/api/overview?dataset=east" | grep -q '"rows": 3000'
"$smokedir/opmapd" -probe "$addr2/api/overview?dataset=west" | grep -q '"rows": 2000'
if "$smokedir/opmapd" -probe "$addr2/api/overview?dataset=nowhere" >/dev/null 2>&1; then
    echo "unknown dataset name was not rejected" >&2
    exit 1
fi
# The same compare twice: the first materializes pair cubes on demand,
# the second is served from the versioned result cache.
compare2="$addr2/api/compare?attr=Phone-Model&v1=ph1&v2=ph2&class=dropped-in-progress&dataset=west"
"$smokedir/opmapd" -probe "$compare2" | grep -q '"ranked"'
"$smokedir/opmapd" -probe "$compare2" | grep -q '"ranked"'
"$smokedir/opmapd" -probe "$addr2/metrics" >"$smokedir/metrics2"
if grep -qF 'opmap_cube_cache_misses_total 0' "$smokedir/metrics2"; then
    echo "compare on a lazy dataset built no cubes" >&2
    cat "$smokedir/metrics2" >&2
    exit 1
fi
if grep -qF 'opmap_result_cache_hits_total 0' "$smokedir/metrics2"; then
    echo "repeated compare did not hit the result cache" >&2
    cat "$smokedir/metrics2" >&2
    exit 1
fi
# Drill-down over the lazy dataset: the same POST twice. The first run
# materializes its k-D cubes on demand and searches; the second must be
# served from the versioned result cache — two drilldown stage timings
# but exactly one planner run.
drillbody='{"attr":"Phone-Model","v1":"ph1","v2":"ph2","class":"dropped-in-progress"}'
"$smokedir/opmapd" -probe "$addr2/api/drilldown?dataset=west" -probe-body "$drillbody" \
    | grep -q '"findings"'
"$smokedir/opmapd" -probe "$addr2/api/drilldown?dataset=west" -probe-body "$drillbody" \
    | grep -q '"findings"'
"$smokedir/opmapd" -probe "$addr2/metrics" >"$smokedir/metrics2"
for want in \
    'opmap_drilldown_runs_total 1' \
    'opmap_stage_duration_seconds_count{stage="drilldown"} 2'; do
    if ! grep -qF "$want" "$smokedir/metrics2"; then
        echo "repeated drilldown was not memoized: missing $want" >&2
        cat "$smokedir/metrics2" >&2
        exit 1
    fi
done
# A duplicate attrs entry is a 400 naming the duplicate, not a ranking
# that scores the attribute twice.
if "$smokedir/opmapd" -probe "$addr2/api/drilldown?dataset=west" \
    -probe-body '{"attr":"Phone-Model","v1":"ph1","v2":"ph2","class":"dropped-in-progress","attrs":["Tower-Distance","Tower-Distance"]}' \
    >/dev/null 2>&1; then
    echo "duplicate drilldown attrs entry was not rejected" >&2
    exit 1
fi
kill -TERM "$opmapd2_pid"
if ! wait "$opmapd2_pid"; then
    echo "lazy opmapd did not drain cleanly on SIGTERM:" >&2
    cat "$smokedir/opmapd2.log" >&2
    exit 1
fi

echo "== opmapd smoke (snapshot warm start survives kill -9) =="
snapdir="$smokedir/snaps"
"$smokedir/opmapd" -demo -records 4000 -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr3" -snapshot-dir "$snapdir" >"$smokedir/opmapd3.log" 2>&1 &
opmapd3_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr3" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr3" ]; then
    echo "snapshot opmapd never became ready:" >&2
    cat "$smokedir/opmapd3.log" >&2
    exit 1
fi
addr3=$(cat "$smokedir/addr3")
"$smokedir/opmapd" -probe "$addr3/api/overview" >"$smokedir/overview.cold"
"$smokedir/opmapd" -probe "$addr3/api/compare?attr=Phone-Model&v1=ph1&v2=ph2&class=dropped-in-progress" \
    >"$smokedir/compare.cold"
# The cold run checkpoints its build immediately; a hard kill (no
# drain, no atexit) must leave that snapshot usable.
[ -s "$snapdir/default.omapsnap" ] || { echo "cold run wrote no snapshot" >&2; exit 1; }
kill -9 "$opmapd3_pid"
wait "$opmapd3_pid" 2>/dev/null || true
"$smokedir/opmapd" -demo -records 4000 -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr4" -snapshot-dir "$snapdir" >"$smokedir/opmapd4.log" 2>&1 &
opmapd4_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr4" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr4" ]; then
    echo "warm opmapd never became ready:" >&2
    cat "$smokedir/opmapd4.log" >&2
    exit 1
fi
addr4=$(cat "$smokedir/addr4")
grep -q "warm start" "$smokedir/opmapd4.log"
# Warm responses are byte-identical to the cold run's.
"$smokedir/opmapd" -probe "$addr4/api/overview" >"$smokedir/overview.warm"
"$smokedir/opmapd" -probe "$addr4/api/compare?attr=Phone-Model&v1=ph1&v2=ph2&class=dropped-in-progress" \
    >"$smokedir/compare.warm"
cmp "$smokedir/overview.cold" "$smokedir/overview.warm"
cmp "$smokedir/compare.cold" "$smokedir/compare.warm"
"$smokedir/opmapd" -probe "$addr4/api/datasets" | grep -q '"snapshot": "loaded"'
# The warm start built nothing: zero cubes counted, zero build-stage
# timings, one snapshot load.
"$smokedir/opmapd" -probe "$addr4/metrics" >"$smokedir/metrics4"
for want in \
    'opmap_cubes_built_total 0' \
    'opmap_stage_duration_seconds_count{stage="build_cubes"} 0' \
    'opmapd_snapshot_loads_total 1' \
    'opmapd_snapshot_fallbacks_total{reason="stale"} 0'; do
    if ! grep -qF "$want" "$smokedir/metrics4"; then
        echo "warm-start metrics missing: $want" >&2
        cat "$smokedir/metrics4" >&2
        exit 1
    fi
done
kill -TERM "$opmapd4_pid"
if ! wait "$opmapd4_pid"; then
    echo "warm opmapd did not drain cleanly on SIGTERM:" >&2
    cat "$smokedir/opmapd4.log" >&2
    exit 1
fi

echo "== opmapd smoke (lazy snapshot warm start survives kill -9) =="
# A lazy daemon checkpoints its rows and resident cubes too: after a
# hard kill it restarts from the snapshot alone, without reading the
# CSV, and answers byte-identically to the cold run.
lazysnapdir="$smokedir/lazysnaps"
"$smokedir/opmapd" -lazy -data "east=$smokedir/east.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr13" -snapshot-dir "$lazysnapdir" -checkpoint-interval 200ms \
    >"$smokedir/opmapd13.log" 2>&1 &
opmapd13_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr13" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr13" ]; then
    echo "lazy snapshot opmapd never became ready:" >&2
    cat "$smokedir/opmapd13.log" >&2
    exit 1
fi
addr13=$(cat "$smokedir/addr13")
grep -q "rows from $smokedir/east.csv" "$smokedir/opmapd13.log"
"$smokedir/opmapd" -probe "$addr13/api/compare?attr=Phone-Model&v1=ph1&v2=ph2&class=dropped-in-progress" \
    >"$smokedir/compare.lazycold"
"$smokedir/opmapd" -probe "$addr13/api/drilldown" -probe-body "$drillbody" >"$smokedir/drill.lazycold"
# The cold start checkpoints at once; wait for the periodic checkpoint
# that follows the traffic.
for _ in $(seq 1 100); do
    [ "$(grep -c "checkpointed to" "$smokedir/opmapd13.log")" -ge 2 ] && break
    sleep 0.1
done
if [ "$(grep -c "checkpointed to" "$smokedir/opmapd13.log")" -lt 2 ]; then
    echo "lazy opmapd never checkpointed after serving:" >&2
    cat "$smokedir/opmapd13.log" >&2
    exit 1
fi
kill -9 "$opmapd13_pid"
wait "$opmapd13_pid" 2>/dev/null || true
"$smokedir/opmapd" -lazy -data "east=$smokedir/east.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr14" -snapshot-dir "$lazysnapdir" -checkpoint-interval 200ms \
    >"$smokedir/opmapd14.log" 2>&1 &
opmapd14_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr14" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr14" ]; then
    echo "warm lazy opmapd never became ready:" >&2
    cat "$smokedir/opmapd14.log" >&2
    exit 1
fi
addr14=$(cat "$smokedir/addr14")
grep -q "warm start" "$smokedir/opmapd14.log"
if grep -q "rows from $smokedir/east.csv" "$smokedir/opmapd14.log"; then
    echo "warm lazy opmapd loaded the CSV:" >&2
    cat "$smokedir/opmapd14.log" >&2
    exit 1
fi
"$smokedir/opmapd" -probe "$addr14/api/datasets" | grep -q '"snapshot": "loaded"'
"$smokedir/opmapd" -probe "$addr14/api/compare?attr=Phone-Model&v1=ph1&v2=ph2&class=dropped-in-progress" \
    >"$smokedir/compare.lazywarm"
"$smokedir/opmapd" -probe "$addr14/api/drilldown" -probe-body "$drillbody" >"$smokedir/drill.lazywarm"
cmp "$smokedir/compare.lazycold" "$smokedir/compare.lazywarm"
cmp "$smokedir/drill.lazycold" "$smokedir/drill.lazywarm"
"$smokedir/opmapd" -probe "$addr14/metrics" >"$smokedir/metrics14"
for want in \
    'opmapd_snapshot_loads_total 1' \
    'opmapd_snapshot_fallbacks_total{reason="stale"} 0'; do
    if ! grep -qF "$want" "$smokedir/metrics14"; then
        echo "lazy warm-start metrics missing: $want" >&2
        cat "$smokedir/metrics14" >&2
        exit 1
    fi
done
kill -TERM "$opmapd14_pid"
if ! wait "$opmapd14_pid"; then
    echo "warm lazy opmapd did not drain cleanly on SIGTERM:" >&2
    cat "$smokedir/opmapd14.log" >&2
    exit 1
fi

echo "== opmapd smoke (WAL ingest survives kill -9) =="
waldir="$smokedir/wal"
cat >"$smokedir/ingest.csv" <<'EOF'
Region,Model,Temp,Outcome
north,m1,10,ok
south,m2,30,fail
east,m1,55,ok
west,m2,80,slow
north,m2,20,fail
south,m1,60,ok
east,m2,15,fail
west,m1,70,ok
EOF
"$smokedir/opmapd" -data "ing=$smokedir/ingest.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr5" -wal-dir "$waldir" >"$smokedir/opmapd5.log" 2>&1 &
opmapd5_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr5" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr5" ]; then
    echo "ingest opmapd never became ready:" >&2
    cat "$smokedir/opmapd5.log" >&2
    exit 1
fi
addr5=$(cat "$smokedir/addr5")
# /readyz answers 503 until the (empty) WAL replay finishes.
for _ in $(seq 1 100); do
    "$smokedir/opmapd" -probe "$addr5/readyz" >/dev/null 2>&1 && break
    sleep 0.1
done
# Two acknowledged batches: each 200 carries the durable WAL sequence.
"$smokedir/opmapd" -probe "$addr5/api/ingest" \
    -probe-body '{"rows": [["north","m1","42","fail"],["south","m2","12","fail"]]}' \
    | grep -q '"seq": 1'
"$smokedir/opmapd" -probe "$addr5/api/ingest" \
    -probe-body '{"rows": [["east","m1","33","slow"]]}' \
    | grep -q '"seq": 2'
"$smokedir/opmapd" -probe "$addr5/metrics" | grep -qF 'opmap_ingest_rows_total 3'
# Capture results that include the appended rows, then hard-kill: no
# drain, no checkpoint — only the fsynced WAL survives.
"$smokedir/opmapd" -probe "$addr5/api/overview" >"$smokedir/overview.ingest"
grep -q '"rows": 11' "$smokedir/overview.ingest"
"$smokedir/opmapd" -probe "$addr5/api/compare?attr=Region&v1=north&v2=south&class=fail" \
    >"$smokedir/compare.ingest"
kill -9 "$opmapd5_pid"
wait "$opmapd5_pid" 2>/dev/null || true
# Restart over the same WAL directory: replay must restore every
# acknowledged row before the daemon reports ready.
"$smokedir/opmapd" -data "ing=$smokedir/ingest.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr6" -wal-dir "$waldir" >"$smokedir/opmapd6.log" 2>&1 &
opmapd6_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr6" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr6" ]; then
    echo "replaying opmapd never became ready:" >&2
    cat "$smokedir/opmapd6.log" >&2
    exit 1
fi
addr6=$(cat "$smokedir/addr6")
ready=0
for _ in $(seq 1 100); do
    if "$smokedir/opmapd" -probe "$addr6/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [ "$ready" != 1 ]; then
    echo "WAL replay never finished:" >&2
    cat "$smokedir/opmapd6.log" >&2
    exit 1
fi
# Post-replay responses are byte-identical to the pre-kill ones, and
# the scrape proves the rows came back through the WAL.
"$smokedir/opmapd" -probe "$addr6/api/overview" >"$smokedir/overview.replayed"
"$smokedir/opmapd" -probe "$addr6/api/compare?attr=Region&v1=north&v2=south&class=fail" \
    >"$smokedir/compare.replayed"
cmp "$smokedir/overview.ingest" "$smokedir/overview.replayed"
cmp "$smokedir/compare.ingest" "$smokedir/compare.replayed"
"$smokedir/opmapd" -probe "$addr6/metrics" | grep -qF 'opmap_wal_replayed_records_total 2'
kill -TERM "$opmapd6_pid"
if ! wait "$opmapd6_pid"; then
    echo "ingest opmapd did not drain cleanly on SIGTERM:" >&2
    cat "$smokedir/opmapd6.log" >&2
    exit 1
fi

echo "== opmapd smoke (warm start + WAL replay on a continuous schema) =="
# The combination that matters for restored sessions: replayed and live
# numeric values must bin through the snapshot's remembered cuts into
# the intervals a cold load gives, not register new labels. Temp gets
# 40 distinct numeric values so the sniffer marks it continuous.
waldir2="$smokedir/wal2"
snapdir2="$smokedir/snaps2"
{
    echo "Region,Model,Temp,Outcome"
    for i in $(seq 0 39); do
        case $((i % 4)) in
            0) region=north ;; 1) region=south ;; 2) region=east ;; *) region=west ;;
        esac
        model="m$(((i % 2) + 1))"
        case $((i % 3)) in
            0) outcome=ok ;; 1) outcome=fail ;; *) outcome=slow ;;
        esac
        echo "$region,$model,$i.5,$outcome"
    done
} >"$smokedir/ingest2.csv"
"$smokedir/opmapd" -data "ing2=$smokedir/ingest2.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr7" -snapshot-dir "$snapdir2" -wal-dir "$waldir2" \
    >"$smokedir/opmapd7.log" 2>&1 &
opmapd7_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr7" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr7" ]; then
    echo "continuous-schema opmapd never became ready:" >&2
    cat "$smokedir/opmapd7.log" >&2
    exit 1
fi
addr7=$(cat "$smokedir/addr7")
for _ in $(seq 1 100); do
    "$smokedir/opmapd" -probe "$addr7/readyz" >/dev/null 2>&1 && break
    sleep 0.1
done
# The cold run checkpointed at sequence 0; both batches live only in
# the WAL and must replay into the snapshot-restored session.
"$smokedir/opmapd" -probe "$addr7/api/ingest" \
    -probe-body '{"rows": [["north","m1","3.7","fail"],["south","m2","88.25","ok"]]}' \
    | grep -q '"seq": 1'
"$smokedir/opmapd" -probe "$addr7/api/ingest" \
    -probe-body '{"rows": [["east","m1","12.125","slow"]]}' \
    | grep -q '"seq": 2'
"$smokedir/opmapd" -probe "$addr7/api/overview" >"$smokedir/overview.cont"
grep -q '"rows": 43' "$smokedir/overview.cont"
"$smokedir/opmapd" -probe "$addr7/api/compare?attr=Region&v1=north&v2=south&class=fail" \
    >"$smokedir/compare.cont"
kill -9 "$opmapd7_pid"
wait "$opmapd7_pid" 2>/dev/null || true
"$smokedir/opmapd" -data "ing2=$smokedir/ingest2.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr8" -snapshot-dir "$snapdir2" -wal-dir "$waldir2" \
    >"$smokedir/opmapd8.log" 2>&1 &
opmapd8_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr8" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr8" ]; then
    echo "warm+replay opmapd never became ready:" >&2
    cat "$smokedir/opmapd8.log" >&2
    exit 1
fi
addr8=$(cat "$smokedir/addr8")
ready=0
for _ in $(seq 1 100); do
    if "$smokedir/opmapd" -probe "$addr8/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [ "$ready" != 1 ]; then
    echo "warm+replay WAL replay never finished:" >&2
    cat "$smokedir/opmapd8.log" >&2
    exit 1
fi
# Prove this really took the warm-start path, then that the replayed
# state is byte-identical to the pre-kill run — with the interval
# domains intact, not polluted by raw numeric labels.
grep -q "warm start" "$smokedir/opmapd8.log"
"$smokedir/opmapd" -probe "$addr8/metrics" >"$smokedir/metrics8"
grep -qF 'opmapd_snapshot_loads_total 1' "$smokedir/metrics8"
grep -qF 'opmap_wal_replayed_records_total 2' "$smokedir/metrics8"
"$smokedir/opmapd" -probe "$addr8/api/overview" >"$smokedir/overview.cont.replayed"
"$smokedir/opmapd" -probe "$addr8/api/compare?attr=Region&v1=north&v2=south&class=fail" \
    >"$smokedir/compare.cont.replayed"
cmp "$smokedir/overview.cont" "$smokedir/overview.cont.replayed"
cmp "$smokedir/compare.cont" "$smokedir/compare.cont.replayed"
# Live ingest into the restored session takes the same binned path.
"$smokedir/opmapd" -probe "$addr8/api/ingest" \
    -probe-body '{"rows": [["west","m2","19.75","fail"]]}' \
    | grep -q '"seq": 3'
"$smokedir/opmapd" -probe "$addr8/api/compare?attr=Region&v1=north&v2=south&class=fail" \
    >"$smokedir/compare.cont.live"
kill -TERM "$opmapd8_pid"
if ! wait "$opmapd8_pid"; then
    echo "warm+replay opmapd did not drain cleanly on SIGTERM:" >&2
    cat "$smokedir/opmapd8.log" >&2
    exit 1
fi
# Oracle: a cold load replaying the full WAL into a live session must
# answer identically to the restored session that replayed + ingested.
"$smokedir/opmapd" -data "ing2=$smokedir/ingest2.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr9" -wal-dir "$waldir2" >"$smokedir/opmapd9.log" 2>&1 &
opmapd9_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr9" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr9" ]; then
    echo "oracle opmapd never became ready:" >&2
    cat "$smokedir/opmapd9.log" >&2
    exit 1
fi
addr9=$(cat "$smokedir/addr9")
for _ in $(seq 1 100); do
    "$smokedir/opmapd" -probe "$addr9/readyz" >/dev/null 2>&1 && break
    sleep 0.1
done
"$smokedir/opmapd" -probe "$addr9/api/compare?attr=Region&v1=north&v2=south&class=fail" \
    >"$smokedir/compare.cont.oracle"
cmp "$smokedir/compare.cont.live" "$smokedir/compare.cont.oracle"
kill -TERM "$opmapd9_pid"
wait "$opmapd9_pid" 2>/dev/null || true

echo "== shard smoke (shard-build x2, shard-merge, warm serve) =="
# The sharded-build contract end to end through the CLIs: two row-shards
# cubed independently (opmap shard-build), merged into one serving
# snapshot (opmap shard-merge), and served by opmapd -shard-dir — with
# responses byte-identical to a single-pass build over the concatenated
# rows, and zero cubes built at startup. Model m3 and outcome slow
# appear only in the second shard, so the merge must grow the
# dictionaries, not just sum counts. All columns are string-valued:
# per-shard kind sniffing must agree, and categorical-only data needs
# no shared cut points.
go build -o "$smokedir/opmap" ./cmd/opmap
sharddir="$smokedir/shards"
mergeddir="$smokedir/merged"
mkdir -p "$sharddir" "$mergeddir"
cat >"$smokedir/shard1.csv" <<'EOF'
Region,Model,Outcome
north,m1,ok
south,m2,bad
east,m1,bad
west,m2,ok
north,m2,bad
south,m1,ok
east,m2,bad
west,m1,bad
EOF
cat >"$smokedir/shard2.csv" <<'EOF'
Region,Model,Outcome
north,m3,bad
south,m3,slow
east,m3,bad
west,m1,ok
north,m1,slow
south,m2,bad
east,m1,ok
west,m3,bad
EOF
{ cat "$smokedir/shard1.csv"; tail -n +2 "$smokedir/shard2.csv"; } >"$smokedir/shardfull.csv"
"$smokedir/opmap" -data "$smokedir/shard1.csv" shard-build -o "$sharddir/a.omapsnap"
"$smokedir/opmap" -data "$smokedir/shard2.csv" shard-build -o "$sharddir/b.omapsnap"
"$smokedir/opmap" shard-merge -o "$mergeddir/default.omapsnap" \
    "$sharddir/a.omapsnap" "$sharddir/b.omapsnap"
# Baseline: a daemon that loads and cubes the concatenated CSV itself.
"$smokedir/opmapd" -data "$smokedir/shardfull.csv" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr10" >"$smokedir/opmapd10.log" 2>&1 &
opmapd10_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr10" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr10" ]; then
    echo "single-build opmapd never became ready:" >&2
    cat "$smokedir/opmapd10.log" >&2
    exit 1
fi
addr10=$(cat "$smokedir/addr10")
"$smokedir/opmapd" -probe "$addr10/api/overview" >"$smokedir/overview.single"
"$smokedir/opmapd" -probe "$addr10/api/compare?attr=Model&v1=m1&v2=m3&class=bad" \
    >"$smokedir/compare.single"
"$smokedir/opmapd" -probe "$addr10/api/sweep?attr=Model&class=bad&max_pairs=3" \
    >"$smokedir/sweep.single"
kill -TERM "$opmapd10_pid"
wait "$opmapd10_pid" 2>/dev/null || true
# The shard daemon assembles the two shard snapshots at startup.
"$smokedir/opmapd" -shard-dir "$mergeddir" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr11" >"$smokedir/opmapd11.log" 2>&1 &
opmapd11_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr11" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr11" ]; then
    echo "shard-dir opmapd never became ready:" >&2
    cat "$smokedir/opmapd11.log" >&2
    exit 1
fi
addr11=$(cat "$smokedir/addr11")
"$smokedir/opmapd" -probe "$addr11/api/overview" >"$smokedir/overview.sharded"
"$smokedir/opmapd" -probe "$addr11/api/compare?attr=Model&v1=m1&v2=m3&class=bad" \
    >"$smokedir/compare.sharded"
"$smokedir/opmapd" -probe "$addr11/api/sweep?attr=Model&class=bad&max_pairs=3" \
    >"$smokedir/sweep.sharded"
cmp "$smokedir/overview.single" "$smokedir/overview.sharded"
cmp "$smokedir/compare.single" "$smokedir/compare.sharded"
cmp "$smokedir/sweep.single" "$smokedir/sweep.sharded"
"$smokedir/opmapd" -probe "$addr11/api/datasets" | grep -q '"snapshot": "merged (1 shards)"'
"$smokedir/opmapd" -probe "$addr11/metrics" >"$smokedir/metrics11"
for want in \
    'opmap_cubes_built_total 0' \
    'opmap_stage_duration_seconds_count{stage="build_cubes"} 0' \
    'opmapd_shard_fallbacks_total{reason="corrupt"} 0' \
    'opmapd_shard_fallbacks_total{reason="incompatible"} 0' \
    'opmapd_shard_fallbacks_total{reason="empty"} 0'; do
    if ! grep -qF "$want" "$smokedir/metrics11"; then
        echo "shard warm-start metrics missing: $want" >&2
        cat "$smokedir/metrics11" >&2
        exit 1
    fi
done
kill -TERM "$opmapd11_pid"
wait "$opmapd11_pid" 2>/dev/null || true
# The same assembly without the CLI merge: point -shard-dir at the raw
# shard snapshots and let the daemon merge them (merged (2 shards),
# shards-merged counter 1, still zero cube builds).
"$smokedir/opmapd" -shard-dir "$sharddir" -addr 127.0.0.1:0 \
    -ready-file "$smokedir/addr12" >"$smokedir/opmapd12.log" 2>&1 &
opmapd12_pid=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr12" ] && break
    sleep 0.1
done
if [ ! -s "$smokedir/addr12" ]; then
    echo "raw-shard opmapd never became ready:" >&2
    cat "$smokedir/opmapd12.log" >&2
    exit 1
fi
addr12=$(cat "$smokedir/addr12")
"$smokedir/opmapd" -probe "$addr12/api/compare?attr=Model&v1=m1&v2=m3&class=bad" \
    >"$smokedir/compare.rawshards"
cmp "$smokedir/compare.single" "$smokedir/compare.rawshards"
"$smokedir/opmapd" -probe "$addr12/api/datasets" | grep -q '"snapshot": "merged (2 shards)"'
"$smokedir/opmapd" -probe "$addr12/metrics" >"$smokedir/metrics12"
grep -qF 'opmap_cubes_built_total 0' "$smokedir/metrics12"
grep -qF 'opmap_shards_merged_total 1' "$smokedir/metrics12"
grep -qF 'opmap_shard_merge_seconds_count 1' "$smokedir/metrics12"
kill -TERM "$opmapd12_pid"
wait "$opmapd12_pid" 2>/dev/null || true

echo "== fuzz smoke (10s per target) =="
# -fuzzminimizetime bounds minimizing each new input to a few
# executions, so the budget goes to executing inputs; a crash still
# fails the run and saves its input under testdata/fuzz.
go test -run '^$' -fuzz '^FuzzIngestRows$' -fuzztime 10s -fuzzminimizetime 5x ./internal/rulecube
go test -run '^$' -fuzz '^FuzzCountSlices$' -fuzztime 10s -fuzzminimizetime 5x ./internal/rulecube
go test -run '^$' -fuzz '^FuzzComparator$' -fuzztime 10s -fuzzminimizetime 5x ./internal/compare
go test -run '^$' -fuzz '^FuzzSweepOptions$' -fuzztime 10s -fuzzminimizetime 5x ./internal/compare
go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime 10s -fuzzminimizetime 5x ./internal/snapshot
go test -run '^$' -fuzz '^FuzzMergeSnapshots$' -fuzztime 10s -fuzzminimizetime 5x ./internal/snapshot
go test -run '^$' -fuzz '^FuzzReplayWAL$' -fuzztime 10s -fuzzminimizetime 5x ./internal/wal
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 10s -fuzzminimizetime 5x ./internal/dataset
go test -run '^$' -fuzz '^FuzzAppendWiden$' -fuzztime 10s -fuzzminimizetime 5x ./internal/dataset
go test -run '^$' -fuzz '^FuzzApplyMatchesReference$' -fuzztime 10s -fuzzminimizetime 5x ./internal/discretize

echo "CI PASSED"
