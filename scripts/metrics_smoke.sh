#!/bin/sh
# metrics_smoke.sh — end-to-end scrape check for cfdserve's observability
# surface: boot a durable primary, push batches through /v1/apply,
# exercise /v1/discover and /v1/snapshot, then assert GET /v1/metrics
# exposes the expected series (apply-stage latencies, WAL fsync timing,
# HTTP middleware under their /v1 paths only) with
# enough distinct families for a dashboard. A follower
# is booted against the primary and must expose its replication-lag
# gauge. CFD_SOAK (default 1) scales the applied batches, so the nightly
# soak drives the same script harder.
#
# Usage: sh scripts/metrics_smoke.sh
set -eu

SOAK="${CFD_SOAK:-1}"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/metrics-smoke.XXXXXX")"
PRIMARY_PID=""
FOLLOWER_PID=""

cleanup() {
    [ -n "$FOLLOWER_PID" ] && kill "$FOLLOWER_PID" 2>/dev/null
    [ -n "$PRIMARY_PID" ] && kill "$PRIMARY_PID" 2>/dev/null
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "metrics-smoke: FAIL: $1" >&2
    [ -f "$TMP/primary.log" ] && sed 's/^/  primary: /' "$TMP/primary.log" >&2
    [ -f "$TMP/follower.log" ] && sed 's/^/  follower: /' "$TMP/follower.log" >&2
    exit 1
}

# addr_of LOGFILE — poll the startup banner for the bound address
# ("... on 127.0.0.1:PORT ..."), which -http 127.0.0.1:0 makes dynamic.
addr_of() {
    i=0
    while [ "$i" -lt 100 ]; do
        addr="$(sed -n 's/.* on \([0-9.]*:[0-9]*\).*/\1/p' "$1" 2>/dev/null | head -n 1)"
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    return 1
}

cat > "$TMP/cust.csv" <<'EOF'
CC,AC,PN,NM,STR,CT,ZIP
01,908,1111111,Mike,Tree Ave.,MH,07974
01,212,2222222,Joe,Elm Str.,NYC,01202
EOF
cat > "$TMP/cfds.txt" <<'EOF'
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
EOF

echo "metrics-smoke: building cfdserve"
go build -o "$TMP/cfdserve" ./cmd/cfdserve

"$TMP/cfdserve" -data "$TMP/cust.csv" -cfds "$TMP/cfds.txt" \
    -http 127.0.0.1:0 -wal-dir "$TMP/pwal" -fsync -retain-segments 4 \
    > "$TMP/primary.log" 2>&1 &
PRIMARY_PID=$!
ADDR="$(addr_of "$TMP/primary.log")" || fail "primary did not report its address"
echo "metrics-smoke: primary on $ADDR"

# Drive the hot path: CFD_SOAK * 5 batches, each one insert + one
# healing update + one delete — every op kind, violations raised and
# retired, one WAL record and fsync per batch.
n=0
total=$((SOAK * 5))
while [ "$n" -lt "$total" ]; do
    key=$(curl -fsS -X POST "http://$ADDR/v1/apply" -d '{"ops":[
        {"op":"insert","values":["01","908","1111111","Rick","Tree Ave.","NYC","07974"]}
    ]}' | sed -n 's/.*"keys":\[\([0-9]*\)\].*/\1/p')
    [ -n "$key" ] || fail "apply returned no inserted key"
    curl -fsS -X POST "http://$ADDR/v1/apply" -d '{"ops":[
        {"op":"update","key":'"$key"',"attr":"CT","value":"MH"},
        {"op":"delete","key":'"$key"'}
    ]}' > /dev/null
    n=$((n + 1))
done
echo "metrics-smoke: applied $total batches"

# Exercise discovery and the snapshot path so their series have data
# (the HTTP middleware times /v1/discover).
curl -fsS "http://$ADDR/v1/discover" > /dev/null
curl -fsS -X POST "http://$ADDR/v1/snapshot" -d '' > /dev/null

curl -fsS "http://$ADDR/v1/metrics" > "$TMP/metrics.txt"
for series in \
    'cfd_apply_ops_total{op="insert"}' \
    'cfd_apply_ops_total{op="update"}' \
    'cfd_apply_ops_total{op="delete"}' \
    cfd_apply_batches_total \
    cfd_apply_seconds_bucket \
    cfd_apply_validate_seconds_bucket \
    cfd_apply_wal_append_seconds_bucket \
    cfd_apply_shard_seconds_bucket \
    cfd_violations_added_total \
    cfd_violations_removed_total \
    cfd_wal_append_seconds_bucket \
    cfd_wal_fsync_seconds_bucket \
    cfd_wal_records_total \
    cfd_wal_append_bytes_total \
    cfd_wal_snapshots_total \
    cfd_wal_snapshot_seconds_bucket \
    cfd_tuples \
    cfd_violations \
    'cfdserve_http_requests_total{path="/v1/apply"}' \
    'cfdserve_http_requests_total{path="/v1/discover"}' \
    cfdserve_http_request_seconds_bucket \
; do
    grep -qF "$series" "$TMP/metrics.txt" || fail "scrape missing series $series"
done

# The unversioned aliases and their series are gone for good.
if grep -qF 'path="/apply"' "$TMP/metrics.txt"; then
    fail 'scrape still has an unversioned path="/apply" series'
fi

families="$(grep -c '^# TYPE ' "$TMP/metrics.txt")"
[ "$families" -ge 15 ] || fail "scrape has only $families metric families, want >= 15"
echo "metrics-smoke: primary scrape OK ($families families)"

# A hot standby must scrape too, with its replication-lag gauge live.
"$TMP/cfdserve" -cfds "$TMP/cfds.txt" -follow "http://$ADDR" \
    -http 127.0.0.1:0 -wal-dir "$TMP/fwal" \
    > "$TMP/follower.log" 2>&1 &
FOLLOWER_PID=$!
FADDR="$(addr_of "$TMP/follower.log")" || fail "follower did not report its address"

i=0
while :; do
    curl -fsS "http://$FADDR/v1/metrics" > "$TMP/fmetrics.txt" 2>/dev/null || true
    if grep -q '^cfd_replica_lag_bytes' "$TMP/fmetrics.txt"; then
        break
    fi
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "follower scrape never showed cfd_replica_lag_bytes"
    sleep 0.1
done
grep -q '^cfd_replica_records_total' "$TMP/fmetrics.txt" \
    || fail "follower scrape missing cfd_replica_records_total"
echo "metrics-smoke: follower scrape OK"
echo "metrics-smoke: PASS"
