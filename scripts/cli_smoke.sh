#!/bin/sh
# cli_smoke.sh — the batch CLIs as processes: build cfdgen, cfddetect and
# cfdrepair, generate a dirty tax instance with its semantic Σ, and check
# the exit codes main maps results and flag errors onto:
#   cfddetect exits 1 on the dirty instance under direct, sql and merged
#   (merged in CNF: its DNF cross product does not finish on this Σ);
#   cfdrepair exits 0 (certified repair);
#   cfddetect exits 0 on the repaired instance;
#   cfddetect -max -1 exits 2 (refused flag).
#
# Usage: sh scripts/cli_smoke.sh
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/cli-smoke.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() {
    echo "cli-smoke: FAIL: $1" >&2
    exit 1
}

# expect CODE DESC CMD... — run CMD (output discarded) and assert its
# exit status.
expect() {
    want="$1"
    desc="$2"
    shift 2
    set +e
    "$@" >"$TMP/out.log" 2>&1
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        sed 's/^/  /' "$TMP/out.log" >&2
        fail "$desc: exit $got, want $want"
    fi
    echo "cli-smoke: ok: $desc (exit $got)"
}

"$GO" build -o "$TMP/" ./cmd/cfdgen ./cmd/cfddetect ./cmd/cfdrepair

expect 0 "cfdgen" "$TMP/cfdgen" -sz 2000 -out "$TMP/tax.csv" -cfdout "$TMP/cfds.txt"
for run in direct,dnf sql,dnf merged,cnf; do
    strategy="${run%,*}"
    form="${run#*,}"
    expect 1 "cfddetect -strategy $strategy -form $form on the dirty instance" \
        "$TMP/cfddetect" -data "$TMP/tax.csv" -cfds "$TMP/cfds.txt" -strategy "$strategy" -form "$form"
done
expect 0 "cfdrepair" \
    "$TMP/cfdrepair" -data "$TMP/tax.csv" -cfds "$TMP/cfds.txt" -out "$TMP/repaired.csv"
expect 0 "cfddetect on the repaired instance" \
    "$TMP/cfddetect" -data "$TMP/repaired.csv" -cfds "$TMP/cfds.txt"
expect 2 "cfddetect -max -1" \
    "$TMP/cfddetect" -data "$TMP/tax.csv" -cfds "$TMP/cfds.txt" -max -1
echo "cli-smoke: PASS"
