#!/bin/sh
# Tears the tail of an isolated sweep's journal, as a supervisor
# SIGKILLed mid-append would, then resumes twice. The first resume
# re-runs the torn point; the store compacts the torn bytes away before
# appending it, so the second resume must replay every point and spawn
# no worker. Both resumed outputs must equal the uninterrupted run.
#
# Usage: tests/torn_journal_resume.sh CATNAP_SIM
set -eu
SIM="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/torn_journal.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
set -- --subnets 2 --mesh 4 --loads 0.02,0.04,0.06 --warmup 200 \
  --measure 600 --isolate --jobs 2 --scratch "$WORK/scratch" \
  --journal "$WORK/sweep.journal"

"$SIM" "$@" > "$WORK/full.txt" 2> /dev/null
truncate -s -10 "$WORK/sweep.journal"
for pass in 1 2; do
  "$SIM" "$@" --resume > "$WORK/resume$pass.txt" 2> "$WORK/resume$pass.err"
  cat "$WORK/resume$pass.err"
  cmp "$WORK/full.txt" "$WORK/resume$pass.txt"
done
grep -q '1 worker(s) spawned, 2 point(s) from journal' "$WORK/resume1.err"
grep -q '0 worker(s) spawned, 3 point(s) from journal' "$WORK/resume2.err"
