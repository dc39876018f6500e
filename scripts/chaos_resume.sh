#!/usr/bin/env bash
# Chaos drill for the sweep journal (DESIGN.md §15): run the Figure 10
# sweep under --isolate, SIGKILL a worker mid-point, then SIGKILL the
# supervisor itself mid-sweep, resume from the journal, and require the
# merged CSV to be bit-for-bit identical to an uninterrupted serial
# in-process run. The in-process leg SIGKILLs a --jobs 4 in-process
# sweep mid-way, resumes it, and requires its CSV to equal
# results/golden/fig10.csv. A last leg checks that permanent failures
# produce a deterministic quarantine report.
#
# Usage: scripts/chaos_resume.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
FIG10="$BUILD/bench/fig10_synthetic_sweep"
SIM="$BUILD/tools/catnap_sim"
[ -x "$FIG10" ] && [ -x "$SIM" ] ||
  { echo "error: build $FIG10 and $SIM first" >&2; exit 2; }

WORK="$(mktemp -d chaos_resume.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
JOURNAL="$WORK/fig10.journal"

file_bytes() { stat -c %s "$1" 2>/dev/null || echo 0; }
journal_bytes() { file_bytes "$JOURNAL"; }

echo "== leg 1: uninterrupted serial baseline =="
"$FIG10" --jobs 1 --csv "$WORK/baseline.csv" > /dev/null

echo "== leg 2: isolated sweep, kill a worker, then the supervisor =="
"$FIG10" --isolate --jobs 1 --journal "$JOURNAL" --scratch "$WORK/scratch" \
  --csv "$WORK/interrupted.csv" > /dev/null 2>&1 &
SUP=$!

# Wait for the first journalled point so the resume has work to skip.
for _ in $(seq 1 300); do
  [ "$(journal_bytes)" -gt 0 ] && break
  kill -0 "$SUP" 2>/dev/null || { echo "error: supervisor died early" >&2; exit 1; }
  sleep 0.1
done
[ "$(journal_bytes)" -gt 0 ] || { echo "error: journal never grew" >&2; exit 1; }

# SIGKILL one in-flight worker; the supervisor must retry it invisibly.
# Only the supervisor's own children qualify: any other process whose
# command line mentions the worker flag is not ours to kill.
for _ in $(seq 1 50); do
  WPID="$(pgrep -P "$SUP" -f -- '--worker-spec' | head -n 1 || true)"
  if [ -n "$WPID" ]; then
    kill -KILL "$WPID" 2>/dev/null || true
    echo "killed worker pid $WPID"
    break
  fi
  sleep 0.1
done

# Let the sweep make more progress, then SIGKILL the supervisor itself,
# possibly mid-journal-append (the scan tolerates a torn tail).
GROWN=$(( $(journal_bytes) + 1 ))
for _ in $(seq 1 300); do
  [ "$(journal_bytes)" -ge "$GROWN" ] && break
  kill -0 "$SUP" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SUP" 2>/dev/null; then
  kill -KILL "$SUP" 2>/dev/null || true
  echo "killed supervisor pid $SUP with $(journal_bytes) journal bytes"
fi
wait "$SUP" 2>/dev/null || true
[ ! -f "$WORK/interrupted.csv" ] ||
  { echo "error: interrupted run was not actually interrupted" >&2; exit 1; }

echo "== leg 3: resume from the journal =="
"$FIG10" --isolate --jobs 1 --resume --journal "$JOURNAL" \
  --scratch "$WORK/scratch" --csv "$WORK/resumed.csv" \
  > /dev/null 2> "$WORK/resume.stderr"
grep -o '[0-9]* point(s) from journal' "$WORK/resume.stderr" ||
  { echo "error: no isolate status line on resume" >&2; exit 1; }
REPLAYED="$(grep -o '[0-9]* point(s) from journal' "$WORK/resume.stderr" |
            grep -o '^[0-9]*')"
[ "$REPLAYED" -gt 0 ] ||
  { echo "error: resume replayed nothing from the journal" >&2; exit 1; }

cmp "$WORK/baseline.csv" "$WORK/resumed.csv" ||
  { echo "error: resumed CSV differs from uninterrupted baseline" >&2; exit 1; }
echo "resumed CSV is bit-for-bit identical to the serial baseline"

echo "== leg 4: in-process sweep, SIGKILL it mid-sweep, resume =="
IJOURNAL="$WORK/inproc.journal"
"$FIG10" --jobs 4 --journal "$IJOURNAL" --csv "$WORK/inproc_interrupted.csv" \
  > /dev/null 2>&1 &
RUN=$!
for _ in $(seq 1 300); do
  [ "$(file_bytes "$IJOURNAL")" -gt 0 ] && break
  kill -0 "$RUN" 2>/dev/null || { echo "error: sweep died early" >&2; exit 1; }
  sleep 0.05
done
kill -KILL "$RUN" 2>/dev/null || true
wait "$RUN" 2>/dev/null || true
echo "killed in-process sweep with $(file_bytes "$IJOURNAL") journal bytes"
[ ! -f "$WORK/inproc_interrupted.csv" ] ||
  { echo "error: in-process run was not actually interrupted" >&2; exit 1; }
"$FIG10" --jobs 4 --resume --journal "$IJOURNAL" \
  --csv "$WORK/inproc_resumed.csv" > /dev/null 2> "$WORK/inproc.stderr"
grep -o '[0-9]* point(s) executed, [0-9]* point(s) from journal' \
  "$WORK/inproc.stderr" ||
  { echo "error: no journal status line on resume" >&2; exit 1; }
REPLAYED="$(grep -o '[0-9]* point(s) from journal' "$WORK/inproc.stderr" |
            grep -o '^[0-9]*')"
[ "$REPLAYED" -gt 0 ] ||
  { echo "error: resume replayed nothing from the journal" >&2; exit 1; }
cmp results/golden/fig10.csv "$WORK/inproc_resumed.csv" ||
  { echo "error: resumed CSV differs from results/golden/fig10.csv" >&2; exit 1; }
echo "resumed in-process CSV is bit-for-bit identical to the golden"

echo "== leg 5: quarantine report is deterministic =="
QARGS=(--subnets 2 --gating catnap --loads 0.05,0.10 --warmup 200
       --measure 600 --isolate --worker /bin/false
       --scratch "$WORK/qscratch" --point-retries 1)
set +e
"$SIM" "${QARGS[@]}" > /dev/null 2> "$WORK/q1.stderr"; RC1=$?
"$SIM" "${QARGS[@]}" > /dev/null 2> "$WORK/q2.stderr"; RC2=$?
set -e
[ "$RC1" -eq 4 ] && [ "$RC2" -eq 4 ] ||
  { echo "error: expected exit 4 (quarantine), got $RC1/$RC2" >&2; exit 1; }
cmp "$WORK/q1.stderr" "$WORK/q2.stderr" ||
  { echo "error: quarantine summary is not deterministic" >&2; exit 1; }
echo "quarantine exits 4 with an identical summary across runs"

echo "chaos_resume: all legs passed"
