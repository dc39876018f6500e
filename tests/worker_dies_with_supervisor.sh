#!/bin/sh
# An isolated sweep's worker must not outlive its supervisor, although
# it runs in a process group of its own: SIGKILL the supervisor while
# its one worker is deep in a long point, and the worker must be gone
# (or a zombie waiting to be reaped) within a few seconds.
#
# Usage: tests/worker_dies_with_supervisor.sh CATNAP_SIM
set -eu
SIM="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/orphan.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

"$SIM" --subnets 4 --gating off --loads 0.45 --warmup 100 \
  --measure 1000000 --isolate --jobs 1 --scratch "$WORK/scratch" \
  > /dev/null 2>&1 &
SUP=$!
WPID=""
for _ in $(seq 1 200); do
  WPID="$(pgrep -P "$SUP" || true)"
  [ -n "$WPID" ] && break
  sleep 0.05
done
[ -n "$WPID" ] || { echo "error: no worker started" >&2; exit 1; }
sleep 0.5 # let the worker get past its startup into the point
kill -KILL "$SUP"
wait "$SUP" 2>/dev/null || true

gone() {
  kill -0 "$1" 2>/dev/null || return 0
  # A killed worker's new parent may not have reaped it yet.
  grep -q ') Z' "/proc/$1/stat" 2>/dev/null
}
for _ in $(seq 1 100); do
  gone "$WPID" && { echo "worker $WPID died with its supervisor"; exit 0; }
  sleep 0.05
done
echo "error: worker $WPID outlived its supervisor" >&2
kill -KILL "$WPID" 2>/dev/null || true
exit 1
