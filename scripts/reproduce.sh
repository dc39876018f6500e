#!/usr/bin/env bash
# Reproduce every experiment: build, run the test suite, then regenerate
# every table/figure/ablation/extension into results/.
#
# Usage: scripts/reproduce.sh [--jobs N]
#   --jobs N   worker threads per bench harness (default: all cores).
#              Results are bit-identical for every value (DESIGN.md §12);
#              --jobs only changes wall-clock time.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      JOBS="$2"
      shift 2
      ;;
    *)
      echo "usage: $0 [--jobs N]" >&2
      exit 2
      ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

mkdir -p results
ctest --test-dir build --output-on-failure -j"$(nproc)" 2>&1 |
  tee results/test_output.txt

{
  total_start=$(date +%s)
  for b in build/bench/*; do
    [ -x "$b" ] || continue
    echo "== $b =="
    start=$(date +%s%N)
    case "$(basename "$b")" in
      micro_simulator)
        # Google-benchmark harness: times single runs; no --jobs. Its
        # per-state tick rates (idle, gated-idle, loaded, CMP) are the
        # per-layer tick record, results/BENCH_tick.json.
        "$b" --benchmark_out=results/BENCH_tick.json \
          --benchmark_out_format=json
        [ -s results/BENCH_tick.json ] || {
          echo "ERROR: results/BENCH_tick.json is empty or missing" >&2
          exit 1
        }
        echo "[json] wrote results/BENCH_tick.json"
        ;;
      *)
        "$b" --jobs "$JOBS"
        ;;
    esac
    end=$(date +%s%N)
    echo "[time] $(basename "$b"): $(((end - start) / 1000000)) ms"
    if [ "$(basename "$b")" = "fig10_synthetic_sweep" ]; then
      # Throughput record for the Figure 10 sweep. The constants mirror
      # the harness: 4 configs x 9 loads (fig10_synthetic_sweep.cc) at
      # the shared phase lengths of bench_util.h sweep_params(); the
      # variable-length drain phase is excluded from the cycle count.
      ms=$(((end - start) / 1000000))
      points=36
      warmup=1500
      measure=5000
      sim_cycles=$((points * (warmup + measure)))
      cps=0
      [ "$ms" -gt 0 ] && cps=$((sim_cycles * 1000 / ms))
      warm_frac=$(awk -v w="$warmup" -v m="$measure" \
                  'BEGIN { printf "%.4f", w / (w + m) }')
      # Serve leg (DESIGN.md §17): the same sweep through catnap_serve,
      # cold (cache empty, every point executed by the daemon) then
      # warm (every point a cache hit, zero executed). Both CSVs must
      # be bit-identical to the in-process run; the cold/warm wall
      # clocks land in BENCH_fig10.json as the service's amortisation
      # record.
      SWORK="$(mktemp -d serve_repro.XXXXXX)"
      build/tools/catnap_serve --socket "$SWORK/s.sock" \
        --cache "$SWORK/cache.bin" --jobs "$JOBS" \
        2> "$SWORK/daemon.log" &
      SERVE_PID=$!
      "$b" --jobs 1 --csv "$SWORK/serial.csv" > /dev/null
      s0=$(date +%s%N)
      "$b" --serve "$SWORK/s.sock" --csv "$SWORK/cold.csv" > /dev/null
      s1=$(date +%s%N)
      "$b" --serve "$SWORK/s.sock" --csv "$SWORK/warm.csv" > /dev/null
      s2=$(date +%s%N)
      cmp "$SWORK/serial.csv" "$SWORK/cold.csv" &&
        cmp "$SWORK/serial.csv" "$SWORK/warm.csv" || {
        echo "ERROR: served fig10 CSV differs from the in-process run" >&2
        exit 1
      }
      kill "$SERVE_PID" 2>/dev/null && wait "$SERVE_PID" 2>/dev/null || true
      serve_cold_ms=$(((s1 - s0) / 1000000))
      serve_warm_ms=$(((s2 - s1) / 1000000))
      rm -rf "$SWORK"
      echo "[serve] fig10 via catnap_serve: cold ${serve_cold_ms} ms," \
           "warm ${serve_warm_ms} ms (CSVs bit-identical)"
      printf '{\n  "bench": "fig10_synthetic_sweep",\n  "jobs": %s,\n  "points": %s,\n  "warmup_cycles_per_point": %s,\n  "measure_cycles_per_point": %s,\n  "warmup_fraction_of_point": %s,\n  "simulated_cycles_excl_drain": %s,\n  "wall_clock_ms": %s,\n  "cycles_per_sec": %s,\n  "serve_cold_wall_clock_ms": %s,\n  "serve_warm_wall_clock_ms": %s\n}\n' \
        "$JOBS" "$points" "$warmup" "$measure" "$warm_frac" \
        "$sim_cycles" "$ms" "$cps" "$serve_cold_ms" "$serve_warm_ms" \
        > results/BENCH_fig10.json || {
        echo "ERROR: failed to write results/BENCH_fig10.json" >&2
        exit 1
      }
      # A truncated or empty record is as bad as a missing one: the
      # checked-in copy is diffed in review, so fail loudly here
      # rather than committing garbage downstream.
      [ -s results/BENCH_fig10.json ] &&
        grep -q '"cycles_per_sec"' results/BENCH_fig10.json || {
        echo "ERROR: results/BENCH_fig10.json is empty or truncated" >&2
        exit 1
      }
      echo "[json] wrote results/BENCH_fig10.json"
    fi
    echo
  done
  total_end=$(date +%s)
  echo "[time] total bench wall-clock: $((total_end - total_start)) s" \
       "(--jobs $JOBS)"
} 2>&1 | tee results/bench_output.txt

echo "Done. See results/test_output.txt and results/bench_output.txt."
