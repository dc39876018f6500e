#!/usr/bin/env bash
# Runs every bench harness except micro_simulator (whose output is
# wall-clock timing) and compares what it writes, byte for byte, with
# the goldens under results/golden/ (see results/golden/README.md):
# each harness's stdout as <harness>.txt, plus the --csv file of the
# harnesses that write one. stderr (drain-budget warnings, whose order
# follows host scheduling) goes to <harness>.log and is not compared.
#
# Usage: scripts/check_goldens.sh BUILD_DIR OUT_DIR [FLAG...]
#   FLAGs (e.g. --jobs 1, --isolate) are passed to every harness whose
#   --help lists them; the in-process harnesses take --jobs only.
#   With OUT_DIR = results/golden the run (re)writes the goldens and
#   the comparison is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="$(cd "${1:?usage: $0 BUILD_DIR OUT_DIR [FLAG...]}" && pwd)"
OUT="${2:?usage: $0 BUILD_DIR OUT_DIR [FLAG...]}"
shift 2
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
GOLDEN="$(pwd)/results/golden"

# harness  csv-file-or-dash
HARNESSES=(
  "fig02_bandwidth_need -"
  "tab02_voltage_frequency -"
  "fig06_subnet_scaling fig06.csv"
  "fig07_power_breakdown -"
  "fig08_app_workloads -"
  "fig09_csc -"
  "fig10_synthetic_sweep fig10.csv"
  "fig11_congestion_metrics -"
  "fig12_bursty -"
  "fig13_ir_policy -"
  "fig14_64core fig14.csv"
  "abl_thresholds -"
  "abl_region_size -"
  "abl_gating_params -"
  "abl_class_partition -"
  "ext_torus ext_torus.csv"
  "ext_fine_gating ext_fine_gating.csv"
  "ext_fault_resilience -"
)

status=0
for entry in "${HARNESSES[@]}"; do
  read -r name csv <<< "$entry"
  bin="$BUILD/bench/$name"
  [ -x "$bin" ] || { echo "error: $bin is not built" >&2; exit 2; }
  help="$("$bin" --help)"
  args=()
  keep=0
  for flag in "$@"; do
    case "$flag" in
      --*) if grep -q -- "$flag" <<< "$help"; then keep=1; else keep=0; fi
           [ "$keep" -eq 1 ] && args+=("$flag") ;;
      *)   [ "$keep" -eq 1 ] && args+=("$flag") ;;
    esac
  done
  [ "$csv" = "-" ] || args+=(--csv "$csv")
  start=$(date +%s)
  (cd "$OUT" && "$bin" "${args[@]}" > "$name.txt" 2> "$name.log") ||
    { echo "error: $name exited $?; see $OUT/$name.log" >&2; exit 1; }
  files=("$name.txt")
  [ "$csv" = "-" ] || files+=("$csv")
  for f in "${files[@]}"; do
    [ "$OUT" = "$GOLDEN" ] && continue
    if ! cmp "$GOLDEN/$f" "$OUT/$f"; then
      status=1
    fi
  done
  echo "$name ${args[*]}: $(( $(date +%s) - start )) s"
done
[ "$OUT" = "$GOLDEN" ] && rm -f "$GOLDEN"/*.log
[ "$status" -eq 0 ] && echo "check_goldens: all outputs identical"
exit "$status"
