#!/usr/bin/env bash
# Runs every steerbench workload N times at one seed, then prints the
# median and spread of each end-to-end metric:
#
#   bench/e2e/run.sh OUTDIR [--runs N] [--seed S] [--seconds T]
#
# With --parent, it measures this checkout against a parent checkout in
# alternating pairs, then compares the two:
#
#   bench/e2e/run.sh OUTDIR --parent PARENT_CHECKOUT [--runs N] [--seed S]
#                    [--seconds T] [--claim METRIC@WORKLOAD]
#
# Round r runs the workloads in an order rotated by r, so machine noise
# does not always land on the same workload. Each run leaves its record in
# OUTDIR/<workload>-rNN.json, or with --parent in OUTDIR/parent/ and
# OUTDIR/change/. There round r runs both sides of each workload back to
# back, the parent first in even rounds and the change first in odd ones,
# so pair r of `steerbench compare` (which pairs runs by file name) is one
# alternating pair. Defaults: 5 runs (10 with --parent, the fewest a claim
# accepts), seed 1, BENCHMARK.json's run_seconds.
set -euo pipefail

usage() {
  echo "usage: $0 OUTDIR [--runs N] [--seed S] [--seconds T]" \
       "[--parent CHECKOUT [--claim METRIC@WORKLOAD]]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
out="$1"
shift
runs=""
seed=1
seconds=()
parent=""
claim=()
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --runs) runs="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds=(--seconds "$2") ;;
    --parent) parent="$2" ;;
    --claim) claim=(--claim "$2") ;;
    *) usage ;;
  esac
  shift 2
done
if [[ -z "$runs" ]]; then
  runs=5
  [[ -z "$parent" ]] || runs=10
fi
[[ "$runs" =~ ^[0-9]+$ ]] && ((runs >= 1 && runs <= 99)) || usage
if [[ -z "$parent" && ${#claim[@]} -gt 0 ]]; then
  usage
fi

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(sim_phased sim_serial mc_split4 svc_cold svc_hot)

# side -> the steerbench.sh that runs it and the directory of its records
sides=(change)
script_change="$here/steerbench.sh"
dir_change="$out"
if [[ -n "$parent" ]]; then
  script_parent="$(cd "$parent" && pwd)/bench/e2e/steerbench.sh"
  if [[ ! -f "$script_parent" ]]; then
    echo "$0: no $script_parent" >&2
    exit 2
  fi
  sides=(parent change)
  dir_parent="$out/parent"
  dir_change="$out/change"
fi
for side in "${sides[@]}"; do
  dir="dir_$side"
  mkdir -p "${!dir}"
done
log="$out/.run.log"
trap 'rm -f "$log"' EXIT

# Runs a steerbench.sh; its stderr (mostly build output) shows only when
# it fails.
quiet() {
  local status=0
  bash "$@" 2>"$log" || status=$?
  if ((status != 0)); then
    cat "$log" >&2
  fi
  return "$status"
}

status=0
for ((r = 0; r < runs; r++)); do
  order=("${sides[@]}")
  if ((r % 2 == 1 && ${#sides[@]} == 2)); then
    order=(change parent)
  fi
  for ((k = 0; k < ${#workloads[@]}; k++)); do
    w="${workloads[$(((r + k) % ${#workloads[@]}))]}"
    for side in "${order[@]}"; do
      script="script_$side"
      dir="dir_$side"
      label="run $r $w"
      [[ ${#sides[@]} -eq 1 ]] || label+=" ($side)"
      record="${!dir}/$(printf '%s-r%02d.json' "$w" "$r")"
      if quiet "${!script}" --workload "$w" --seed "$seed" "${seconds[@]}" \
          --trace 0 --out "$record" >/dev/null; then
        echo "$label: ok"
      else
        echo "$label: FAILED (see $record)"
        status=1
      fi
    done
  done
done
for side in "${sides[@]}"; do
  dir="dir_$side"
  [[ ${#sides[@]} -eq 1 ]] || echo "== $side"
  quiet "$here/steerbench.sh" summary "${!dir}"
done
if [[ -n "$parent" && $status -eq 0 ]]; then
  quiet "$here/steerbench.sh" compare "$dir_parent" "$dir_change" \
    "${claim[@]}" || status=$?
fi
exit "$status"
