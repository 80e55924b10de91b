#!/usr/bin/env bash
# Figure outputs: runs every deterministic paper-figure, ablation and table
# bench at default scale and writes each one's stdout (plus the JSON rows of
# the benches that export them) to <out-dir>, one file per bench.
#
# Two runs compare with a plain `diff -r`: a change that must leave the
# figures byte-identical is checked by running this script on the build of
# each commit and diffing the two output directories.
#
# Usage:
#   scripts/figure_outputs.sh <build-dir> <out-dir>
#
# <build-dir> must already hold the built bench binaries. <out-dir> is
# created if missing; existing files in it are overwritten.
#
# Left out because their numbers come from wall-clock runs:
#   bench_fig16_17_impl_vs_sim (the threaded prototype), the prototype grids
#   of bench_ablation_faults and bench_ablation_stragglers (run here with
#   --proto=0), and the Google Benchmark binaries (bench_micro_structures,
#   bench_driver_throughput).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
BUILD_DIR="$1"
OUT_DIR="$2"

# Default scale: a scale exported by the caller would change every figure.
unset HAWK_BENCH_SCALE

mkdir -p "${OUT_DIR}"
OUT_DIR="$(cd "${OUT_DIR}" && pwd)"

# name|extra flags. Benches with a --json exporter write it next to stdout.
BENCHES=(
  "bench_fig1_sparrow_hol|"
  "bench_fig4_workload_cdfs|"
  "bench_fig5_google_vs_sparrow|"
  "bench_fig6_other_traces|"
  "bench_fig7_component_breakdown|"
  "bench_fig8_9_vs_centralized|"
  "bench_fig10_11_vs_split|"
  "bench_fig12_13_cutoff|"
  "bench_fig14_misestimation|"
  "bench_fig15_steal_cap|"
  "bench_table1_workload_mix|"
  "bench_table2_job_counts|"
  "bench_ablation_burstiness|"
  "bench_ablation_partition_size|"
  "bench_ablation_probe_ratio|"
  "bench_ablation_steal_retry|"
  "bench_ablation_power_of_d|--json=${OUT_DIR}/bench_ablation_power_of_d.json"
  "bench_ablation_hetero_slots|--json=${OUT_DIR}/bench_ablation_hetero_slots.json"
  "bench_ablation_faults|--proto=0 --json=${OUT_DIR}/bench_ablation_faults.json"
  "bench_ablation_stragglers|--proto=0 --json=${OUT_DIR}/bench_ablation_stragglers.json"
)

status=0
for entry in "${BENCHES[@]}"; do
  name="${entry%%|*}"
  flags="${entry#*|}"
  binary="${BUILD_DIR}/${name}"
  if [[ ! -x "${binary}" ]]; then
    echo "missing ${binary}" >&2
    status=1
    continue
  fi
  # The "Wrote <path>" line names the output directory; drop it so two runs
  # into different directories still diff clean.
  # shellcheck disable=SC2086  # flags are word-split on purpose.
  if ! "${binary}" ${flags} | grep -v '^Wrote ' \
      > "${OUT_DIR}/${name}.txt"; then
    echo "${name} failed" >&2
    status=1
  fi
  echo "${name}" >&2
done
exit "${status}"
