#!/usr/bin/env bash
# Produces a single machine-readable benchmark report from a Release build,
# or checks that a report's deterministic fingerprint matches a committed
# one. The report keeps strictly separated sections:
#
#   deterministic — values that must be byte-identical on every host
#     and every rerun:
#       * sha256 of each figure bench's stdout (the virtual-time tables),
#       * the scale_ranks "deterministic" JSON section verbatim.
#     Any change means simulated results moved; --compare checks it
#     against a committed report.
#
#   deterministic_payload — same contract, but for the large-payload
#     workload (kept outside `deterministic` so that fingerprint stays
#     comparable with reports that predate the workload).
#
#   wall_clock — values that describe this host only and are expected to
#     vary run-to-run:
#       * google-benchmark results for micro_engine (JSON format),
#       * the scale_ranks "wall_clock" JSON sections (rank sweep and the
#         large-payload zero-copy workload),
#       * per-figure-bench wall seconds.
#
# Usage:
#   scripts/bench_report.sh OUTPUT.json [BUILD_DIR]
#       Builds into BUILD_DIR (default: build-bench) and writes the report
#       to OUTPUT.json. The report is labelled with OUTPUT's file name
#       without the extension (BENCH_pr4.json -> "BENCH_pr4").
#   scripts/bench_report.sh --compare REFERENCE.json REPORT.json
#       Exits 0 when REPORT's `deterministic` section is byte-identical to
#       REFERENCE's (and its `deterministic_payload`, when REFERENCE has
#       one); otherwise prints the difference and exits 1.
#
# Heavier knobs (env): NBE_BENCH_RANKS (default 64,128,256),
# NBE_BENCH_LU_M (default 256), NBE_BENCH_PAYLOAD_RANKS (default
# 16,32,64), NBE_BENCH_PAYLOAD_BYTES (default 1048576) feed scale_ranks.
# The committed BENCH_*.json reports were generated with the defaults.
set -euo pipefail

usage() {
  echo "usage: $0 OUTPUT.json [BUILD_DIR] | --compare REFERENCE.json REPORT.json" >&2
  exit 2
}

command -v jq >/dev/null || { echo "bench_report: jq not found" >&2; exit 1; }

if [[ "${1:-}" == "--compare" ]]; then
  [[ $# -eq 3 ]] || usage
  ref="$2"
  new="$3"
  sections='.deterministic'
  if jq -e 'has("deterministic_payload")' "${ref}" >/dev/null; then
    sections='{deterministic, deterministic_payload}'
  fi
  if diff <(jq -S "${sections}" "${ref}") <(jq -S "${sections}" "${new}"); then
    echo "bench_report: deterministic fingerprint of ${new} matches ${ref}"
    exit 0
  fi
  echo "bench_report: deterministic fingerprint of ${new} differs from ${ref}" >&2
  exit 1
fi

[[ $# -ge 1 && $# -le 2 ]] || usage
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out_json="$1"
label="$(basename "${out_json}" .json)"
build_dir="${2:-${repo_root}/build-bench}"
ranks="${NBE_BENCH_RANKS:-64,128,256}"
lu_m="${NBE_BENCH_LU_M:-256}"
payload_ranks="${NBE_BENCH_PAYLOAD_RANKS:-16,32,64}"
payload_bytes="${NBE_BENCH_PAYLOAD_BYTES:-1048576}"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j"$(nproc)" --target \
  fig02_late_post fig03_late_complete fig04_early_fence fig05_wait_at_fence \
  fig06_late_unlock fig07_11_flags fig12_transactions \
  micro_latency micro_overlap micro_engine scale_ranks

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# --- Figure benches: stdout is pure virtual-time output, so its hash is a
# --- deterministic fingerprint; the elapsed seconds go to wall_clock.
figs=(fig02_late_post fig03_late_complete fig04_early_fence
      fig05_wait_at_fence fig06_late_unlock fig07_11_flags
      fig12_transactions micro_latency micro_overlap)
fig_det="${tmp}/fig_det.json"
fig_wall="${tmp}/fig_wall.json"
echo '{}' >"${fig_det}"
echo '{}' >"${fig_wall}"
for b in "${figs[@]}"; do
  t0=$(date +%s.%N)
  "${build_dir}/bench/${b}" >"${tmp}/${b}.out"
  t1=$(date +%s.%N)
  sha="$(sha256sum "${tmp}/${b}.out" | cut -d' ' -f1)"
  secs="$(echo "${t1} ${t0}" | awk '{printf "%.3f", $1 - $2}')"
  jq --arg b "${b}" --arg h "${sha}" '. + {($b): {stdout_sha256: $h}}' \
    "${fig_det}" >"${fig_det}.n" && mv "${fig_det}.n" "${fig_det}"
  jq --arg b "${b}" --argjson s "${secs}" '. + {($b): {seconds: $s}}' \
    "${fig_wall}" >"${fig_wall}.n" && mv "${fig_wall}.n" "${fig_wall}"
  echo "bench_report: ${b} sha=${sha:0:12} wall=${secs}s"
done

# --- Rank scaling sweep (already splits deterministic vs wall_clock).
"${build_dir}/bench/scale_ranks" --ranks="${ranks}" --lu-m="${lu_m}" \
  --json="${tmp}/scale.json" >/dev/null
echo "bench_report: scale_ranks done (ranks=${ranks})"

# --- Large-payload zero-copy workload: lock/put/unlock rings with
# --- bulk payloads, the configuration the datapath speedup is claimed on.
"${build_dir}/bench/scale_ranks" --workload=payload \
  --ranks="${payload_ranks}" --iters=16 --payload-bytes="${payload_bytes}" \
  --json="${tmp}/payload.json" >/dev/null
echo "bench_report: scale_ranks payload done (ranks=${payload_ranks}," \
     "bytes=${payload_bytes})"

# --- Scheduler microbenchmarks: wall-clock by nature. Strip the context
# --- block's date/load fields so reruns only differ where timings differ.
"${build_dir}/bench/micro_engine" --benchmark_format=json \
  >"${tmp}/micro_engine.json" 2>/dev/null
jq '{context: (.context | del(.date, .load_avg)),
     benchmarks: [.benchmarks[] |
       {name, iterations, real_time, cpu_time, time_unit,
        items_per_second: (.items_per_second // null)}]}' \
  "${tmp}/micro_engine.json" >"${tmp}/micro_engine.trim.json"
echo "bench_report: micro_engine done"

# --- Assemble. Keys are sorted (-S) so the deterministic section diffs
# --- cleanly across regenerations.
jq -S -n \
  --slurpfile scale "${tmp}/scale.json" \
  --slurpfile payload "${tmp}/payload.json" \
  --slurpfile figdet "${fig_det}" \
  --slurpfile figwall "${fig_wall}" \
  --slurpfile micro "${tmp}/micro_engine.trim.json" \
  --arg name "${label}" \
  --arg ranks "${ranks}" --arg lu_m "${lu_m}" \
  --arg pranks "${payload_ranks}" --arg pbytes "${payload_bytes}" \
  '{
     report: ("nbe bench report (" + $name + ")"),
     params: {scale_ranks_ranks: $ranks, scale_ranks_lu_m: $lu_m,
              payload_ranks: $pranks, payload_bytes: $pbytes},
     deterministic: {
       figure_benches: $figdet[0],
       scale_ranks: $scale[0].deterministic
     },
     deterministic_payload: $payload[0].deterministic,
     wall_clock: {
       figure_benches: $figwall[0],
       scale_ranks: $scale[0].wall_clock,
       scale_payload: $payload[0].wall_clock,
       micro_engine: $micro[0]
     }
   }' >"${out_json}"

echo "bench_report: wrote ${out_json}"
echo "bench_report: deterministic fingerprint:"
jq -S '.deterministic' "${out_json}" | sha256sum
