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
#   deterministic_lu — same contract, for fig13_lu's stdout: the only
#     bench that runs LU in MVAPICH mode (kept apart for the same reason).
#
#   deterministic_trace — same contract, for the tracer: sha256 of every
#     Chrome trace file fig02_late_post and fig07_11_flags export with
#     --trace (one file per job, 13 in all).
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
#       Exits 0 when every deterministic* section REFERENCE has is
#       byte-identical in REPORT; otherwise prints the difference and exits 1.
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
  # Every deterministic* section REFERENCE has: one written before a
  # section existed is still comparable on the sections it does have.
  sections="{$(jq -r '[keys[] | select(startswith("deterministic"))]
                      | join(", ")' "${ref}")}"
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
  fig06_late_unlock fig07_11_flags fig12_transactions fig13_lu \
  micro_latency micro_overlap micro_engine scale_ranks

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# --- Figure benches: stdout is pure virtual-time output, so its hash is a
# --- deterministic fingerprint; the elapsed seconds go to wall_clock.
figs=(fig02_late_post fig03_late_complete fig04_early_fence
      fig05_wait_at_fence fig06_late_unlock fig07_11_flags
      fig12_transactions micro_latency micro_overlap)
fig_det="${tmp}/fig_det.json"
lu_det="${tmp}/lu_det.json"
fig_wall="${tmp}/fig_wall.json"
echo '{}' >"${fig_det}"
echo '{}' >"${lu_det}"
echo '{}' >"${fig_wall}"
# run_fig BENCH DET_JSON: runs one figure bench at its default size, adds
# its stdout hash to DET_JSON and its elapsed seconds to fig_wall.
run_fig() {
  local b="$1" det="$2"
  local t0 t1 sha secs
  t0=$(date +%s.%N)
  "${build_dir}/bench/${b}" >"${tmp}/${b}.out"
  t1=$(date +%s.%N)
  sha="$(sha256sum "${tmp}/${b}.out" | cut -d' ' -f1)"
  secs="$(echo "${t1} ${t0}" | awk '{printf "%.3f", $1 - $2}')"
  jq --arg b "${b}" --arg h "${sha}" '. + {($b): {stdout_sha256: $h}}' \
    "${det}" >"${det}.n" && mv "${det}.n" "${det}"
  jq --arg b "${b}" --argjson s "${secs}" '. + {($b): {seconds: $s}}' \
    "${fig_wall}" >"${fig_wall}.n" && mv "${fig_wall}.n" "${fig_wall}"
  echo "bench_report: ${b} sha=${sha:0:12} wall=${secs}s"
}
for b in "${figs[@]}"; do
  run_fig "${b}" "${fig_det}"
done
run_fig fig13_lu "${lu_det}"

# --- Trace exports: each job of a traced run writes one numbered file
# --- (trace.json, trace.2.json, ...); hash every one.
trace_det="${tmp}/trace_det.json"
echo '{}' >"${trace_det}"
for b in fig02_late_post fig07_11_flags; do
  mkdir "${tmp}/${b}-trace"
  "${build_dir}/bench/${b}" --trace="${tmp}/${b}-trace/trace.json" >/dev/null
  for f in "${tmp}/${b}-trace"/*.json; do
    jq --arg b "${b}" --arg f "${f##*/}" \
      --arg h "$(sha256sum "${f}" | cut -d' ' -f1)" \
      '.[$b] += {($f): $h}' "${trace_det}" >"${trace_det}.n" \
      && mv "${trace_det}.n" "${trace_det}"
  done
  rm -r "${tmp}/${b}-trace"
  echo "bench_report: ${b} --trace hashed"
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
  --slurpfile ludet "${lu_det}" \
  --slurpfile tracedet "${trace_det}" \
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
     deterministic_lu: $ludet[0],
     deterministic_trace: $tracedet[0],
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
