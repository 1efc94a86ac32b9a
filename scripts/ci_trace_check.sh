#!/usr/bin/env bash
# Builds the bench tree, runs one figure bench with --trace/--metrics, and
# validates the exported files: the trace JSON against the checked-in
# structural schema (scripts/trace_schema.jq), the metrics snapshot for
# basic shape, and both for byte-determinism across two identical runs —
# the property that makes simulated traces diffable. A second leg exports
# the 64-rank scale_ranks traces (tens of MB, so the exporter flushes them
# in many chunks) twice and holds them to the same schema and
# byte-determinism checks, and fails when a traced run peaks at 23 MiB RSS
# or more (17 MiB measured, 13 MiB of it the untraced run; the encoded
# events take about 9 B each). Run alongside scripts/ci_sanitize.sh in CI.
#
# Usage: scripts/ci_trace_check.sh [build-dir]
#   build-dir   out-of-tree build directory  (default: build-trace)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-trace}"

command -v jq >/dev/null || { echo "ci_trace_check: jq not found" >&2; exit 1; }

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j"$(nproc)" --target fig02_late_post scale_ranks

out_dir="$(mktemp -d)"
trap 'rm -rf "${out_dir}"' EXIT

run_bench() {  # run_bench <tag>
  "${build_dir}/bench/fig02_late_post" \
    --trace="${out_dir}/$1-trace.json" \
    --metrics="${out_dir}/$1-metrics.json" >/dev/null
}

run_bench a
run_bench b

# fig02 runs one job per mode; every exported file must validate.
for f in "${out_dir}"/a-trace*.json; do
  jq -e -f "${repo_root}/scripts/trace_schema.jq" "$f" >/dev/null \
    || { echo "ci_trace_check: schema violation in $f" >&2; exit 1; }
done
for f in "${out_dir}"/a-metrics*.json; do
  jq -e '(.counters | type == "object")
         and (.gauges | type == "object")
         and (.histograms | type == "object")
         and (.counters | length > 0)' "$f" >/dev/null \
    || { echo "ci_trace_check: bad metrics snapshot $f" >&2; exit 1; }
done

# Identical seeded runs must export byte-identical files.
for f in "${out_dir}"/a-*.json; do
  g="${out_dir}/b-${f##*/a-}"
  cmp -s "$f" "$g" \
    || { echo "ci_trace_check: nondeterministic output: $f vs $g" >&2; exit 1; }
done

# Multi-chunk export: the LU and fence jobs of a 64-rank scale_ranks run.
# Each run's peak RSS is read from getrusage (no /usr/bin/time needed).
rss_limit_kb=$((23 * 1024))
run_scale() {  # run_scale <tag>
  local peak_kb
  peak_kb=$(python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
    "${build_dir}/bench/scale_ranks" --ranks=64 --iters=4 \
    --trace="${out_dir}/$1-scale.json")
  echo "ci_trace_check: traced 64-rank run $1 peaked at $((peak_kb / 1024)) MiB RSS (limit $((rss_limit_kb / 1024)) MiB)"
  if ((peak_kb >= rss_limit_kb)); then
    echo "ci_trace_check: traced 64-rank run exceeded the memory ceiling" >&2
    exit 1
  fi
}
run_scale sa
run_scale sb
for f in "${out_dir}"/sa-scale*.json; do
  jq -e -f "${repo_root}/scripts/trace_schema.jq" "$f" >/dev/null \
    || { echo "ci_trace_check: schema violation in $f" >&2; exit 1; }
  g="${out_dir}/sb-${f##*/sa-}"
  cmp -s "$f" "$g" \
    || { echo "ci_trace_check: nondeterministic output: $f vs $g" >&2; exit 1; }
done

echo "ci_trace_check: OK ($(ls "${out_dir}"/a-trace*.json "${out_dir}"/sa-scale*.json | wc -l) traces validated, reruns byte-identical)"
