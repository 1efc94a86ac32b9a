#!/usr/bin/env bash
# Release-mode scaling smoke: runs the scale_ranks sweep at 256 simulated
# ranks twice and checks that (a) each run fits a wall-clock budget and
# (b) the deterministic (virtual-time) sections of the two JSON reports are
# byte-identical. It then runs 1024 ranks once and checks (c) that the
# run's peak RSS stays under 250 MiB (it peaks at 192 MiB; the gate allows
# 30 % more). This is the cheap CI stand-in for the full fig13 sweep: it
# catches fiber-scheduler wall-clock regressions, rerun nondeterminism and
# memory blow-ups at scale without a multi-minute job.
#
# Usage: scripts/ci_scale.sh [build-dir] [budget-seconds]
#   build-dir       out-of-tree build directory  (default: build-scale)
#   budget-seconds  per-run wall-clock ceiling   (default: 120)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-scale}"
budget_s="${2:-120}"

command -v jq >/dev/null || { echo "ci_scale: jq not found" >&2; exit 1; }

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j"$(nproc)" --target scale_ranks

out_dir="$(mktemp -d)"
trap 'rm -rf "${out_dir}"' EXIT

run_sweep() {  # run_sweep <tag>
  local t0 t1
  t0=$(date +%s)
  "${build_dir}/bench/scale_ranks" \
    --ranks=256 --iters=4 --lu-m=256 \
    --json="${out_dir}/$1.json" >/dev/null
  t1=$(date +%s)
  local elapsed=$((t1 - t0))
  echo "ci_scale: run $1 took ${elapsed}s (budget ${budget_s}s)"
  if ((elapsed > budget_s)); then
    echo "ci_scale: run $1 exceeded wall-clock budget" >&2
    exit 1
  fi
}

run_sweep a
run_sweep b

# Only the deterministic section may be compared across runs; wall-clock
# numbers differ from run to run by design.
for r in a b; do
  jq -S '.deterministic' "${out_dir}/${r}.json" >"${out_dir}/${r}.det.json"
done
cmp -s "${out_dir}/a.det.json" "${out_dir}/b.det.json" || {
  echo "ci_scale: virtual-time divergence between identical runs:" >&2
  diff "${out_dir}/a.det.json" "${out_dir}/b.det.json" >&2 || true
  exit 1
}

# Peak RSS of the child, read from getrusage (no /usr/bin/time needed).
rss_limit_kb=$((250 * 1024))
peak_kb=$(python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
  "${build_dir}/bench/scale_ranks" --ranks=1024 --iters=4 --lu-m=64)
echo "ci_scale: 1024 ranks peaked at $((peak_kb / 1024)) MiB RSS (limit $((rss_limit_kb / 1024)) MiB)"
if ((peak_kb >= rss_limit_kb)); then
  echo "ci_scale: 1024-rank run exceeded the memory ceiling" >&2
  exit 1
fi

echo "ci_scale: OK (256 ranks, reruns byte-identical in virtual time; 1024 ranks under 250 MiB)"
