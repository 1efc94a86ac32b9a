#!/usr/bin/env bash
# A/B host-time comparison of one perfbench workload: a base revision
# against this checkout. Builds BASE's perfbench in a temporary git
# worktree and this checkout's perfbench (HEAD plus any uncommitted edits)
# in place, runs PAIRS alternating pairs on seeds 1..PAIRS (odd seeds run
# the base first, even seeds the change first), and prints, for every
# end-to-end metric BENCHMARK.json names, each side's median and
# quartiles and in how many pairs the change was better.
#
# Exits 1 when virtual_s or comm_pct differ in any pair (the change moved
# simulated results), and 2 on bad usage. A run that fails stops the
# script with perfbench's exit status.
#
# Usage: scripts/perf_ab.sh BASE_REV WORKLOAD [PAIRS]
#   BASE_REV  any git revision (e.g. HEAD~1, a commit id)
#   WORKLOAD  fence_storm, transactions, bulk_rw or diagnose
#   PAIRS     number of seed pairs (default 10)
# Env: PERF_AB_SECONDS  host seconds per run (default: BENCHMARK.json's
#      run_seconds).
set -euo pipefail

usage() {
  echo "usage: $0 BASE_REV WORKLOAD [PAIRS]" >&2
  exit 2
}
[[ $# -ge 2 && $# -le 3 ]] || usage
base_rev="$1"
workload="$2"
pairs="${3:-10}"
[[ "${pairs}" =~ ^[1-9][0-9]*$ ]] || usage

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench_json="${repo_root}/BENCHMARK.json"
seconds="${PERF_AB_SECONDS:-$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "${bench_json}")}"

git -C "${repo_root}" rev-parse --verify --quiet "${base_rev}^{commit}" \
  >/dev/null || { echo "perf_ab: unknown revision ${base_rev}" >&2; exit 2; }

tmp="$(mktemp -d)"
base_tree="${tmp}/base"
cleanup() {
  git -C "${repo_root}" worktree remove --force "${base_tree}" 2>/dev/null || true
  git -C "${repo_root}" worktree prune
  rm -rf "${tmp}"
}
trap cleanup EXIT
git -C "${repo_root}" worktree add --quiet --detach "${base_tree}" "${base_rev}"

build() {  # build <checkout>: the same Release build perfbench/run.py makes
  local dir="$1/.bench_build/perfbench"
  if [[ ! -f "${dir}/CMakeCache.txt" ]]; then
    cmake -S "$1/perfbench" -B "${dir}" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "${dir}" -j"$(( $(nproc) < 4 ? $(nproc) : 4 ))" \
    --target nbe_perfbench >&2
}
echo "perf_ab: building ${base_rev} and this checkout" >&2
build "${base_tree}"
build "${repo_root}"

run() {  # run <checkout> <seed> <out>: perfbench's JSON result line
  python3 "$1/perfbench/run.py" --workload "${workload}" --seed "$2" \
    --seconds "${seconds}" --trace 0 2>/dev/null | tail -n 1 >"$3"
}
for ((seed = 1; seed <= pairs; ++seed)); do
  if ((seed % 2 == 1)); then
    run "${base_tree}" "${seed}" "${tmp}/base.${seed}.json"
    run "${repo_root}" "${seed}" "${tmp}/head.${seed}.json"
  else
    run "${repo_root}" "${seed}" "${tmp}/head.${seed}.json"
    run "${base_tree}" "${seed}" "${tmp}/base.${seed}.json"
  fi
  echo "perf_ab: pair ${seed}/${pairs} done" >&2
done

python3 - "${bench_json}" "${tmp}" "${pairs}" "${workload}" "${base_rev}" <<'EOF'
import json, sys

bench, tmp, pairs, workload, base_rev = sys.argv[1:]
pairs = int(pairs)
load = lambda side, s: json.load(open(f"{tmp}/{side}.{s}.json"))
runs = {side: [load(side, s) for s in range(1, pairs + 1)]
        for side in ("base", "head")}

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

print(f"perf_ab: {workload}, {base_rev} -> this checkout, {pairs} pairs")
print(f"{'metric':<14} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
      f" {'delta':>8} {'better':>7}")
for m in json.load(open(bench))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
            for side in runs}
    stats = {side: (quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75))
             for side, v in vals.items()}
    better = sum((h < b) if lower else (h > b)
                 for b, h in zip(vals["base"], vals["head"]))
    bm, hm = stats["base"][0], stats["head"][0]
    delta = f"{(hm - bm) / bm * 100:+.1f}%" if bm else "n/a"
    cell = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
    print(f"{name:<14} {cell(stats['base']):>34} {cell(stats['head']):>34}"
          f" {delta:>8} {better:>3}/{pairs}")
for side in ("base", "head"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    print(f"{side}: {failed} of {attempted} operations failed")

moved = [(s + 1, name)
         for name in ("virtual_s", "comm_pct")
         for s, (b, h) in enumerate(zip(runs["base"], runs["head"]))
         if b["metrics"][name]["value"] != h["metrics"][name]["value"]]
for seed, name in moved:
    print(f"perf_ab: {name} differs on seed {seed}", file=sys.stderr)
sys.exit(1 if moved else 0)
EOF
