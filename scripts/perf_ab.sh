#!/usr/bin/env bash
# A/B host-time comparison of perfbench workloads: a base revision against
# this checkout. Builds BASE's perfbench once, in a temporary export of
# that revision, and this checkout's perfbench (HEAD plus any uncommitted
# edits) in place. For each workload it runs PAIRS alternating pairs on
# seeds 1..PAIRS (odd seeds run the base first, even seeds the change
# first), and prints, for every end-to-end metric BENCHMARK.json names,
# each side's median and quartiles and in how many pairs the change was
# better.
#
# Exits 1 when, on any workload, virtual_s or comm_pct differ in any pair
# (the change moved simulated results), an end-to-end median is worse than
# the base's by more than its BENCHMARK.json bound, or a larger share of
# operations fails; and 2 on bad usage. A run that fails stops the script
# with perfbench's exit status. It only reads perfbench/ and
# BENCHMARK.json.
#
# Usage: scripts/perf_ab.sh BASE_REV WORKLOADS [PAIRS]
#   BASE_REV   any git revision (e.g. HEAD~1, a commit id)
#   WORKLOADS  comma-separated list of fence_storm, transactions, bulk_rw
#              and diagnose
#   PAIRS      number of seed pairs per workload (default 10)
# Env: PERF_AB_SECONDS  host seconds per run (default: BENCHMARK.json's
#      run_seconds).
set -euo pipefail

usage() {
  echo "usage: $0 BASE_REV WORKLOAD[,WORKLOAD...] [PAIRS]" >&2
  exit 2
}
[[ $# -ge 2 && $# -le 3 ]] || usage
base_rev="$1"
IFS=, read -r -a workloads <<<"$2"
pairs="${3:-10}"
[[ ${#workloads[@]} -ge 1 ]] || usage
for w in "${workloads[@]}"; do [[ "${w}" =~ ^[a-z_]+$ ]] || usage; done
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
trap 'rm -rf "${tmp}"' EXIT
mkdir "${base_tree}"
git -C "${repo_root}" archive "${base_rev}" | tar -x -C "${base_tree}"

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

run() {  # run <checkout> <workload> <seed> <out>: perfbench's JSON result
  python3 "$1/perfbench/run.py" --workload "$2" --seed "$3" \
    --seconds "${seconds}" --trace 0 2>/dev/null | tail -n 1 >"$4"
}
for w in "${workloads[@]}"; do
  for ((seed = 1; seed <= pairs; ++seed)); do
    if ((seed % 2 == 1)); then
      run "${base_tree}" "${w}" "${seed}" "${tmp}/${w}.base.${seed}.json"
      run "${repo_root}" "${w}" "${seed}" "${tmp}/${w}.head.${seed}.json"
    else
      run "${repo_root}" "${w}" "${seed}" "${tmp}/${w}.head.${seed}.json"
      run "${base_tree}" "${w}" "${seed}" "${tmp}/${w}.base.${seed}.json"
    fi
    echo "perf_ab: ${w} pair ${seed}/${pairs} done" >&2
  done
done

python3 - "${bench_json}" "${tmp}" "${pairs}" "${base_rev}" "${workloads[@]}" <<'EOF'
import json, sys

bench, tmp, pairs, base_rev, *workloads = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def compare(workload):
    """Prints one workload's table; returns its failures as strings."""
    load = lambda side, s: json.load(open(f"{tmp}/{workload}.{side}.{s}.json"))
    runs = {side: [load(side, s) for s in range(1, pairs + 1)]
            for side in ("base", "head")}
    bad = []
    print(f"perf_ab: {workload}, {base_rev} -> this checkout, {pairs} pairs")
    print(f"{'metric':<14} {'base median [q1, q3]':>34}"
          f" {'change median [q1, q3]':>34} {'delta':>8} {'better':>7}")
    for m in metrics:
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
        worse = hm - bm if lower else bm - hm
        if worse > m["bound"] * abs(bm):
            bad.append(f"{name} median {hm:.4g} vs {bm:.4g}, beyond its "
                       f"{m['bound'] * 100:.0f}% bound")
    share = {}
    for side in ("base", "head"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        share[side] = failed / attempted if attempted else 0.0
        print(f"{side}: {failed} of {attempted} operations failed")
    if share["head"] > share["base"]:
        bad.append("a larger share of operations failed")
    for name in ("virtual_s", "comm_pct"):
        for s, (b, h) in enumerate(zip(runs["base"], runs["head"])):
            if b["metrics"][name]["value"] != h["metrics"][name]["value"]:
                bad.append(f"{name} differs on seed {s + 1}")
    print()
    return bad

failures = [(w, why) for w in workloads for why in compare(w)]
for w, why in failures:
    print(f"perf_ab: {w}: {why}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
