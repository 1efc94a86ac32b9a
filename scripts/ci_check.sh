#!/usr/bin/env bash
# Runs the semantics-checker CI leg: a -Werror build, the cross-mode
# differential fuzzer at CI depth (800 fixed seeds instead of the in-tree
# default 100), then the full tier-1 suite with the online checker enabled
# so every existing test doubles as a checker false-positive probe.
#
# Usage: scripts/ci_check.sh [build-dir] [seeds]
#   build-dir   out-of-tree build directory   (default: build)
#   seeds       fuzzer seed count             (default: 800)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
seeds="${2:-800}"

# Warnings are errors on this leg. An existing build dir is re-configured
# too, so a tree configured without the flag cannot hide a new warning.
if [[ -f "${build_dir}/CMakeCache.txt" ]]; then
  cmake -S "${repo_root}" -B "${build_dir}" -DNBE_WERROR=ON
else
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release \
    -DNBE_WERROR=ON
fi
cmake --build "${build_dir}" -j"$(nproc)"

# Deep fuzz: each seed replays one randomized conflict-free workload under
# the 3 modes and diffs final window contents and get results against a
# sequential oracle, with the checker live the whole time.
echo "== differential fuzzer: ${seeds} seeds =="
NBE_FUZZ_SEEDS="${seeds}" "${build_dir}/tests/check_differential_test"

# Tier-1 rerun with checking on: any conflict or epoch-state finding in a
# known-clean workload is a checker bug (or a real latent race) — either
# way CI should fail.
echo "== tier-1 under NBE_CHECK=1 =="
NBE_CHECK=1 ctest --test-dir "${build_dir}" -j"$(nproc)" --output-on-failure
