#!/usr/bin/env bash
# Runs the semantics-checker CI leg: the cross-mode differential fuzzer at
# CI depth (800 fixed seeds instead of the in-tree default 100), then the
# full tier-1 suite with the online checker enabled so every existing test
# doubles as a checker false-positive probe.
#
# Usage: scripts/ci_check.sh [build-dir] [seeds]
#   build-dir   out-of-tree build directory   (default: build)
#   seeds       fuzzer seed count             (default: 800)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
seeds="${2:-800}"

if [[ ! -d "${build_dir}" ]]; then
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
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
