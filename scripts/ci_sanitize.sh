#!/usr/bin/env bash
# Builds a separate sanitized tree (ASan + UBSan) and runs the full test
# suite under it. The simulator's fiber stacks (src/sim/fiber.cpp tells
# ASan about every switch) and the fabric's reentrant handler paths are
# exactly the kind of code sanitizers catch regressions in, so CI should
# run this alongside the plain build. ThreadSanitizer is refused at
# configure time: the simulator is single-threaded fibers.
#
# Usage: scripts/ci_sanitize.sh [sanitizers] [build-dir]
#   sanitizers  comma-separated -fsanitize list  (default: address,undefined)
#   build-dir   out-of-tree build directory      (default: build-sanitize)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitizers="${1:-address,undefined}"
build_dir="${2:-${repo_root}/build-sanitize}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNBE_SANITIZE="${sanitizers}"
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error so CI fails fast; detect_leaks stays on by default.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

# Run the sanitized suite with the semantics checker live: its shadow
# interval trees and record rendering are themselves worth sanitizing, and
# checked runs walk extra code in every epoch path.
export NBE_CHECK=1

ctest --test-dir "${build_dir}" -j"$(nproc)" --output-on-failure
