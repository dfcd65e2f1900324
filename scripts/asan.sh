#!/usr/bin/env bash
# Build with AddressSanitizer + UndefinedBehaviorSanitizer and run the
# checkpoint/restore, event-dispatch, cache and core suites under them:
# serialization walks raw bytes and rebuilds object graphs (shared
# requests, pending events), event dispatch moves request handles out
# of the queue's ring buckets before handlers reschedule, and the core
# window and tag arrays are index-computed rings and columns, which is
# exactly where lifetime, aliasing and bounds bugs would hide.
# Usage: scripts/asan.sh [extra test binaries...]
set -euo pipefail
cd "$(dirname "$0")/.."

EXTRAS=()
for arg in "$@"; do
    case "$arg" in
        -h|--help)
            sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//'
            exit 0 ;;
        -*)
            echo "asan.sh: unknown flag '$arg' (try --help)" >&2
            exit 2 ;;
        *) EXTRAS+=("$arg") ;;
    esac
done

BUILD=build-asan
SAN="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN -g" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN"
cmake --build "$BUILD" -j \
    --target test_ckpt test_sim test_base test_memctrl test_cache \
    test_core mitts_sim_tool

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

"$BUILD"/tests/test_ckpt
"$BUILD"/tests/test_sim
"$BUILD"/tests/test_base
"$BUILD"/tests/test_memctrl
"$BUILD"/tests/test_cache
"$BUILD"/tests/test_core
bash tests/cli_ckpt_test.sh "$BUILD"/tools/mitts_sim

for extra in ${EXTRAS[@]+"${EXTRAS[@]}"}; do
    cmake --build "$BUILD" -j --target "$extra"
    "$BUILD"/tests/"$extra"
done

echo "asan: checkpoint/restore, event-dispatch, cache and core suites clean"
