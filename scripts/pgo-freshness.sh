#!/bin/sh
# Assert the checked-in CPU profile (cmd/xeonchar/default.pgo) has not
# drifted from the source it claims to describe. Three checks:
#
#   1. the profile decodes and yields a non-empty hot set
#   2. no module-prefixed profile name fails to resolve onto a declared
#      function (renamed/deleted hot functions make the profile stale)
#   3. the hot set still lands on the packages BenchmarkCell, the grid
#      make bench-gate measures, exercises (internal/cpu,
#      internal/machine, internal/trace, internal/cache) — a profile that
#      no longer agrees with where the benchmarks spend time is lying to
#      the hot-tier analyzers
#
# Regenerate the profile with `make profile` and copy the cpu.pprof over
# cmd/xeonchar/default.pgo when this fails after a legitimate hot-path
# rename.
set -eu

cd "$(dirname "$0")/.."

report="$(go run ./cmd/xeonlint -hot-report ./... 2>&1)" || {
    echo "pgo-freshness: xeonlint -hot-report failed:" >&2
    echo "$report" >&2
    exit 1
}

hot_lines="$(printf '%s\n' "$report" | grep -c 'flat in profile')" || hot_lines=0
if [ "$hot_lines" -eq 0 ]; then
    echo "pgo-freshness: default.pgo produced no profile-hot functions" >&2
    printf '%s\n' "$report" >&2
    exit 1
fi

if printf '%s\n' "$report" | grep -q '^unresolved:'; then
    echo "pgo-freshness: profile names no longer present in the source:" >&2
    printf '%s\n' "$report" | grep '^unresolved:' >&2
    echo "pgo-freshness: regenerate with 'make profile' and refresh cmd/xeonchar/default.pgo" >&2
    exit 1
fi

missing=0
for pkg in internal/cpu internal/machine internal/trace internal/cache; do
    if ! printf '%s\n' "$report" | grep -q "xeonomp/$pkg\."; then
        echo "pgo-freshness: hot set misses benchmarked package $pkg" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "pgo-freshness: profile no longer covers the BenchmarkCell grid; regenerate with 'make profile'" >&2
    exit 1
fi

echo "pgo-freshness: ok ($hot_lines profile-hot functions, benchmarked packages covered)"
