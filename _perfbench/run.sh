#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see README.md). Run from the repository root:
#
#   bash _perfbench/run.sh --workload golden-cold --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d testdata/golden || ! -f _perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and testdata/golden/ are missing here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Built with the profile cmd/xeonchar ships with, when there is one, so
# the engine runs as fast as it does in xeonchar.
pgo=off
if [[ -f cmd/xeonchar/default.pgo ]]; then
	pgo="$PWD/cmd/xeonchar/default.pgo"
fi
(cd _perfbench && go build -pgo="$pgo" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
