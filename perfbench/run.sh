#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything it builds, generates and
# caches stays under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ] || [ ! -d internal/server ]; then
	echo "perfbench: run from the root of an opmap checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
