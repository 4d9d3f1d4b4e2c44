#!/usr/bin/env bash
# Builds atbench from this checkout and runs it with the given arguments,
# for example:
#
#	bash cmd/atbench/run.sh --workload walk-4k --seed 7 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/atbench" .)
exec "$out/atbench" "$@"
