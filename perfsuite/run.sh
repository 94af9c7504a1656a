#!/usr/bin/env bash
# Builds the perfsuite benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfsuite/run.sh --workload fleet-library --seed 1 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfsuite"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/perfsuite" && go build -o "$out/perfsuite" .)
exec "$out/perfsuite" "$@"
