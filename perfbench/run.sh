#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every
# argument passes through (--workload, --seed, --seconds, --trace).
# Build outputs, the Go build cache and run scratch space all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --workdir "$out/tmp" "$@"
