#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it from the checkout root with the given arguments, for example:
#
#   bash bench/run.sh -workload tcp -seed 3 -seconds 20 -trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, temporary
# files, the binary, dcspd journals) goes under .bench_build in the checkout
# root. Without the repository's sources next to bench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/bench" .) >&2
cd "$root"
exec "$out/bench" "$@"
