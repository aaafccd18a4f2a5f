#!/usr/bin/env bash
# Builds glitchsim-bench from source and runs it with the given flags.
# Everything the build and the run write (Go build cache, binary, server
# state, results.json, trace files) stays under .bench_build/ at the
# repository root:
#
#   bash cmd/glitchsim-bench/run.sh -workload measure-small -seed 1 -seconds 20 -trace 0
#
# The toolchain is used offline (GOPROXY=off, GOTOOLCHAIN=local): the
# benchmark has no dependencies outside this repository.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/cmd/glitchsim-bench" build -o "$build/glitchsim-bench" .
exec "$build/glitchsim-bench" -work-dir "$build/work" "$@"
