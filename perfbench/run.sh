#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload table1_fixed --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -base ../parent -change . -workloads table1_fixed
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build/ in the current directory: the Go build cache, the
# go command's temporary and config directories, the binary and the
# trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
