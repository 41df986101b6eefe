#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload dros-r1 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, the binary and the run's files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/e2ebench" ]]; then
	echo "e2ebench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" --tmp "$build" "$@"
