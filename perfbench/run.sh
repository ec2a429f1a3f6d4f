#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload validate_hot --seed 1 --seconds 45 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, journal directories) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/gotmp"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2

work="$out/run-$$"
rm -rf "$work"
status=0
"$out/perfbench" -dir "$work" "$@" || status=$?
rm -rf "$work"
exit "$status"
