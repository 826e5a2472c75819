#!/usr/bin/env bash
# Builds the perfbench binary from the source tree it sits in and runs it
# with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-light --seed 1 --seconds 40 --trace 0
#	bash perfbench/run.sh compare base.txt change.txt
#
# Every file the build writes (Go build cache, temporary files, the
# binary) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
