#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload run-seq --seed 1 --seconds 10 --trace 0
#
# The build cache, binary, temp files, span dumps and reports all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

commit="unknown"
if command -v git >/dev/null 2>&1 &&
	[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" --commit "$commit" --out "$out/perfbench" "$@"
