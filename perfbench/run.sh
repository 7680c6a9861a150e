#!/usr/bin/env bash
# Builds the PowerPlay server and the benchmark from source, then runs
# the benchmark.  Run from the repository root:
#
#   bash perfbench/run.sh --workload edit-play --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
#
# Workloads: edit-play, browse, sweep, routed (or all).  The build cache,
# the binaries, the data directories and the span files all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/powerplay" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/powerplay and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/powerplay" ./cmd/powerplay >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -server "$out/bin/powerplay" -work "$out" "$@"
