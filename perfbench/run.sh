#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout. Outside a checkout of the program (no
# go.mod beside perfbench/) it exits 2 without printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a checkout of the program" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
