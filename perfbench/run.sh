#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload matrix-sweep --seed 1 --seconds 10 --trace 0
#
# Every build artifact and the Go build cache stay under .bench_build/
# in the current directory (CARGO_TARGET_DIR is honoured when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export XDG_CACHE_HOME="$out/home"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
