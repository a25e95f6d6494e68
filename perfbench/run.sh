#!/usr/bin/env bash
# Builds the benchmark and the characterize binary from the source tree
# around this directory, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-frames --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ at the root of
# the tree. The last line of standard output is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work" "$out/config"
# Keep the toolchain's caches, temp files and config (telemetry) inside
# the tree, and never let it fetch a toolchain or module.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/characterize" ./cmd/characterize)
case "${1:-}" in
compare | expected) exec "$out/perfbench" "$@" ;;
esac
exec "$out/perfbench" --bin "$out/characterize" --work "$out/work" "$@"
