#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload eval331 --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, GOPATH, temporary
# files, Go's config and telemetry) stays under .bench_build/ in the
# checkout, and the toolchain is never fetched. The build stamps no
# version-control information, so it does not depend on git.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -buildvcs=false -o "$out/uvllm-bench" .)
exec "$out/uvllm-bench" "$@"
