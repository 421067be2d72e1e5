#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# root of a checkout) and runs it there. Everything Go writes — build
# cache, temporary files, the binary — stays inside the checkout.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$out/hipmer-bench" .) >&2
exec "$out/hipmer-bench" "$@"
