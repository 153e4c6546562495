#!/usr/bin/env bash
# Builds the portal load benchmark from this checkout's sources and runs it:
#
#   bash portalbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, binary, scratch
# data directories, span dumps) goes under $CARGO_TARGET_DIR, default
# .bench_build at the checkout root. Go's toolchain, module proxy and
# telemetry are kept local to that directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/portalbench" && go build -o "$build/portalbench" .) >&2
exec "$build/portalbench" --build "$build" "$@"
