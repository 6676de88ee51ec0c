#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is run
# from, then runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mariadb-long --seed 1 --seconds 45 --trace 0
#
# Build outputs, the Go build cache and scratch checkpoints all live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build/perfbench-work" -commit "$commit" "$@"
