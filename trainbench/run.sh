#!/usr/bin/env bash
# Builds the training benchmark from the source tree it sits in and runs
# it with the given flags, from the root of that tree:
#
#   bash trainbench/run.sh --workload pipe-f32-p8 --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build and module
# caches, the go command's config and telemetry, temp files and
# checkpoints. Nothing is fetched; the module has no dependencies outside
# this tree.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/trainbench" .) >&2
exec "$build/trainbench" "$@"
