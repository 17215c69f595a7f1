#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it.
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, results under benchmark/out/.
#
#   bash benchmark/run.sh --workload serve-rate --seed 3 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# The benchmark is its own module that replaces kaminotx with the checkout
# around it, so this fails where the repository is missing.
go build -C "$here" -o "$build/kaminobm" .
cd "$root"
exec "$build/kaminobm" -out "$here/out" "$@"
