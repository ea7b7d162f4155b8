#!/usr/bin/env bash
# Builds the benchmark and the aedd daemon from the source of the
# checkout it is run in, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fabric-cold --seed 1 --seconds 20 --trace 0
#
# Build caches and binaries go to .bench_build/ under the checkout, so
# nothing is written outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$build/bin"

go build -C perfbench -o "$build/bin/perfbench" .
go build -C perfbench -o "$build/bin/calib" ./calib
go build -o "$build/bin/aedd" ./cmd/aedd

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
mkdir -p "$build/spans"
exec "$build/bin/perfbench" --aedd "$build/bin/aedd" --calib "$build/bin/calib" --commit "$commit" --spans-dir "$build/spans" "$@"
