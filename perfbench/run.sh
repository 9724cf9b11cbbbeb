#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Invoke from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root: the Go build cache, the benchmark binary, the
# prefilled models (keyed by a hash of the sources that build them) and
# the per-run durability directories.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home"
# The go command's caches, module path and telemetry all stay inside
# the checkout; nothing is downloaded.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/perfbench" .)

# The model cache key covers every source that decides what a prefilled
# model looks like, so a checkout never reuses another tree's models.
key=$(cat go.mod perfbench/model.go perfbench/workload.go $(find internal -name '*.go' | LC_ALL=C sort) | sha256sum | cut -c1-16)

# The revision printed with every run: the git commit when there is one,
# else the source hash.
rev=$(git rev-parse --short HEAD 2>/dev/null || echo "src-$key")

exec "$build/perfbench" -dir "$build/runs" -cache "$build/models-$key" -rev "$rev" "$@"
