#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh -workload compile -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write, the Go build cache included,
# stays under .bench_build/ in the repository.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod here; run it from the root of the falseshare repository" >&2
	exit 1
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# With telemetry on, the go command starts a detached helper process
# that can outlive the build; turn it off in the private config dir.
# Toolchains before Go 1.23 have neither telemetry nor this command.
go telemetry off >/dev/null 2>&1 || true
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
