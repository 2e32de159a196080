#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds
# mtlsbench from this directory and runs it from the repository root.
# Everything the Go toolchain writes — build cache, temp files, its
# telemetry counters — is pointed under <root>/.bench_build so a run
# touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bin/mtlsbench" .)
cd "$root"
exec "$out/bin/mtlsbench" "$@"
