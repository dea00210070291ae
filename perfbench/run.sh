#!/usr/bin/env bash
# Builds ehserved and the benchmark from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload serve-anytime --seed 1 --seconds 15 --trace 0
#
# Binaries, the Go build cache, the daemon's log and trace output all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$out/bin/ehserved" ./cmd/ehserved)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
