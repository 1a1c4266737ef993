#!/usr/bin/env bash
# Builds the harness and cmd/jsqd from this checkout's source and runs the
# harness. Everything written (Go build cache included) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bin/" . jsonpark/cmd/jsqd) >&2
exec "$out/bin/benchmark" -jsqd "$out/bin/jsqd" -scratch "$out/tmp" "$@"
