#!/usr/bin/env bash
# Builds habench from the checkout this script sits in and runs it with
# the arguments given. Everything the build writes (binary, Go build
# cache) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/habench" ./cmd/habench)
cd "$root"
exec "$build/habench" "$@"
