#!/usr/bin/env bash
# lint.sh — the shared halint entry point used by CI and developers.
#
# Builds halint and runs its six analysis passes once over the named
# packages, test files included. Any finding fails.
#
# Usage:
#   scripts/lint.sh              # lint the whole module
#   scripts/lint.sh ./internal/...  # lint a subset
set -euo pipefail

cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/halint" ./cmd/halint
"$dir/halint" "${@:-./...}"
