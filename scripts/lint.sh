#!/usr/bin/env bash
# lint.sh — the shared halint entry point used by CI and developers.
#
# Builds the halint vet tool and runs all six analysis passes over the
# tree twice: through `go vet`'s unitchecker protocol (which also covers
# _test.go files) and through halint's standalone mode, so both modes
# stay exercised. Both suppress findings grandfathered in
# halint.baseline; new findings still fail.
#
# Usage:
#   scripts/lint.sh              # lint the whole module
#   scripts/lint.sh ./internal/...  # lint a subset
set -euo pipefail

cd "$(dirname "$0")/.."

tool="${RUNNER_TEMP:-$(mktemp -d)}/halint"
go build -o "$tool" ./cmd/halint

# go vet does not forward custom flags to vet tools, so the baseline path
# travels via the environment (absolute, because vet runs per-package).
HALINT_BASELINE="$PWD/halint.baseline" go vet -vettool="$tool" "${@:-./...}"
# Standalone mode loads the packages itself (non-test files only).
"$tool" -baseline halint.baseline "${@:-./...}"
