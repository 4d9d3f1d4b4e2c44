#!/bin/sh
# lint.sh — one command for the full local lint ladder:
#
#	gofmt      formatting (fails on any unformatted file)
#	go vet     stock vet analyzers
#	staticcheck   (skipped with a warning if not installed)
#	atlint     the project's domain-specific analyzers (DESIGN.md §10, §15):
#	           detrange, nondet, counterwrite, eventname, plus the
#	           flow-sensitive v2 suite — hotalloc (//atlint:hotpath
#	           functions stay heap-allocation-free, //atlint:inline
#	           functions stay under the inliner budget, checked against
#	           real `go build -gcflags=-m=2` diagnostics when the
#	           toolchain matches the pinned go1.24), resetdiscipline
#	           (Reset/Renew/Reconfigure must reinitialize every mutable field or
#	           carry //atlint:noreset <why>), and lockguard
#	           (//atlint:guardedby mu fields only touched with the
#	           mutex held on every CFG path).
#	           detrange's deterministic-package list includes
#	           internal/telemetry: the timeline tracer and exporter must
#	           stay byte-identical across runs (DESIGN.md §11), and nondet
#	           keeps it (like all simulator packages) wall-clock-free.
#
# Usage:
#
#	scripts/lint.sh              # lint ./...
#	scripts/lint.sh ./internal/core/...
#
# Exits non-zero on the first failing stage. CI runs the same stages
# (plus govulncheck) in .github/workflows/ci.yml; keep the two in sync.
set -eu

cd "$(dirname "$0")/.."
patterns="${*:-./...}"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet"
# shellcheck disable=SC2086 # patterns are intentionally word-split
go vet $patterns

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
	# shellcheck disable=SC2086
	staticcheck $patterns
else
	echo "staticcheck not installed; skipping (CI runs it pinned)"
fi

echo "== atlint"
# shellcheck disable=SC2086
go run ./cmd/atlint $patterns

echo "lint OK"
