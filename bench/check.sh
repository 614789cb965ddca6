#!/bin/sh
# The benchmark's own gate: the root check.sh does not enter a nested
# module, so vet, race tests and formatting for bench/ run from here.
set -eux
cd "$(dirname "$0")"
go vet ./...
go test -race -timeout 15m ./...
test -z "$(gofmt -l .)"
