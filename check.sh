#!/bin/sh
# Tier-1 verification gate. Everything here must pass before a change
# lands; CI and the ROADMAP "Tier-1 verify" line both point at this
# script. Runs offline with nothing but the Go toolchain.
set -eux

cd "$(dirname "$0")"

# Tier-1 regenerates nothing tracked: the last line asserts artifacts/
# is in the git state found here (both sides are empty outside a git
# checkout, e.g. an exported tarball, which skips the check).
artifacts_before=$(git status --porcelain -- artifacts 2>/dev/null || true)

go build ./...
# The portable half of the kernel layer (generic micro-kernel, no narrow
# int kernel, the tap kernel's loop alone, the CPUID probe's stand-in)
# never builds on an amd64 box otherwise.
GOARCH=arm64 go build ./internal/tensor/ ./internal/accel/ ./internal/quant/
go vet ./...
# The default tag set skips files gated on `race` (race_enabled_test.go
# at the repo root); vet them under that tag too so both halves of the
# build matrix stay analyzed.
go vet -tags race ./...
# The benchmark is a nested module `go ... ./...` never enters, yet it
# compiles against this tree (ptq.Collect/Quantize/Method/SiteStats,
# quant.Refine, serve.NewRegistry, Registry.Entries/Get/Warming, ...): a
# signature change here must not pass tier-1 and break it. Offline — its
# only requirement is `replace quq => ../`. -o /dev/null because a bare
# build would drop the binary into bench/.
go build -C bench -o /dev/null ./...
go vet -C bench ./...

# quqvet: the repo's own static-analysis pass (integer-only datapath,
# exact power-of-two scales, deterministic artifacts, audited panics,
# no dropped errors on io paths, lock/context/goroutine/atomic/metric
# concurrency invariants). See README.md "Verification". The analyzer's
# own sources are part of ./... (only its testdata fixtures are exempt).
go run ./cmd/quq-vet ./...

# The machine-readable report must be deterministic: two runs over the
# same tree are byte-identical.
go run ./cmd/quq-vet -json ./... > /tmp/quqvet-report-1.json
go run ./cmd/quq-vet -json ./... > /tmp/quqvet-report-2.json
diff /tmp/quqvet-report-1.json /tmp/quqvet-report-2.json
rm -f /tmp/quqvet-report-1.json /tmp/quqvet-report-2.json

# Plain pass first (≈20 s), then under the race detector (≈2.5 min).
# The detector's slowdown changes which side of a timing race a test
# lands on, so a test that flakes only without it — as a cancelled
# registry Get racing a fast build once did — would otherwise never run
# the way `go test ./...` runs it.
go test -count=1 ./...
# Stacked ≡ per-image again at three GOMAXPROCS values: the chunk rule
# follows it (workers <= 0, the batcher's default pool), so one value
# runs one family of chunk shapes. The parallel snapshot load sizes its
# worker pool the same way, so its serial-loop oracle and its
# model-sharing oracle run here too.
go test -count=1 -cpu 1,2,4 -run 'Stacked|ForwardBatchMatchesSerial|BatcherChunk|BatcherPanicFails|LoadMatchesSerialLoad|LoadSharesIdenticalFamilyModels' . ./internal/vit/ ./internal/ptq/ ./internal/serve/ ./internal/snapstore/
go test -race ./...

# Short fuzz smoke of the property-based targets. `go test -fuzz`
# takes exactly one package per invocation. Minimization is off: the
# engine minimizes every coverage-expanding input (60 s budget each),
# which held both workers from about the 3 s mark to the deadline, so a
# 5 s run executed the target for 3 s at best and for well under one on
# a bad draw. A crasher is still reported and written, at full length.
fuzz() { go test -fuzz="$1" -fuzztime=5s -fuzzminimizetime=0 -run='^$' "$2"; }
fuzz FuzzPRA ./internal/quant/
fuzz FuzzQuantizeSlice ./internal/quant/
fuzz FuzzQUBRoundtrip ./internal/qub/
fuzz FuzzGEMMEquivalence ./internal/tensor/
fuzz FuzzIntGEMMEquivalence ./internal/tensor/
fuzz FuzzSnapshotDecode ./internal/snapstore/
# The checkpoint parser behind the snapshot digest, which
# FuzzSnapshotDecode's mutations never get past.
fuzz FuzzCheckpointLoad ./internal/vit/
# The bit-for-bit matcher a warm restart shares a decoded model on.
fuzz FuzzCheckpointMatches ./internal/vit/
fuzz FuzzSFUSliceKernels ./internal/mathx/
# U_b ≡ the QUQ kernel on its uniform special case, bit for bit.
fuzz FuzzUniform ./internal/quant/
# The baselines' quantizer records: decode, re-marshal, Apply on edges.
fuzz FuzzQuantizerRecord ./internal/baselines/
# The worker's classify decode and the front's key peek against the
# encoding/json decodes they replace: same errors, same bits.
fuzz FuzzClassifyRequest ./internal/serve/
fuzz FuzzProxySelection ./internal/shard/

# quq-serve smoke: boot the inference service on an ephemeral port and
# drive one quantize + classify round trip through the real HTTP stack.
go run ./cmd/quq-serve -smoke

# quq-shard smoke: 3 in-process quq-serve shards behind the
# consistent-hash front-end — multi-key routing, one calibration per
# key fleet-wide (asserted via merged /metrics), failover + ejection.
go run ./cmd/quq-shard -smoke

# Chaos gate: replay the seeded fault scripts (connection resets, 429
# storms, failed calibrations, black-holed probes, drains under panic,
# replica divergence/failover, elastic join/drain/leave membership,
# crash-restart with snapshot warm-load, on-disk snapshot corruption)
# against an in-process fleet, twice; all failure-domain invariants —
# including calibrate-at-most-R, byte-identical replicas, zero-rebuild
# warm restarts, and anti-entropy convergence — must hold and the two
# invariant reports must be byte-identical.
go run ./cmd/quq-shard -chaos

# Doc gate: ARCHITECTURE.md's package inventory must cover every
# package in the module (quqvet's docmissing check covers the inverse:
# every package documents itself in source).
for pkg in $(go list ./...); do
  grep -Fq -- "$pkg" ARCHITECTURE.md || {
    echo "ARCHITECTURE.md: missing package $pkg" >&2
    exit 1
  }
done

# Tuning-guide gate, both ways: every CLI flag of both serving binaries
# must be documented in docs/TUNING.md (as `-flagname`), and every
# `-flagname` heading a row of one of its tables must still be a flag of
# one of them — the operator's guide can neither drift behind the code
# nor keep a removed flag.
for main in cmd/quq-serve/main.go cmd/quq-shard/main.go; do
  for f in $(grep -o 'flag\.[A-Za-z0-9]*("[a-z-]*"' "$main" | sed 's/.*("\([a-z-]*\)".*/\1/'); do
    grep -Fq -- "\`-$f\`" docs/TUNING.md || {
      echo "docs/TUNING.md: missing flag -$f from $main" >&2
      exit 1
    }
  done
done
for f in $(sed -n 's/^| `-\([a-z-]*\)` |.*/\1/p' docs/TUNING.md | sort -u); do
  grep -q "flag\.[A-Za-z0-9]*(\"$f\"" cmd/quq-serve/main.go cmd/quq-shard/main.go || {
    echo "docs/TUNING.md: row for -$f, which neither binary has" >&2
    exit 1
  }
done

# Printed through the inherited descriptor: opening /dev/stderr by path
# would truncate a log file stderr is redirected to.
unformatted=$(gofmt -l .)
echo "$unformatted" >&2
test -z "$unformatted"

test "$(git status --porcelain -- artifacts 2>/dev/null || true)" = "$artifacts_before"
