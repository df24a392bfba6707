#!/usr/bin/env bash
# Builds cmd/tomod and the benchmark from this checkout's source into
# .bench_build/, then runs the benchmark with the given arguments. Run it
# from the repository root. Every file the build and the benchmark write
# stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tomod" ]]; then
  echo "perfbench: $root holds no program source (go.mod, cmd/tomod); run from the repository root" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a detached sidecar process
# that can outlive this script.
printf 'off' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/tomod" ./cmd/tomod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
