#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is
# run from, then runs one workload:
#
#   bash campaignbench/run.sh --workload oracle-table3 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# scratch file stays under $CARGO_TARGET_DIR (default .bench_build) in
# that checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/campaignbench/go.mod" ]; then
	echo "campaignbench: run from the repository root (it needs go.mod, internal/ and campaignbench/)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/home"

# Keep the toolchain's caches, temp files and config inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod

# Rebuild only when a source the benchmark compiles from (or the
# toolchain) changed: relinking rewrites a 12 MB binary, and that much
# disk traffic before every run would disturb the disk-bound workload.
stamp=$(cd "$root" && { find go.mod campaignbench internal sfi \( -name '*.go' -o -name go.mod \) -type f | LC_ALL=C sort | xargs sha256sum; go version; } | sha256sum)
if [ ! -x "$out/campaignbench" ] || [ "$(cat "$out/campaignbench.stamp" 2>/dev/null)" != "$stamp" ]; then
	go -C "$root/campaignbench" build -o "$out/campaignbench" .
	echo "$stamp" >"$out/campaignbench.stamp"
fi
exec "$out/campaignbench" -workdir "$out" "$@"
