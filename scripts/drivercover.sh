#!/usr/bin/env bash
# Lists the library functions that none of the repository's drivers runs,
# and the library packages that no driver links at all.
#
#   bash scripts/drivercover.sh            # print both lists and their counts
#   bash scripts/drivercover.sh 42         # also fail if over 42 functions
#   bash scripts/drivercover.sh 42 2       # ... or over 2 unlinked packages
#
# The drivers are the workloads the reproduction publishes: `flipbit -quick
# all`, `flipbit all`, `flipbit -benchjson`, and the perfbench workloads
# camera, kvchurn and kvscan. Each runs once from a coverage build, their
# counters are merged, and every library function left at 0% is printed.
# A package no driver links has no counters in the merged profile, so its
# functions cannot show up at 0%: those packages are listed separately,
# from `go list ./...`. Exempt: examples/ (stand-alone programs, not
# library code), and methods named Name, N, Update or String (interface
# methods that no driver prints). perfbench is built with coverage but not
# edited; its own functions are dropped before reporting because `go tool
# cover` cannot resolve the nested module's sources.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ceiling="${1:-}"
pkg_ceiling="${2:-}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/cov" "$work/artifacts"

cd "$root"
go build -cover -coverpkg=./... -o "$work/flipbit" ./cmd/flipbit
(cd perfbench && go build -cover -coverpkg=github.com/flipbit-sim/flipbit/... -o "$work/perfbench" .)

export GOCOVERDIR="$work/cov"
"$work/flipbit" -quick all > /dev/null
"$work/flipbit" all > /dev/null
"$work/flipbit" -benchjson "$work/artifacts/BENCH_writepath.json" > /dev/null
for w in camera kvchurn kvscan; do
	"$work/perfbench" --workload "$w" --seed 1 --seconds 1 --trace 1 > /dev/null
done
unset GOCOVERDIR

go tool covdata percent -i="$work/cov" | grep -v '/perfbench' || true
go tool covdata textfmt -i="$work/cov" -o "$work/merged.out"
grep -v '^github.com/flipbit-sim/flipbit/perfbench/' "$work/merged.out" > "$work/lib.out"
go tool cover -func="$work/lib.out" > "$work/func.txt"

awk '$NF == "0.0%" && $2 !~ /^(Name|N|Update|String)$/ &&
	$1 !~ /^github.com\/flipbit-sim\/flipbit\/examples\//' "$work/func.txt" |
	sed 's|^github.com/flipbit-sim/flipbit/||' > "$work/zero.txt"
cat "$work/zero.txt"
awk '/^total:/ { print "driver statement coverage: " $NF }' "$work/func.txt"
count=$(wc -l < "$work/zero.txt")
echo "driverless functions: $count"

go list ./... | grep -v '^github.com/flipbit-sim/flipbit/examples/' | sort > "$work/pkgs.txt"
awk -F: 'NR > 1 { sub(/\/[^\/]*$/, "", $1); print $1 }' "$work/lib.out" | sort -u > "$work/linked.txt"
comm -23 "$work/pkgs.txt" "$work/linked.txt" | tee "$work/unlinked.txt"
unlinked=$(wc -l < "$work/unlinked.txt")
echo "unlinked library packages: $unlinked"

fail=0
if [ -n "$ceiling" ] && [ "$count" -gt "$ceiling" ]; then
	echo "driverless functions rose to $count, above the ceiling of $ceiling:" \
		"give each new function a driver or delete it" >&2
	fail=1
fi
if [ -n "$pkg_ceiling" ] && [ "$unlinked" -gt "$pkg_ceiling" ]; then
	echo "unlinked library packages rose to $unlinked, above the ceiling of $pkg_ceiling:" \
		"link each new package from a driver or delete it" >&2
	fail=1
fi
exit "$fail"
