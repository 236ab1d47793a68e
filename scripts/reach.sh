#!/usr/bin/env bash
# Usage: bash scripts/reach.sh   (from the repository root)
#
# Lists the internal/ functions and methods that neither a binary under cmd/
# nor the benchmark under bench/ reaches, as the linker sees it, and holds
# the list to the allowlist below, which gives each one the reason it stays.
# It fails when a function is unreached and not allowlisted (delete it, or
# allowlist it with its reason), and when an allowlisted function is deleted
# or gains a caller (remove its line): the list only shrinks. The name-based
# TestEveryExportHasACaller cannot see a method that nothing runs while
# another type's method of the same name has callers; the linker can.
#
# Each program is built with inlining off (with it on, one-line accessors
# are inlined away and read as unreached) and -dumpdep, which prints every
# edge of the graph the linker's dead-code pass walked. The test-support
# packages internal/faultnet and internal/cli/clitest are skipped: only tests
# import them. Declarations come from `git ls-files`, so stage new files
# first. About 10 s.
set -euo pipefail

# name<TAB>reason
allow=$(
	cat <<'EOF'
expstore.NewSource	the local experience source: the golden -source cells and the determinism matrix train over it until the trainer samples local rows through it
expstore.Source.Add	the local experience source (see NewSource)
expstore.Source.Flush	the local experience source (see NewSource)
expstore.Source.Len	the local experience source (see NewSource)
expstore.Source.Plan	the local experience source (see NewSource)
expstore.Source.SampleBatch	the local experience source (see NewSource)
expstore.Ring.SetTracer	test oracle: the huge-page gather benchmark counts TLB misses through it
expstore.Store.SetTracer	test oracle: the store's locality trace test records served addresses through it
policysync.Server.ServeHTTP	interface: called through http.Handler
profiler.Profile.EventCount	test oracle: tests count profiler events through it
tensor.ApproxEqual	test oracle: the matrix comparison the tests of several packages share
tensor.FromSlice	test oracle: builds the tests' literal matrices
tensor.Matrix.At	test oracle: element reads in tests
tensor.Matrix.Clone	test oracle: tests keep a copy to compare against
tensor.Matrix.RandNormal	test oracle: fills the tests' random operands
tensor.Matrix.Set	test oracle: element writes in tests
tensor.SliceCols	test oracle: the column range BackwardInputCols is held to
telemetry.ScanRunLog	test oracle: the torn-tail-tolerant reader the telemetry, cli and root tests read -runlog output with (internal/cli's own tests cannot import clitest)
EOF
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

build() { # dir name: the program's dependency graph, or the build error
	if ! (cd "$1" && go build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null .) 2>"$out/dep-$2"; then
		cat "$out/dep-$2" >&2
		exit 1
	fi
}
for d in cmd/*/; do
	build "$d" "$(basename "$d")"
done
build bench bench

# Drop type arguments and write (*T).M as T.M, the form declarations take.
norm() { sed -E 's/\[[^]]*\]//g; s/\.\(\*([A-Za-z0-9_]+)\)\./.\1./'; }
cat "$out"/dep-* | tr ' ' '\n' | grep '^marlperf/internal/' | norm |
	sed 's#^marlperf/internal/##' | sort -u >"$out/reached"

for f in $(git ls-files 'internal/*.go' | grep -v '_test\.go$' | grep -Ev '^internal/(faultnet|cli/clitest)/'); do
	pkg=$(dirname "${f#internal/}")
	sed -nE 's/^func \([A-Za-z0-9_]* ?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\1.\3/p; s/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
		grep -vx init | sed "s#^#$pkg.#" || true
done | sort -u >"$out/declared"

comm -23 "$out/declared" "$out/reached" >"$out/unreached"
printf '%s\n' "$allow" | cut -f1 | sort >"$out/allowed"
if [ "$(sort -u "$out/allowed" | wc -l)" -ne "$(wc -l <"$out/allowed")" ]; then
	echo "reach: the allowlist names a function twice" >&2
	exit 1
fi

status=0
while read -r fn; do
	echo "reach: internal/$fn is reached by no binary and no benchmark: delete it, or allowlist it with the reason it stays" >&2
	status=1
done < <(comm -23 "$out/unreached" "$out/allowed")
while read -r fn; do
	if grep -qx "$fn" "$out/declared"; then
		echo "reach: allowlisted internal/$fn has a caller now: remove its line" >&2
	else
		echo "reach: allowlisted internal/$fn is no longer declared: remove its line" >&2
	fi
	status=1
done < <(comm -13 "$out/unreached" "$out/allowed")
echo "reach: $(wc -l <"$out/unreached") unreached internal/ functions, $(wc -l <"$out/allowed") allowlisted"
exit $status
