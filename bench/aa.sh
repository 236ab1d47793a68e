#!/usr/bin/env bash
# A/A check: does the benchmark repeat within its own bounds on one
# checkout?
#
# It makes SETS sets of runs (default 2). A set is RUNS runs (default 10) of
# every workload, each run with another seed, the workloads interleaved so
# that drift of the host lands on all of them alike. Seeds never repeat
# across sets, so the last set is also the "second seed" check. For every
# workload x end-to-end metric cell it prints each set's median and
# quartiles, the spread (distance between the quartiles as a share of the
# median) and the largest gap between set medians, counted in the direction
# the metric gets worse, and compares both with the bound BENCHMARK.json
# gives the metric. This is the rule the benchmark is accepted by, so a
# cell that fails here fails there.
#
# Exit status: 0 when every spread (except setup_s, whose spread is not
# gated) and every gap is within its bound, 1 otherwise. A spread above a
# third of its bound is marked "wide": lengthen or restructure the workload.
#
#   bench/aa.sh                 # 2 sets x 10 seeds x 4 workloads, ~50 min
#   SETS=5 RUNS=5 bench/aa.sh   # more sets of fewer runs
#   SECONDS_PER_RUN=5 RUNS=4 bench/aa.sh   # quick look, not a verdict
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
sets="${SETS:-2}"
runs="${RUNS:-10}"
out="$root/.bench_build/aa"
mkdir -p "$out"
results="$out/results.jsonl"
: >"$results"

read -r -a command < <(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for ((s = 0; s < sets; s++)); do
	for ((r = 0; r < runs; r++)); do
		seed=$((1000 * s + r + 1))
		for w in "${workloads[@]}"; do
			echo "set $s run $r: $w seed $seed" >&2
			line="$("${command[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
			printf '{"set": %d, "workload": "%s", "seed": %d, "result": %s}\n' "$s" "$w" "$seed" "$line" >>"$results"
		done
	done
done

python3 - "$results" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
sets = sorted({r["set"] for r in rows})
bad = False

for r in rows:
    if not r["result"]["correct"] or r["result"]["failed"]:
        print(f'FAILED OPS: set {r["set"]} {r["workload"]} seed {r["seed"]}: {r["result"]["failed"]} of {r["result"]["attempted"]}')
        bad = True

def worse(first, second, better):
    """Share of first by which second is worse."""
    return (first - second) / first if better == "higher" else (second - first) / first

print(f'{"workload":14} {"metric":14} {"set":>4} {"median":>12} {"q1":>12} {"q3":>12} {"spread":>8} {"bound":>6}')
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        medians = []
        for s in sets:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows if r["set"] == s and r["workload"] == w["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            medians.append(med)
            spread = (q3 - q1) / med
            verdict = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                verdict, bad = "SPREAD>BOUND", True
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                verdict = "wide"
            print(f'{w["name"]:14} {m["name"]:14} {s:>4} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {m["bound"]:6.2f} {verdict}')
        # Any set may come first: take the largest worsening over all ordered pairs.
        gap = max([0.0] + [worse(a, b, m["better"]) for i, a in enumerate(medians) for j, b in enumerate(medians) if i != j])
        verdict = ""
        if gap > m["bound"]:
            verdict, bad = "GAP>BOUND", True
        print(f'{w["name"]:14} {m["name"]:14} {"gap":>4} {gap:12.4f} {"":12} {"":12} {"":8} {m["bound"]:6.2f} {verdict}')

print("A/A: " + ("FAILED" if bad else "ok"))
sys.exit(1 if bad else 0)
PY
