#!/usr/bin/env python3
"""Reads `go test -bench ... -count N` output on standard input and prints,
for every benchmark and every metric it reports, the first quartile, the
median and the third quartile over the N runs. On a host whose speed drifts
a single run says little; the quartiles of ten say how little."""
import collections
import statistics
import sys

runs = collections.defaultdict(list)
for line in sys.stdin:
    fields = line.split()
    if not line.startswith("Benchmark") or len(fields) < 4:
        continue
    for value, unit in zip(fields[2::2], fields[3::2]):
        runs[fields[0], unit].append(float(value))

print(f'{"benchmark":58} {"metric":16} {"runs":>4} {"q1":>10} {"median":>10} {"q3":>10}')
for (name, unit), values in runs.items():
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{name:58} {unit:16} {len(values):4} {q1:10.4g} {median:10.4g} {q3:10.4g}")
