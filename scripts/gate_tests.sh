#!/usr/bin/env bash
# Usage: gate_tests.sh 'NameA|NameB' PKG...
#
# Runs `go test -race -v -run PATTERN PKG...` and fails unless every
# alternative of the (flat, |-separated) pattern started at least one test,
# so renaming or deleting a test cannot silently skip a CI gate.
set -euo pipefail

pattern=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test -race -v -run "$pattern" "$@" | tee "$out"

status=0
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
  if ! grep -Eq "^=== RUN +[^ ]*${alt}" "$out"; then
    echo "gate_tests: -run alternative '${alt}' matched zero tests in: $*" >&2
    status=1
  fi
done
exit $status
