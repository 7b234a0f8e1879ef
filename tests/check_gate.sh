#!/bin/sh
# The regression gate must catch growth of a metric baselined at 0.
#
# Runs the smoke fault_soak scenario at the baselined seed, checks
# that bench/check_regression.py passes it, then raises
# p0.timedOut from 0 to 500 in a copy of the document and requires
# the gate to fail on that copy. A 0 baseline has no relative change,
# so a gate that only compares relative change lets such counts grow
# without limit.
#
# Usage: check_gate.sh <path-to-tf_bench>

bench="$1"
if [ -z "$bench" ] || [ ! -x "$bench" ]; then
    echo "usage: $0 <path-to-tf_bench>" >&2
    exit 2
fi

srcdir=$(dirname "$0")/..
gate="$srcdir/bench/check_regression.py"
baseline="$srcdir/bench/baseline.json"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
mkdir -p "$workdir/ok" "$workdir/bad"

"$bench" --smoke --seed 42 --scenario fault_soak --out "$workdir/ok" \
    > /dev/null || exit 1

if ! python3 "$gate" --baseline "$baseline" --results "$workdir/ok" \
        --scenario fault_soak > "$workdir/ok.log"; then
    echo "FAIL: gate rejects the unmodified fault_soak document" >&2
    cat "$workdir/ok.log" >&2
    exit 1
fi

python3 - "$workdir/ok/BENCH_fault_soak.json" \
    "$workdir/bad/BENCH_fault_soak.json" <<'PY' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["metrics"]["p0.timedOut"] == 0, doc["metrics"]["p0.timedOut"]
doc["metrics"]["p0.timedOut"] = 500
with open(sys.argv[2], "w") as f:
    json.dump(doc, f)
PY

if python3 "$gate" --baseline "$baseline" --results "$workdir/bad" \
        --scenario fault_soak > "$workdir/bad.log"; then
    echo "FAIL: gate passes p0.timedOut = 500 against a 0 baseline" >&2
    cat "$workdir/bad.log" >&2
    exit 1
fi
if ! grep -q "p0.timedOut" "$workdir/bad.log"; then
    echo "FAIL: gate failed, but not on p0.timedOut" >&2
    cat "$workdir/bad.log" >&2
    exit 1
fi
echo "gate OK: p0.timedOut = 500 fails against its 0 baseline"
