#!/bin/sh
# tf_bench command-line validation: every malformed or out-of-range
# number must be rejected with exit 2 (usage), never run as some
# other value. Each bad value is passed together with --list, so a
# binary that accepted it would list the scenarios and exit 0 without
# starting any scenario or worker thread.
#
# Usage: check_cli.sh <path-to-tf_bench>

bench="$1"
if [ -z "$bench" ] || [ ! -x "$bench" ]; then
    echo "usage: $0 <path-to-tf_bench>" >&2
    exit 2
fi

fail=0
expect() {
    want="$1"
    shift
    "$bench" "$@" --list > /dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: tf_bench $* --list exited $got, want $want" >&2
        fail=1
    fi
}

# Well-formed values are still accepted.
expect 0 --seed 7 --jobs 4 --timeline-window 1.5
expect 0 --seed 0x2a --jobs 1024 --timeline-window 1e9
expect 0 --seed 18446744073709551615

for v in abc -5 +5 "" " 5" "5 " 3x 1.5 18446744073709551616; do
    expect 2 --seed "$v"
done
for v in 3x -1 0 "" " 2" 1025 4294967297 0x; do
    expect 2 --jobs "$v"
done
for v in 1x "" abc nan inf 0 1e-4 2e9 " 1"; do
    expect 2 --timeline-window "$v"
done

exit $fail
