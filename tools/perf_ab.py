#!/usr/bin/env python3
"""Same-runner perfbench A/B: the one gate on host speed.

Usage: tools/perf_ab.py BASE_CHECKOUT HEAD_CHECKOUT

Runs `python3 perfbench/run.py --workload all --seed i --seconds 10`
in both checkouts for seeds 1-3, one pair of runs per seed, the side
that runs first alternating from pair to pair so a drift in the
machine's speed does not favour one side. Each checkout builds its own
perfbench tree. Fails (exit 1) when

  - any run reports `correct` false (a simulated output left its
    recorded reference),
  - HEAD failed more ops than BASE over all its runs, or
  - the median over the pairs of an end-to-end metric of HEAD's
    BENCHMARK.json is worse than BASE's median by more than the
    metric's `bound`, in its `better` direction, on any workload.

It prints a table of the per-side medians of every metric. Both runs
of a pair take the same machine, so this compares the two builds'
host speed; the BENCH documents of tf_bench record none.

Standard library only.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = (1, 2, 3)
SECONDS = 10


def run(checkout, seed):
    """The result object of one perfbench run (its last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(SECONDS)]
    print("[%s] %s" % (checkout, " ".join(cmd[1:])), file=sys.stderr,
          flush=True)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perf_ab: perfbench failed in %s (exit %d)" %
                 (checkout, proc.returncode))
    return json.loads(lines[-1])


def worse_by(base, head, better):
    """Relative change of head against base, signed so that > 0 is
    worse in the `better` direction."""
    if base == 0:
        return 0.0 if head == 0 else float("inf")
    change = (head - base) / abs(base)
    return -change if better == "higher" else change


def main():
    if len(sys.argv) != 3 or not all(
            os.path.isfile(os.path.join(p, "perfbench", "run.py"))
            for p in sys.argv[1:]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = {"base": sys.argv[1], "head": sys.argv[2]}
    with open(os.path.join(sides["head"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    results = {"base": [], "head": []}
    for i, seed in enumerate(SEEDS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            results[side].append(run(sides[side], seed))

    problems = []
    for side, runs in results.items():
        for seed, r in zip(SEEDS, runs):
            if not r["correct"]:
                problems.append("%s seed %d: correct is false" %
                                (side, seed))
    failed = {side: sum(r["failed"] for r in runs)
              for side, runs in results.items()}
    if failed["head"] > failed["base"]:
        problems.append("head failed %d ops, base %d" %
                        (failed["head"], failed["base"]))

    median = {side: {name: statistics.median(
                         r["metrics"][name]["value"] for r in runs)
                     for name in runs[0]["metrics"]}
              for side, runs in results.items()}
    units = {name: m["unit"]
             for name, m in results["head"][0]["metrics"].items()}
    gates = {"%s.%s" % (wl["name"], m["name"]): m
             for wl in spec["workloads"] for m in spec["end_to_end"]}

    print("%-34s %14s %14s %8s %7s  %s" %
          ("metric (median of %d)" % len(SEEDS), "base", "head",
           "change", "bound", "verdict"))
    for name in sorted(set(median["base"]) | set(median["head"]) |
                       set(gates)):
        base = median["base"].get(name)
        head = median["head"].get(name)
        gate = gates.get(name)
        if base is None or head is None:
            verdict = "missing from " + ("base" if base is None
                                         else "head")
            if gate:
                problems.append("%s: %s" % (name, verdict))
            print("%-34s %14s %14s %8s %7s  %s" %
                  (name, base, head, "", "", verdict))
            continue
        change = (head - base) / abs(base) if base else 0.0
        verdict, bound = "", ""
        if gate:
            bound = "%.0f%%" % (100 * gate["bound"])
            if worse_by(base, head, gate["better"]) > gate["bound"]:
                verdict = "WORSE"
                problems.append(
                    "%s: %.6g -> %.6g %s (%+.1f%%, %s is better, "
                    "bound %s)" % (name, base, head, units[name],
                                   100 * change, gate["better"], bound))
            else:
                verdict = "ok"
        print("%-34s %14.6g %14.6g %+7.1f%% %7s  %s" %
              (name, base, head, 100 * change, bound, verdict))
    print("failed ops: base %d, head %d" % (failed["base"],
                                            failed["head"]))

    if problems:
        print("%d problem(s):" % len(problems))
        for p in problems:
            print("  FAIL " + p)
        return 1
    print("perf A/B passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
