#!/usr/bin/env python3
"""Perf-regression gate over tf_bench JSON results.

Compares every metric in BENCH_<scenario>.json files against the
checked-in baseline and fails (exit 1) when a metric moved more than
the threshold in its bad direction: below baseline for higher-is-
better metrics (bandwidth, throughput, hit ratio), above baseline for
lower-is-better ones (latency quantiles, replay/stall/drop counts).
A metric baselined at 0 has no relative change, so it fails on any
value on its bad side of 0 (a timeout count baselined at 0 must stay
there).

The simulator is deterministic under a fixed seed, so any drift is a
code change, not noise; the 15% default threshold only keeps
intentional model retunes from needing a baseline refresh for every
small shift.

Every baselined metric carries an explicit direction; an entry
without one is a hard failure (never a silent higher-is-better
guess), and --update refuses to classify a metric that matches no
polarity hint. The baseline's optional "ceilings" section adds
absolute lower-is-better budgets (e.g. the sub-2 us
trace.attr.total.p99Ns gate on proto_datapath) that hold no matter
where the relative baseline drifts; --update carries them forward
untouched.

Every baselined scenario must be present in the results with a
matching config; an absent result file or a smoke/full mismatch is a
hard failure, not a skip, so a CI leg that silently stops running a
scenario cannot keep passing. Legs that only run a subset pass
--scenario (repeatable) to name the scenarios they gate.

Usage:
  check_regression.py --baseline bench/baseline.json --results DIR
  check_regression.py --baseline bench/baseline.json --results DIR \
      --scenario cache_vs_migration   # gate only this scenario
  check_regression.py --baseline bench/baseline.json --results DIR \
      --update    # regenerate the baseline from the results

Standard library only (CI runs it on a bare runner).
"""

import argparse
import glob
import json
import os
import sys

# Polarity hints. A metric name must match exactly one of the two
# lists; --update refuses to baseline a metric it cannot classify and
# check() hard-fails a baseline entry without an explicit direction.
# The quantile suffixes (Us/Ns cover latP99Us, rttP95Ns and every
# trace.attr.<stage>.{p50,p95,p99}Ns attribution metric) are the ones
# the p99 gates ride on: an unhinted latency metric silently gated in
# the higher-is-better direction would wave regressions through.
LOWER_IS_BETTER_HINTS = (
    "Us", "Ns", "latency", "replay", "stall", "drop", "teardown",
    "HighWater", "Compactions", "Cancelled", "recovery", "error",
    "timedOut", "violations", "worstValue", "occupancy", "failed",
)

HIGHER_IS_BETTER_HINTS = (
    "GiBs", "Bps", "hit", "ops", "Ops", "accesses", "txns",
    "windows", "eventsTotal", "fills", "evictions", "writebacks",
    "Pages", "Alive", "faultsFired", "VsLocal", "count", "copy",
    "Msgs",
)


def infer_direction(name):
    """Metric polarity from its name, or None when no hint matches
    (or both do) -- callers must treat None as an error, never guess.
    """
    lower = any(h in name for h in LOWER_IS_BETTER_HINTS)
    higher = any(h in name for h in HIGHER_IS_BETTER_HINTS)
    if lower == higher:
        return None
    return "lower" if lower else "higher"


def load_results(results_dir):
    docs = {}
    pattern = os.path.join(results_dir, "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            doc = json.load(f)
        # v2 == v1 plus an optional `timeline` section; the metrics
        # this gate reads are unchanged, so both schemas are accepted
        # (old baselines keep working against new results).
        if doc.get("schema") not in ("tf-bench-v1", "tf-bench-v2"):
            sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
        docs[doc["scenario"]] = doc
    if not docs:
        sys.exit(f"no BENCH_*.json found in {results_dir}")
    return docs


def update_baseline(baseline_path, docs, threshold):
    # Absolute ceilings are curated by hand, not measured: carry them
    # across refreshes so --update cannot silently drop a gate.
    ceilings = {}
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            ceilings = json.load(f).get("ceilings", {})

    scenarios = {}
    unclassified = []
    for name, doc in sorted(docs.items()):
        metrics = {}
        for metric, value in sorted(doc["metrics"].items()):
            direction = infer_direction(metric)
            if direction is None:
                unclassified.append(f"{name}.{metric}")
                continue
            metrics[metric] = {"value": value, "direction": direction}
        scenarios[name] = {
            "config": doc["meta"]["config"],
            "seed": doc["meta"]["seed"],
            "metrics": metrics,
        }
    if unclassified:
        sys.exit("refusing to baseline metrics with no (or an "
                 "ambiguous) polarity hint -- extend the hint lists "
                 "in check_regression.py:\n  " +
                 "\n  ".join(unclassified))
    baseline = {
        "schema": "tf-bench-baseline-v1",
        "threshold": threshold,
        "scenarios": scenarios,
    }
    if ceilings:
        baseline["ceilings"] = ceilings
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    total = sum(len(s["metrics"]) for s in scenarios.values())
    print(f"baseline refreshed: {len(scenarios)} scenarios, "
          f"{total} metrics -> {baseline_path}")


def check(baseline_path, docs, threshold_override, only):
    with open(baseline_path) as f:
        baseline = json.load(f)
    if baseline.get("schema") != "tf-bench-baseline-v1":
        sys.exit(f"{baseline_path}: unexpected baseline schema")
    threshold = (threshold_override
                 if threshold_override is not None
                 else baseline.get("threshold", 0.15))

    if only:
        unknown = sorted(set(only) - set(baseline["scenarios"]))
        if unknown:
            sys.exit(f"--scenario {', '.join(unknown)}: "
                     f"not in {baseline_path}")

    failures = []
    checked = 0
    for scenario, base in sorted(baseline["scenarios"].items()):
        if only and scenario not in only:
            continue
        doc = docs.get(scenario)
        if doc is None:
            failures.append(
                f"{scenario}: baselined but no result file "
                f"(scenario dropped from the run?)")
            continue
        if doc["meta"]["config"] != base.get("config", "smoke"):
            failures.append(
                f"{scenario}: config {doc['meta']['config']} != "
                f"baseline {base.get('config')} (rerun with the "
                f"baselined config or refresh with --update)")
            continue
        for metric, entry in sorted(base["metrics"].items()):
            ref = entry["value"]
            # No guessing: a gated metric whose baseline entry lacks
            # an explicit polarity would otherwise be compared in an
            # arbitrary direction and could silently pass a regression.
            direction = entry.get("direction")
            if direction not in ("higher", "lower"):
                failures.append(
                    f"{scenario}.{metric}: baseline entry has no "
                    f"explicit direction (refresh with --update, "
                    f"extending the hint lists if needed)")
                continue
            if metric not in doc["metrics"]:
                failures.append(
                    f"{scenario}.{metric}: missing from results")
                continue
            checked += 1
            val = doc["metrics"][metric]
            if ref == 0:
                # No relative change exists against 0: any move to
                # the bad side fails.
                bad = val > 0 if direction == "lower" else val < 0
                if bad:
                    failures.append(
                        f"{scenario}.{metric}: {val:.4g} vs baseline 0 "
                        f"({direction} is better)")
                continue
            change = (val - ref) / abs(ref)
            bad = (change < -threshold if direction == "higher"
                   else change > threshold)
            if bad:
                failures.append(
                    f"{scenario}.{metric}: {val:.4g} vs baseline "
                    f"{ref:.4g} ({change:+.1%}, {direction} is "
                    f"better, threshold {threshold:.0%})")

    # Absolute ceilings: latency budgets that must hold regardless of
    # how the baseline drifts (a 15% relative gate on an already-slow
    # baseline still passes; the ceiling does not). Lower-is-better by
    # construction.
    for scenario, caps in sorted(baseline.get("ceilings", {}).items()):
        if only and scenario not in only:
            continue
        doc = docs.get(scenario)
        if doc is None:
            continue  # absence already failed above if baselined
        for metric, cap in sorted(caps.items()):
            if metric not in doc["metrics"]:
                failures.append(
                    f"{scenario}.{metric}: ceiling {cap:g} but metric "
                    f"missing from results")
                continue
            checked += 1
            val = doc["metrics"][metric]
            if val > cap:
                failures.append(
                    f"{scenario}.{metric}: {val:.4g} exceeds absolute "
                    f"ceiling {cap:g}")
    if not only:
        for name in sorted(set(docs) - set(baseline["scenarios"])):
            print(f"  [new] {name}: not in baseline (run --update)")

    print(f"checked {checked} metrics against {baseline_path} "
          f"(threshold {threshold:.0%})")
    if failures:
        print(f"{len(failures)} regression(s):")
        for f_ in failures:
            print(f"  FAIL {f_}")
        return 1
    print("no regressions")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--results", required=True,
                    help="directory holding BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=None,
                    help="override the baseline's threshold")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the results")
    ap.add_argument("--scenario", action="append", default=None,
                    help="gate only this baselined scenario "
                         "(repeatable); default: all of them")
    args = ap.parse_args()

    docs = load_results(args.results)
    if args.update:
        if args.scenario:
            sys.exit("--update regenerates the whole baseline; "
                     "it does not combine with --scenario")
        update_baseline(args.baseline, docs,
                        args.threshold if args.threshold is not None
                        else 0.15)
        return 0
    return check(args.baseline, docs, args.threshold, args.scenario)


if __name__ == "__main__":
    sys.exit(main())
