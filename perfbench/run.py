#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, runs a workload,
checks its simulated outputs, and prints every metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload memcached_etc --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload
    python3 perfbench/run.py --self-check         # determinism checks
    python3 perfbench/run.py --workload W --seed N --record

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes the spans
to .bench_build/perfbench/trace_<workload>_seed<N>.json. See
perfbench/README.md for what every metric means.

--seed N runs input set N mod 32. reference.json records the
simulated outputs of all 32 sets of every workload, so every run is
checked exactly; a set with no recorded reference fails the run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(HERE, "configs", "fabric_rpc.json")
WORKLOADS = ["memcached_etc", "stream_triad", "rack_replay", "fabric_rpc"]
# Input sets with a recorded reference; --seed N selects set N mod this.
INPUT_SETS = 32
# A run that has not finished by then is reported as a failure.
RUN_TIMEOUT_S = 170
# Host metrics are taken with glibc's malloc mmap and trim thresholds
# pinned at 1 GiB, so freed memory stays in the heap. Under the
# adaptive default, fabric_rpc's set-up takes 10 or 28 ms depending on
# the input set, which no bound on a median over seeds can absorb;
# allocator-threshold effects are therefore out of scope.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=1073741824:"
                   "glibc.malloc.trim_threshold=1073741824")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not all(os.path.exists(os.path.join(BUILD, f))
               for f in ("CMakeCache.txt", "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log("perfbench: cannot run %s: %s" % (cmd[0], err))
            return False
        if proc.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_binary(workload, seed, seconds, trace):
    trace_out = os.path.join(
        BUILD, "trace_%s_seed%d.json" % (workload, seed))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spec", SPEC, "--trace-out", trace_out]
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def simulated(result):
    """The outputs a seed fixes exactly."""
    return {
        "attempted": result["attempted"] // result["reps"],
        "events": result["events"],
        "sim_ticks": result["sim_ticks"],
        "model": result["model"],
    }


def reference_diffs(result, reference):
    """Each value differing from the recorded reference, as text."""
    want = reference.get(result["workload"], {}).get(str(result["seed"]))
    if want is None:
        return ["no reference recorded for input set %d" % result["seed"]]
    got = simulated(result)
    diffs = []
    for key in ("attempted", "events", "sim_ticks"):
        if got[key] != want[key]:
            diffs.append("%s: %r != reference %r" % (key, got[key], want[key]))
    for key in sorted(set(got["model"]) | set(want["model"])):
        a, b = got["model"].get(key), want["model"].get(key)
        if a != b:
            diffs.append("%s: %r != reference %r" % (key, a, b))
    return diffs


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this
    mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def reported_metrics(result, trace):
    """The declared metrics with their units. Every end-to-end value
    must be there; a per-layer value the binary did not compute (its
    layer does not run on the workload) reads 0."""
    values = result["metrics"]
    return {name: {"value": values[name] if not trace
                   else values.get(name, 0.0), "unit": unit}
            for name, unit in declared_metrics(trace)}


def check(result, trace, reference, record):
    """(correct, failed ops, problems) of a result. Recording skips the
    reference comparison."""
    problems = []
    failed = result["failed"]
    if not result["deterministic"]:
        problems.append("reps of one seed simulated different things")
    if failed:
        problems.append("%d of %d ops failed" % (failed,
                                                 result["attempted"]))
    diffs = [] if record else reference_diffs(result, reference)
    if diffs:
        problems.extend("reference: " + d for d in diffs)
        failed = result["attempted"]
    if trace and result["probe_calls"] != result["layer_calls"]:
        problems.append("probe call counts %r != workload counts %r" %
                        (result["probe_calls"], result["layer_calls"]))
    return not problems, failed, problems


def report(result, mets, failed, problems, record):
    name = result["workload"]
    print("%s input-set=%d reps=%d time-scale=%.4f reference=%s" %
          (name, result["seed"], result["reps"], result["time_scale"],
           "recorded" if record else
           ("FAILED" if any(p.startswith("reference")
                            for p in problems) else "match")))
    for key, m in mets.items():
        print("  %-28s %.6g %s" % (key, m["value"], m["unit"]))
    print("  %-28s %.6g fraction (%d/%d)" %
          ("error_rate", failed / result["attempted"], failed,
           result["attempted"]))
    for p in problems:
        print("  PROBLEM: %s" % p)


def run_one(args, workload, reference):
    result = run_binary(workload, args.seed % INPUT_SETS, args.seconds,
                        args.trace)
    mets = reported_metrics(result, args.trace)
    correct, failed, problems = check(result, args.trace, reference,
                                      args.record)
    report(result, mets, failed, problems, args.record)
    if args.record:
        reference.setdefault(workload, {})[str(result["seed"])] = \
            simulated(result)
    return result, mets, correct, failed


def self_check(seed):
    """Determinism, seed reach and probe call counts, one short run each."""
    seed %= INPUT_SETS
    ok = True
    for wl in WORKLOADS:
        a = run_binary(wl, seed, 1, False)
        b = run_binary(wl, seed, 1, False)
        c = run_binary(wl, (seed + 1) % INPUT_SETS, 1, False)
        t = run_binary(wl, seed, 1, True)
        same = (simulated(a) == simulated(b) and a["counts"] == b["counts"]
                and a["metrics"]["events_per_op"] ==
                b["metrics"]["events_per_op"])
        moved = a["model"] != c["model"]
        probes = t["probe_calls"] == t["layer_calls"]
        traced_same = simulated(a) == simulated(t)
        print("%-14s same-seed identical=%s  second-seed changes "
              "model=%s  probe calls match=%s  traced run identical=%s" %
              (wl, same, moved, probes, traced_same))
        ok = ok and same and moved and probes and traced_same
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's simulated outputs as the "
                         "reference for its workload and seed")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    if args.self_check:
        return 0 if self_check(args.seed) else 1

    reference = load_reference()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for wl in names:
        result, mets, ok, nfailed = run_one(args, wl, reference)
        correct = correct and ok
        attempted += result["attempted"]
        failed += nfailed
        for key, m in mets.items():
            name = key if len(names) == 1 else "%s.%s" % (wl, key)
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    if args.record:
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        sys.exit(1)
