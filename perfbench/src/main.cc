/**
 * @file
 * perfbench: runs one workload for a fixed host-time budget and prints
 * one JSON line with its simulated outputs and metrics. run.py builds
 * this binary, drives it, and checks the outputs against the recorded
 * reference; see perfbench/README.md for every metric.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spec PATH] [--trace-out PATH]
 *
 * --trace 0 prints the end-to-end metric values from untraced reps.
 * --trace 1 alternates untraced and traced reps, then runs the
 * per-layer probes, prints every per-layer value it computed and
 * writes the spans to --trace-out as trace-event JSON.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.hh"
#include "probes.hh"
#include "sim/json.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/**
 * Reps per run never fall below this, whatever --seconds says: every
 * rep sets up afresh, so set-up time is a median of at least this
 * many.
 */
constexpr std::size_t kMinReps = 5;

/**
 * Share of host time spent calibrating: before each rep, calibration
 * passes run for this share of the previous rep's time (at least one
 * pass), so long reps are sampled as densely as short ones.
 */
constexpr double kCalibrationShare = 0.05;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut = "perfbench_trace.json";
};

/** Probe layer -> the per-layer metric carrying its ns/call. */
const std::map<std::string, std::string> kProbeMetric = {
    {"sim", "sim.ns_per_event"},
    {"stats", "stats.ns_per_sample"},
    {"mem.cache", "mem.cache.ns_per_access"},
    {"mem.store", "mem.store.ns_per_line"},
    {"os.xlat", "os.xlat.ns_per_call"},
    {"tflow", "tflow.ns_per_txn"},
    {"net.eth", "net.eth.ns_per_msg"},
    {"net.fabric", "net.fabric.ns_per_msg"},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Peak resident set of this process, MiB (VmHWM). */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--spec PATH] "
                 "[--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (opt.seconds <= 0 || opt.seconds > 600)
                usage("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            if (!opt.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (arg == "--spec") {
            setFabricSpecPath(v);
        } else if (arg == "--trace-out") {
            opt.traceOut = v;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + arg).c_str());
    }
    return opt;
}

void
writeMap(tf::sim::JsonWriter &w, const std::string &key,
         const std::map<std::string, double> &m)
{
    w.name(key);
    w.beginObject();
    for (const auto &[k, v] : m)
        w.field(k, v);
    w.endObject();
}

int
run(const Options &opt)
{
    const Workload *wl = nullptr;
    for (const Workload &w : workloads())
        if (opt.workload == w.name)
            wl = &w;
    if (wl == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    // Untraced reps time every call but keep no spans; in a traced run
    // they alternate with traced reps so both see the same machine.
    Spans quiet(false);
    Spans traced(opt.trace);
    std::vector<Rep> reps;
    std::vector<double> setupS, runS, tracedRunS;
    std::map<std::string, std::vector<double>> hostLayer;
    Calibration cal;
    double lastRepS = 0;
    while (reps.size() < kMinReps || elapsed() < opt.seconds) {
        cal.sample(kCalibrationShare * lastRepS);
        Rep r = wl->once(opt.seed, quiet);
        lastRepS = r.setupS + r.runS;
        setupS.push_back(r.setupS);
        runS.push_back(r.runS);
        reps.push_back(std::move(r));
        if (opt.trace) {
            Rep t = wl->once(opt.seed, traced);
            tracedRunS.push_back(t.runS);
            for (const auto &[k, v] : t.host)
                hostLayer[k].push_back(v);
            reps.push_back(std::move(t));
        }
    }

    cal.sample(kCalibrationShare * lastRepS);
    // Host times at the nominal machine speed (see calibration.hh).
    const double scale = Calibration::kNominalPassS / median(cal.passS());

    // Every rep of a seed must simulate the same thing; a run that
    // diverges counts all of its ops as failed.
    const Rep &first = reps.front();
    bool deterministic = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const Rep &r : reps) {
        deterministic = deterministic && r.sameSimulation(first);
        attempted += r.attempted;
        failed += r.failed;
    }
    if (!deterministic)
        failed = attempted;

    std::ostringstream os;
    tf::sim::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("workload", wl->name);
    w.field("seed", opt.seed);
    w.field("reps", static_cast<std::uint64_t>(reps.size()));
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.field("deterministic", deterministic);
    w.field("events", first.events);
    w.field("sim_ticks", first.simTicks);
    w.field("time_scale", scale);
    writeMap(w, "model", first.model);
    writeMap(w, "counts", first.counts);

    // Metric values by name; run.py takes the names it reports, their
    // order and units from BENCHMARK.json.
    w.name("metrics");
    w.beginObject();
    if (!opt.trace) {
        // Throughput over every rep: the ops of all reps over their
        // total run seconds. A median rep time jumps between a quiet
        // and a busy host; over ten seeds of memcached_etc and
        // fabric_rpc on the reference VM, the scaled median spread
        // 0.07-0.08 (interquartile range / median), this 0.03-0.04.
        const double runTotal =
            std::accumulate(runS.begin(), runS.end(), 0.0);
        w.field("ops_per_s", static_cast<double>(first.attempted) *
                                 static_cast<double>(runS.size()) /
                                 (runTotal * scale));
        w.field("setup_s", median(setupS) * scale);
        w.field("events_per_op", static_cast<double>(first.events) /
                                     static_cast<double>(first.attempted));
        // The calibration table is resident for the whole run; it is
        // the benchmark's, not the workload's.
        w.field("peak_rss_mib",
                peakRssMiB() - cal.tableBytes() / (1024.0 * 1024.0));
        w.endObject();
    } else {
        const Probes probes = runProbes(first.shape, opt.seed, traced);
        std::map<std::string, double> v = first.counts;
        for (const auto &[k, xs] : hostLayer)
            v[k] = median(xs);
        for (const auto &[k, x] : first.model)
            v[k] = x;
        for (const auto &[layer, p] : probes.layer)
            v[kProbeMetric.at(layer)] = p.nsPerCall;
        v["tflow.events_per_txn"] = probes.tflowEventsPerTxn;
        const double untraced = median(runS);
        v["run_s"] = untraced;
        v["host.calibration_ms"] = median(cal.passS()) * 1e3;
        v["attributed_frac"] = probes.attributedNs() / 1e9 / untraced;
        v["trace.overhead_frac"] = median(tracedRunS) / untraced - 1;
        for (const auto &[k, x] : v)
            w.field(k, x);
        w.endObject();

        // Self-check material: each probe's call count next to the
        // workload's own count for that layer.
        w.name("probe_calls");
        w.beginObject();
        for (const auto &[layer, p] : probes.layer)
            w.field(layer, p.calls);
        w.endObject();
        w.name("layer_calls");
        w.beginObject();
        for (const auto &[layer, n] : layerCalls(first.shape))
            w.field(layer, n);
        w.endObject();
        if (!traced.writeJson(opt.traceOut, wl->name,
                              {{"trace.overhead_frac",
                                v["trace.overhead_frac"]},
                               {"attributed_frac", v["attributed_frac"]},
                               {"run_s", v["run_s"]}})) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
            return 1;
        }
        w.field("trace_file", opt.traceOut);
        w.field("spans", static_cast<std::uint64_t>(traced.size()));
    }
    w.endObject();
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parse(argc, argv));
}
