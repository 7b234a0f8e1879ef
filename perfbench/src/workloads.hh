/**
 * @file
 * The benchmark's four workloads. Each builds its rig through the
 * simulator's public API (setup), runs it to completion (run), and
 * reads back the counters the program already exposes. The inputs are
 * a pure function of the seed; nothing here changes what the
 * simulator computes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "net/ethernet.hh"
#include "spans.hh"

namespace perfbench {

/**
 * The input shape a workload presented to each layer and how many
 * calls it made into it. The probes replay exactly these call counts
 * at this shape on a private instance of the layer. A zero count means
 * the layer did not run (or is not observable) on that workload.
 */
struct Shape
{
    // sim: event kernel and stats bookkeeping.
    std::uint64_t events = 0;
    std::uint64_t heapDepth = 0; ///< largest per-queue high water
    std::uint64_t statSamples = 0;

    // mem: host cache, donor backing store.
    tf::mem::CacheParams cache;
    std::uint64_t cacheAccesses = 0;
    double cacheHitRatio = 0;
    double writeFrac = 0; ///< share of accesses that are writes
    std::uint64_t storeLines = 0;
    std::uint64_t storePages = 0;

    // os: page-table translation.
    std::uint64_t xlatCalls = 0;
    std::uint64_t xlatFaults = 0;

    // tflow: remote transactions through the datapath.
    std::uint64_t txns = 0;
    double mlp = 1;      ///< mean txns in flight (Little's law)
    bool bonded = false; ///< flows striped over both channels

    // net: point-to-point Ethernet and the switched fabric.
    std::uint64_t ethMsgs = 0;
    std::uint64_t ethBytes = 0;
    tf::net::EthParams eth;
    std::uint64_t fabricMsgs = 0;
    std::uint64_t fabricBytes = 0;
};

/** Everything one setup + run of a workload produced. */
struct Rep
{
    double setupS = 0; ///< workload start to first simulated event
    double runS = 0;   ///< the run call alone

    std::uint64_t attempted = 0; ///< modelled ops the inputs ask for
    std::uint64_t failed = 0;    ///< non-Ok, lost or never completed
    std::uint64_t events = 0;
    std::uint64_t simTicks = 0;

    /** Simulated results, exact: checked against the reference. */
    std::map<std::string, double> model;
    /** Deterministic per-layer counts and ratios. */
    std::map<std::string, double> counts;
    /**
     * Host-time per-layer values: seconds of each setup phase
     * (system.compose_s, ...) and the engine's barrier-wait share.
     */
    std::map<std::string, double> host;

    Shape shape;

    /** True when every simulated output equals @p o's. */
    bool sameSimulation(const Rep &o) const;
};

struct Workload
{
    const char *name;
    /** One rep at @p seed: set up, run, read the counters. */
    Rep (*once)(std::uint64_t seed, Spans &spans);
};

const std::vector<Workload> &workloads();

/**
 * The fabric_rpc template spec. Set from the command line; relative to
 * the directory the benchmark runs in.
 */
void setFabricSpecPath(std::string path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
