/**
 * @file
 * Per-layer probes. A probe times calls into one layer's public
 * function on a private instance of that layer, at the input shape the
 * workload presented to it and with exactly as many calls as the
 * workload made. Probes are measured in isolation, so their ns/call
 * are estimates of the layer's share of a run, not its true self time.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <string>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

struct ProbeResult
{
    std::uint64_t calls = 0; ///< calls the probe made
    double nsPerCall = 0;    ///< 0 when the layer did not run
};

struct Probes
{
    /** Keyed by layer: sim, stats, mem.cache, mem.store, os.xlat,
     * tflow, net.eth, net.fabric. */
    std::map<std::string, ProbeResult> layer;
    /** Events the bare datapath rig executed per txn. */
    double tflowEventsPerTxn = 0;

    /**
     * Host ns of the run these estimates explain: sum of ns/call x
     * calls, with the datapath probe's own event-kernel cost taken
     * out so it is not counted twice.
     */
    double attributedNs() const;
};

/** The workload's own call count into each probed layer. */
std::map<std::string, std::uint64_t> layerCalls(const Shape &s);

Probes runProbes(const Shape &s, std::uint64_t seed, Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
