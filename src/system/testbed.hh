/**
 * @file
 * The paper's experimental testbed (Section VI-A, Fig. 4).
 *
 * Three AC922-class nodes: two servers (A runs the application server
 * side, B donates memory or runs the second application instance) and
 * a client machine. Five configurations:
 *
 *  - local:                  every page on A's local node;
 *  - single-disaggregated:   pages bound to the ThymesisFlow node,
 *                            one 100 Gb/s channel;
 *  - bonding-disaggregated:  both channels (200 Gb/s), bonded;
 *  - interleaved:            pages round-robin local/disaggregated;
 *  - scale-out:              the application is split over A and B,
 *                            all pages local, servers linked with
 *                            100 Gb/s Ethernet.
 *
 * The client reaches the servers over 10 Gb/s Ethernet in every
 * configuration.
 */

#ifndef TF_SYS_TESTBED_HH
#define TF_SYS_TESTBED_HH

#include <memory>

#include "net/ethernet.hh"
#include "system/composition.hh"
#include "system/cpuset.hh"

namespace tf::sys {

enum class Setup {
    Local,
    SingleDisaggregated,
    BondingDisaggregated,
    Interleaved,
    ScaleOut,
};

const char *setupName(Setup s);

struct TestbedParams
{
    Setup setup = Setup::Local;
    NodeParams node;
    flow::FlowParams flow;
    /** Memory stolen from server B in the disaggregated setups. */
    std::uint64_t donatedBytes = 512ULL * 1024 * 1024;
    std::uint64_t seed = 42;
    /**
     * Interpose a compute-side page cache between server A's host
     * bus and the datapath (disaggregated setups only).
     */
    bool enablePageCache = false;
    os::PageCacheParams pageCache;
};

class Testbed
{
  public:
    Testbed(sim::EventQueue &eq, TestbedParams params);

    Setup setup() const { return _params.setup; }
    const TestbedParams &params() const { return _params; }

    Node &serverA() { return *_serverA; }
    Node &serverB() { return *_serverB; }
    Node &client() { return *_client; }
    CpuSet &cpuA() { return *_cpuA; }
    CpuSet &cpuB() { return *_cpuB; }
    net::Network &network() { return _network; }
    /** The host/donor composition (disaggregated setups only). */
    ctrl::ControlPlane &controlPlane() { return _comp->controlPlane(); }
    flow::Datapath *datapath()
    {
        return _comp ? &_comp->datapath() : nullptr;
    }
    os::PageCache *pageCache()
    {
        return _comp ? _comp->pageCache() : nullptr;
    }
    sim::Rng &rng() { return _rng; }

    /** Page policy applications on server A should run under. */
    os::AllocPolicy serverPolicy();

    /** True when the app splits across both servers (scale-out). */
    bool scaleOut() const { return _params.setup == Setup::ScaleOut; }

    /** Allocation id of the composed flow (0 when none). */
    std::uint64_t allocationId() const
    {
        return _comp ? _comp->allocationId() : 0;
    }

    /**
     * Register every injectable site with a fault-point registry:
     *   tflow.ch<i>[...]  channel fail/flap, wire bursts, credit
     *                     starvation (disaggregated setups only)
     *   net.<src>-><dst>  Ethernet latency spikes
     *   serverB.dram      donor memory-controller stalls
     *   ctrl              control-plane outages
     */
    void registerFaultPoints(sim::fault::Registry &reg);

    /**
     * Register the whole testbed with @p reg under @p prefix:
     *   tflow[...]   datapath tree (disaggregated setups only)
     *   ctrl         control-plane repair-ladder outcomes
     *   net.*        per-link Ethernet counters
     *   serverB.dram donor memory controller
     * A non-empty prefix lets several beds share one registry
     * (e.g. one per setup in a bench scenario).
     */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix = "");

  private:
    TestbedParams _params;
    sim::Rng _rng;
    std::unique_ptr<Node> _serverA;
    std::unique_ptr<Node> _serverB;
    std::unique_ptr<Node> _client;
    std::unique_ptr<CpuSet> _cpuA;
    std::unique_ptr<CpuSet> _cpuB;
    net::Network _network;
    std::unique_ptr<Composition> _comp;
};

} // namespace tf::sys

#endif // TF_SYS_TESTBED_HH
