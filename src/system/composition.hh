/**
 * @file
 * How a host meets its donor (paper Section IV): a flow::Datapath
 * from the host's M1 window to the donor's PASIDs and DRAM, a
 * ctrl::ControlPlane over both hosts, one allocation that steals the
 * donation and hot-plugs it onto the host's CPU-less NUMA node, and
 * an optional page cache in front of the datapath. sys::Testbed and
 * topo::Instance both compose through this class.
 */

#ifndef TF_SYS_COMPOSITION_HH
#define TF_SYS_COMPOSITION_HH

#include <optional>

#include "ctrl/control_plane.hh"
#include "system/node.hh"

namespace tf::sys {

struct CompositionParams
{
    std::string datapathName = "tflow";
    flow::FlowParams flow;
    std::uint64_t donatedBytes = 0;
    /** Channels the allocation bonds. */
    int channels = 1;
    /** Page cache on the host (its pages are the host's pages). */
    std::optional<os::PageCacheParams> pageCache;
};

class Composition
{
  public:
    /** The datapath draws from @p rng. A rejected allocation leaves
     * allocationId() 0 and builds no page cache. */
    Composition(sim::EventQueue &eq, Node &host, Node &donor,
                CompositionParams params, sim::Rng &rng);

    flow::Datapath &datapath() { return *_datapath; }
    ctrl::ControlPlane &controlPlane() { return *_cp; }
    os::PageCache *pageCache() { return _pageCache.get(); }
    std::uint64_t allocationId() const { return _allocationId; }

    /** "<prefix>tflow[...]", "<prefix>ctrl", "<prefix>cache". */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix);
    /** Fault points under the same three names. */
    void registerFaultPoints(sim::fault::Registry &reg,
                             const std::string &prefix);

  private:
    std::unique_ptr<flow::Datapath> _datapath;
    std::unique_ptr<os::PageCache> _pageCache;
    std::unique_ptr<ctrl::ControlPlane> _cp;
    std::uint64_t _allocationId = 0;
};

} // namespace tf::sys

#endif // TF_SYS_COMPOSITION_HH
