#include "system/composition.hh"

namespace tf::sys {

Composition::Composition(sim::EventQueue &eq, Node &host, Node &donor,
                         CompositionParams params, sim::Rng &rng)
{
    const NodeParams &np = host.params();
    // Window twice the aligned donation: the RMMU's regrow headroom.
    std::uint64_t window =
        mem::alignUp(params.donatedBytes, np.sectionBytes) * 2;
    _datapath = std::make_unique<flow::Datapath>(
        params.datapathName, eq, params.flow,
        ocapi::M1Window{flow::kWindowBase, window}, donor.pasids(),
        donor.dram(), rng, np.sectionBytes);
    host.attachDatapath(*_datapath);

    _cp = std::make_unique<ctrl::ControlPlane>(np.agentToken, eq);
    _cp->addUser("admin", ctrl::Role::Admin);
    _cp->registerHost(host.name(), host.agent(), host.mm());
    _cp->registerHost(donor.name(), donor.agent(), donor.mm());
    _cp->registerDatapath(host.name(), donor.name(), *_datapath);
    auto id = _cp->allocate("admin", host.name(), donor.name(),
                            params.donatedBytes, host.tflowNode(),
                            params.channels, donor.localNode());
    if (!id.has_value())
        return;
    _allocationId = *id;
    if (params.pageCache) {
        os::PageCacheParams pcp = *params.pageCache;
        // The cache pages the same units the kernel does.
        pcp.pageBytes = np.pageBytes;
        flow::Datapath *dp = _datapath.get();
        _pageCache = std::make_unique<os::PageCache>(
            host.name() + ".pagecache", eq, pcp, host.mm(),
            host.localNode(), host.dram(),
            [dp](mem::TxnPtr txn) { dp->issue(std::move(txn)); });
        host.attachPageCache(*_pageCache);
    }
}

void
Composition::registerStats(sim::StatsRegistry &reg,
                           const std::string &prefix)
{
    _datapath->registerStats(reg, prefix + "tflow");
    _cp->attachStats(reg.at(prefix + "ctrl"));
    if (_pageCache)
        _pageCache->attachStats(reg.at(prefix + "cache"));
}

void
Composition::registerFaultPoints(sim::fault::Registry &reg,
                                 const std::string &prefix)
{
    _datapath->registerFaultPoints(reg, prefix + "tflow");
    _cp->registerFaultPoints(reg, prefix + "ctrl");
    if (os::PageCache *pc = _pageCache.get())
        reg.add(prefix + "cache",
                sim::fault::kindBit(sim::fault::Kind::CachePoison),
                [pc](const sim::fault::Event &) { pc->poisonCleanPage(); });
}

} // namespace tf::sys
