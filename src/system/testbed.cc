#include "system/testbed.hh"

namespace tf::sys {

const char *
setupName(Setup s)
{
    switch (s) {
      case Setup::Local:
        return "local";
      case Setup::SingleDisaggregated:
        return "single-disaggregated";
      case Setup::BondingDisaggregated:
        return "bonding-disaggregated";
      case Setup::Interleaved:
        return "interleaved";
      case Setup::ScaleOut:
        return "scale-out";
    }
    return "?";
}

Testbed::Testbed(sim::EventQueue &eq, TestbedParams params)
    : _params(params), _rng(params.seed),
      _network("net", eq)
{
    _serverA = std::make_unique<Node>("serverA", eq, _params.node);
    _serverB = std::make_unique<Node>("serverB", eq, _params.node);
    NodeParams client_params = _params.node;
    client_params.bootSections = 8;
    _client = std::make_unique<Node>("client", eq, client_params);

    _cpuA = std::make_unique<CpuSet>("cpuA", eq,
                                     _params.node.hwThreads);
    _cpuB = std::make_unique<CpuSet>("cpuB", eq,
                                     _params.node.hwThreads);

    _network.connect("client", "serverA", net::EthParams::tenGig());
    _network.connect("client", "serverB", net::EthParams::tenGig());
    _network.connect("serverA", "serverB",
                     net::EthParams::hundredGig());

    if (_params.setup == Setup::Local || _params.setup == Setup::ScaleOut)
        return;
    CompositionParams cp;
    cp.flow = _params.flow;
    cp.donatedBytes = _params.donatedBytes;
    cp.channels = _params.setup == Setup::BondingDisaggregated ? 2 : 1;
    if (_params.enablePageCache)
        cp.pageCache = _params.pageCache;
    _comp = std::make_unique<Composition>(eq, *_serverA, *_serverB, cp,
                                          _rng);
    TF_ASSERT(_comp->allocationId() != 0,
              "testbed failed to compose disaggregated memory");
}

os::AllocPolicy
Testbed::serverPolicy()
{
    switch (_params.setup) {
      case Setup::Local:
      case Setup::ScaleOut:
        return os::AllocPolicy::bind({_serverA->localNode()});
      case Setup::SingleDisaggregated:
      case Setup::BondingDisaggregated:
        return os::AllocPolicy::bind({_serverA->tflowNode()});
      case Setup::Interleaved:
        return os::AllocPolicy::interleave(
            {_serverA->localNode(), _serverA->tflowNode()});
    }
    return os::AllocPolicy::local();
}

void
Testbed::registerFaultPoints(sim::fault::Registry &reg)
{
    using sim::fault::Event;
    using sim::fault::Kind;
    using sim::fault::kindBit;
    if (_comp)
        _comp->registerFaultPoints(reg, "");
    _network.registerFaultPoints(reg, "net");
    mem::Dram *donor = &_serverB->dram();
    reg.add("serverB.dram", kindBit(Kind::DramStall),
            [donor](const Event &ev) { donor->stall(ev.duration); });
}

void
Testbed::registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix)
{
    const std::string dir = prefix.empty() ? "" : prefix + ".";
    if (_comp)
        _comp->registerStats(reg, dir);
    _network.registerStats(reg, dir + "net");
    _serverB->dram().attachStats(reg.at(dir + "serverB.dram"));
}

} // namespace tf::sys
