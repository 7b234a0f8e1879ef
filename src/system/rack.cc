#include "system/rack.hh"

#include "sim/logging.hh"

namespace tf::sys {

namespace {

// Two sections of the bare rig's donor memory carry the loads; RPC
// reads target a disjoint region of the donor DRAM.
constexpr std::uint64_t kSection = flow::DatapathRig::kSectionBytes;
constexpr mem::Addr kDonorBase = flow::DatapathRig::kDonorBase;
constexpr mem::Addr kRpcBase = 0x300000000ULL;

} // namespace

RackCluster::RackCluster(const std::string &name,
                         sim::par::ParallelEngine &engine,
                         const std::vector<std::vector<dc::Job>> &shards,
                         RackParams params, std::uint64_t seed)
    : _name(name), _params(params)
{
    TF_ASSERT(_params.racks >= 1, "%s: need at least one rack",
              _name.c_str());
    TF_ASSERT(shards.size() == _params.racks,
              "%s: %zu trace shards for %zu racks", _name.c_str(),
              shards.size(), _params.racks);

    for (std::size_t i = 0; i < _params.racks; ++i) {
        std::string endpoint = "rack" + std::to_string(i);
        auto rack = std::make_unique<Rack>(
            i, endpoint, engine.addLp(endpoint),
            _name + "." + endpoint + ".dp", seed + i, _params);
        rack->rig.dp.attach(0, kDonorBase, 1, {0});
        rack->rig.dp.attach(1, kDonorBase + kSection, 2, {0, 1});
        _racks.push_back(std::move(rack));
    }

    // Ethernet ring: every endpoint homed on its rack's LP *before*
    // the links exist, then cross-LP links rerouted through engine
    // channels — the ring latency becomes the engine's lookahead.
    _net = std::make_unique<net::Network>(_name + ".net",
                                          _racks[0]->lp->queue());
    for (auto &rack : _racks)
        _net->assign(rack->endpoint, *rack->lp);
    for (std::size_t i = 0; i < _racks.size(); ++i) {
        std::size_t j = (i + 1) % _racks.size();
        if (i == j ||
            _net->connected(_racks[i]->endpoint, _racks[j]->endpoint))
            continue;
        _net->connect(_racks[i]->endpoint, _racks[j]->endpoint,
                      _params.interRack);
    }
    _net->partition(engine);

    for (std::size_t i = 0; i < shards.size(); ++i) {
        Rack *rack = _racks[i].get();
        for (const dc::Job &job : shards[i])
            rack->lp->queue().schedule(
                job.arrival, [this, rack, id = job.id]() {
                    startJob(*rack, id);
                });
    }
}

void
RackCluster::startJob(Rack &rack, std::uint64_t jobId)
{
    // Spread bursts across the section so jobs do not all hammer the
    // same cachelines; the offset is a pure function of the job id.
    issueRead(rack, _params.opsPerJob, (jobId * 4096) % kSection);
    if (_racks.size() > 1 &&
        rack.rig.rng.chance(_params.crossRackFraction))
        issueRpc(rack);
}

void
RackCluster::issueRead(Rack &rack, int remaining, std::uint64_t offset)
{
    if (remaining <= 0)
        return;
    auto txn = mem::makeTxn(mem::TxnType::ReadReq,
                            flow::kWindowBase + offset % kSection);
    Rack *r = &rack;
    txn->onComplete = [this, r, remaining, offset](mem::MemTxn &) {
        r->ops.inc();
        issueRead(*r, remaining - 1, offset + 128);
    };
    rack.rig.dp.issue(std::move(txn));
}

void
RackCluster::issueRpc(Rack &rack)
{
    Rack *src = &rack;
    Rack *dst = _racks[(rack.index + 1) % _racks.size()].get();
    sim::Tick sent = rack.lp->queue().now();
    // Request crosses the ring, the remote rack reads its DRAM, the
    // response crosses back; each leg runs on the owning rack's LP.
    _net->send(src->endpoint, dst->endpoint, _params.rpcRequestBytes,
               [this, src, dst, sent]() {
                   auto txn = mem::makeTxn(
                       mem::TxnType::ReadReq,
                       kRpcBase + (sent % kSection),
                       static_cast<std::uint32_t>(
                           _params.rpcResponseBytes));
                   dst->rig.dram.access(
                       txn, [this, src, dst, sent](mem::TxnPtr) {
                           _net->send(dst->endpoint, src->endpoint,
                                      _params.rpcResponseBytes,
                                      [this, src, sent]() {
                                          src->cross.inc();
                                          src->rpcRttUs.add(sim::toUs(
                                              src->lp->queue().now() -
                                              sent));
                                      });
                       });
               });
}

std::uint64_t
RackCluster::opsCompleted() const
{
    std::uint64_t total = 0;
    for (const auto &rack : _racks)
        total += rack->ops.value();
    return total;
}

std::uint64_t
RackCluster::crossRackOps() const
{
    std::uint64_t total = 0;
    for (const auto &rack : _racks)
        total += rack->cross.value();
    return total;
}

void
RackCluster::registerStats(sim::StatsRegistry &reg,
                           const std::string &prefix)
{
    for (auto &rack : _racks) {
        sim::StatSet &set = reg.at(prefix + "." + rack->endpoint);
        set.attach("ops", rack->ops, "ops",
                   "datapath loads completed");
        set.attach("cross", rack->cross, "rpcs",
                   "cross-rack RPC round trips completed");
        set.attach("rpcRttUs", rack->rpcRttUs, "us",
                   "cross-rack RPC round-trip time");
    }
    _net->registerStats(reg, prefix + ".net");
}

} // namespace tf::sys
