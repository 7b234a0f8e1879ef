#include "ctrl/control_plane.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace tf::ctrl {

namespace {
/** Soft per-flow reservation on a shared 100 Gb/s channel. */
constexpr double kFlowDemandGbps = 25.0;
/** Hold-down of a returning channel: 5 us, doubling per flap to 80 us. */
constexpr sim::Tick kHoldDownBase = sim::microseconds(5);
constexpr sim::Tick kHoldDownMax = sim::microseconds(80);
} // namespace

ControlPlane::ControlPlane(std::string agentToken, sim::EventQueue &eq)
    : _agentToken(std::move(agentToken)), _eq(eq)
{
}

void
ControlPlane::addUser(const std::string &userToken, Role role)
{
    _users[userToken] = role;
}

bool
ControlPlane::isAuthorised(const std::string &userToken,
                           Role needed) const
{
    auto it = _users.find(userToken);
    if (it == _users.end())
        return false;
    if (needed == Role::Admin)
        return it->second == Role::Admin;
    return true;
}

void
ControlPlane::registerHost(const std::string &name, agent::Agent &agent,
                           os::MemoryManager &mm)
{
    TF_ASSERT(!_hosts.count(name), "host %s already registered",
              name.c_str());
    HostInfo info;
    info.agent = &agent;
    info.mm = &mm;
    info.computeEp = _graph.addVertex(VertexType::ComputeEndpoint,
                                      name + ".computeEp");
    info.memoryEp =
        _graph.addVertex(VertexType::MemoryEndpoint, name + ".memoryEp");
    _hosts[name] = info;
}

void
ControlPlane::registerDatapath(const std::string &computeHost,
                               const std::string &donorHost,
                               flow::Datapath &datapath)
{
    TF_ASSERT(_hosts.count(computeHost) && _hosts.count(donorHost),
              "datapath references unregistered hosts");
    DatapathInfo info;
    info.datapath = &datapath;
    info.computeHost = computeHost;
    info.donorHost = donorHost;

    const HostInfo &chost = _hosts[computeHost];
    const HostInfo &dhost = _hosts[donorHost];
    double channel_gbps =
        datapath.params().channelBps * 8.0 / 1e9; // 100 Gb/s

    for (std::size_t ch = 0; ch < datapath.channelCount(); ++ch) {
        std::string suffix = "." + computeHost + "-" + donorHost +
                             ".ch" + std::to_string(ch);
        VertexId tx_c = _graph.addVertex(VertexType::Transceiver,
                                         "tx.compute" + suffix);
        VertexId tx_d = _graph.addVertex(VertexType::Transceiver,
                                         "tx.donor" + suffix);
        _graph.vertex(tx_c).props["channel"] = std::to_string(ch);
        _graph.vertex(tx_d).props["channel"] = std::to_string(ch);
        // Endpoint-to-transceiver hops have the host-link capacity.
        _graph.addEdge(chost.computeEp, tx_c, 200.0);
        EdgeId link = _graph.addEdge(tx_c, tx_d, channel_gbps);
        _graph.addEdge(tx_d, dhost.memoryEp, 200.0);
        info.channelEdges.push_back(link);
    }
    std::size_t dpIndex = _datapaths.size();
    _datapaths.push_back(std::move(info));

    // The control plane watches the datapath's health (via the host
    // agents' monitoring duty) and repairs allocations on transitions.
    _hosts[computeHost].agent->watchDatapath(datapath);
    datapath.addLinkListener(
        [this, dpIndex](const flow::Datapath::LinkEvent &ev) {
            onLinkEvent(dpIndex, ev.channel, ev.down);
        });
}

ControlPlane::DatapathInfo *
ControlPlane::findDatapath(const std::string &computeHost,
                           const std::string &donorHost)
{
    for (auto &dpi : _datapaths)
        if (dpi.computeHost == computeHost &&
            dpi.donorHost == donorHost)
            return &dpi;
    return nullptr;
}

std::vector<int>
ControlPlane::channelsFromPaths(const DatapathInfo &dpi,
                                const std::vector<Path> &paths) const
{
    std::vector<int> channels;
    for (const Path &p : paths) {
        for (EdgeId e : p.edges) {
            for (std::size_t ch = 0; ch < dpi.channelEdges.size();
                 ++ch) {
                if (dpi.channelEdges[ch] == e)
                    channels.push_back(static_cast<int>(ch));
            }
        }
    }
    return channels;
}

std::optional<std::uint64_t>
ControlPlane::allocate(const std::string &userToken,
                       const std::string &computeHost,
                       const std::string &donorHost,
                       std::uint64_t bytes, os::NodeId numaNode,
                       int channelsWanted, os::NodeId donorNode)
{
    if (!isAuthorised(userToken, Role::Admin))
        return std::nullopt;
    if (!_hosts.count(computeHost) || !_hosts.count(donorHost))
        return std::nullopt;
    DatapathInfo *dpi = findDatapath(computeHost, donorHost);
    if (dpi == nullptr)
        return std::nullopt;

    const HostInfo &chost = _hosts[computeHost];
    const HostInfo &dhost = _hosts[donorHost];

    // 1. Find and reserve the network paths (disjoint per channel).
    std::vector<Path> paths;
    std::vector<EdgeId> used;
    for (int i = 0; i < channelsWanted; ++i) {
        auto path = _graph.findPath(chost.computeEp, dhost.memoryEp,
                                    kFlowDemandGbps, &used);
        if (!path) {
            for (const Path &p : paths)
                _graph.release(p, kFlowDemandGbps);
            return std::nullopt;
        }
        _graph.reserve(*path, kFlowDemandGbps);
        used.insert(used.end(), path->edges.begin(),
                    path->edges.end());
        paths.push_back(std::move(*path));
    }
    std::vector<int> channels = channelsFromPaths(*dpi, paths);
    if (channels.size() != static_cast<std::size_t>(channelsWanted)) {
        for (const Path &p : paths)
            _graph.release(p, kFlowDemandGbps);
        return std::nullopt;
    }

    // 2. Donor side: steal + pin the memory.
    auto donation =
        dhost.agent->stealMemory(_agentToken, bytes, donorNode);
    if (!donation) {
        for (const Path &p : paths)
            _graph.release(p, kFlowDemandGbps);
        return std::nullopt;
    }

    // 3. Compute side: program the endpoint and hotplug the memory.
    auto attachment = chost.agent->attachMemory(
        _agentToken, *dpi->datapath, *donation, numaNode, channels);
    if (!attachment) {
        dhost.agent->releaseDonation(_agentToken, *donation);
        for (const Path &p : paths)
            _graph.release(p, kFlowDemandGbps);
        return std::nullopt;
    }

    AllocationRecord rec;
    rec.id = _nextAllocation++;
    rec.computeHost = computeHost;
    rec.donorHost = donorHost;
    rec.donation = *donation;
    rec.attachment = *attachment;
    rec.paths = std::move(paths);
    rec.channels = std::move(channels);
    rec.channelsWanted = channelsWanted;
    rec.demandGbpsPerPath = kFlowDemandGbps;
    rec.datapath = dpi->datapath;
    std::uint64_t id = rec.id;
    _allocations[id] = std::move(rec);
    return id;
}

bool
ControlPlane::deallocate(const std::string &userToken, std::uint64_t id)
{
    if (!isAuthorised(userToken, Role::Admin))
        return false;
    auto it = _allocations.find(id);
    if (it == _allocations.end())
        return false;
    AllocationRecord &rec = it->second;

    agent::Agent *cagent = _hosts[rec.computeHost].agent;
    agent::Agent *dagent = _hosts[rec.donorHost].agent;
    if (!cagent->detachMemory(_agentToken, *rec.datapath,
                              rec.attachment))
        return false; // pages in use; caller must drain first
    dagent->releaseDonation(_agentToken, rec.donation);
    for (const Path &p : rec.paths)
        _graph.release(p, rec.demandGbpsPerPath);
    _allocations.erase(it);
    return true;
}

void
ControlPlane::controlOutage(sim::Tick duration)
{
    if (duration == 0)
        return;
    _outages.inc();
    _outageUntil = std::max(_outageUntil, _eq.now() + duration);
    _eq.scheduleIn(duration, [this]() {
        if (_outageUntil > _eq.now())
            return; // a later outage extended the window
        // Catch up on everything that happened while we were away,
        // in arrival order.
        auto deferred = std::move(_deferred);
        _deferred.clear();
        for (const auto &[dp, ch, down] : deferred)
            processLinkEvent(dp, ch, down);
    });
}

void
ControlPlane::registerFaultPoints(sim::fault::Registry &reg,
                                  const std::string &name)
{
    reg.add(name, sim::fault::kindBit(sim::fault::Kind::ControlOutage),
            [this](const sim::fault::Event &ev) {
                controlOutage(ev.duration);
            });
}

void
ControlPlane::onLinkEvent(std::size_t dpIndex, std::size_t channel,
                          bool down)
{
    TF_ASSERT(dpIndex < _datapaths.size(), "link event from unknown dp");
    TF_ASSERT(channel < _datapaths[dpIndex].channelEdges.size(),
              "link event for unknown channel");
    if (_outageUntil > _eq.now()) {
        // Control-plane outage: the event is noted but not acted on
        // until the plane comes back. The datapath has already masked
        // its own routing, so traffic safety does not depend on us.
        _deferredEvents.inc();
        _deferred.emplace_back(dpIndex, channel, down);
        return;
    }
    processLinkEvent(dpIndex, channel, down);
}

void
ControlPlane::processLinkEvent(std::size_t dpIndex, std::size_t channel,
                               bool down)
{
    const DatapathInfo &dpi = _datapaths[dpIndex];
    ChannelHealth &health = _chHealth[{dpIndex, channel}];

    if (!down) {
        // Hold-down: quarantine the returning channel with bounded
        // exponential backoff before trusting it again.
        std::uint32_t flaps = health.flapCount > 0
                                  ? health.flapCount - 1
                                  : 0;
        sim::Tick delay = kHoldDownBase
                          << std::min<std::uint32_t>(flaps, 20);
        delay = std::min(delay, kHoldDownMax);
        _holdDowns.inc();
        if (health.readmit != sim::EventQueue::invalidEvent)
            _eq.deschedule(health.readmit);
        health.readmit =
            _eq.scheduleIn(delay, [this, dpIndex, channel]() {
                ChannelHealth &h = _chHealth[{dpIndex, channel}];
                h.readmit = sim::EventQueue::invalidEvent;
                h.flapCount = 0; // survived the quarantine
                readmitChannel(dpIndex, channel);
            });
        return;
    }

    // Channel down. A pending re-admission is moot now; cancelling it
    // is what keeps a flap storm from double-counting regrows.
    ++health.flapCount;
    if (health.readmit != sim::EventQueue::invalidEvent) {
        _eq.deschedule(health.readmit);
        health.readmit = sim::EventQueue::invalidEvent;
    }

    // i) state maintenance: reflect the link health in the graph.
    _graph.setEdgeUp(dpi.channelEdges[channel], false);

    // ii) repair every allocation riding this datapath. Collect ids
    // first: a teardown erases from _allocations mid-iteration.
    std::vector<std::uint64_t> affected;
    for (const auto &[id, rec] : _allocations)
        if (rec.datapath == dpi.datapath)
            affected.push_back(id);

    for (std::uint64_t id : affected) {
        auto it = _allocations.find(id);
        if (it == _allocations.end())
            continue;
        repairAllocation(it->second, dpi, channel);
    }
}

void
ControlPlane::readmitChannel(std::size_t dpIndex, std::size_t channel)
{
    const DatapathInfo &dpi = _datapaths[dpIndex];
    _graph.setEdgeUp(dpi.channelEdges[channel], true);

    std::vector<std::uint64_t> affected;
    for (const auto &[id, rec] : _allocations)
        if (rec.datapath == dpi.datapath)
            affected.push_back(id);

    for (std::uint64_t id : affected) {
        auto it = _allocations.find(id);
        if (it == _allocations.end())
            continue;
        growAllocation(it->second, dpi);
    }
}

void
ControlPlane::pushRoute(AllocationRecord &rec)
{
    agent::Agent *cagent = _hosts[rec.computeHost].agent;
    cagent->repairRoute(_agentToken, *rec.datapath, rec.attachment,
                        rec.channels);
}

void
ControlPlane::repairAllocation(AllocationRecord &rec,
                               const DatapathInfo &dpi,
                               std::size_t channel)
{
    // Does this allocation use the dead channel at all?
    auto pos = std::find(rec.channels.begin(), rec.channels.end(),
                         static_cast<int>(channel));
    if (pos == rec.channels.end())
        return;
    std::size_t idx =
        static_cast<std::size_t>(pos - rec.channels.begin());

    // Release the dead path's reservation and drop it from the record.
    _graph.release(rec.paths[idx], rec.demandGbpsPerPath);
    rec.paths.erase(rec.paths.begin() + static_cast<std::ptrdiff_t>(idx));
    rec.channels.erase(pos);

    if (rec.channels.empty()) {
        // No surviving channel: search for any replacement before
        // giving up entirely (down edges are skipped automatically).
        const HostInfo &chost = _hosts[rec.computeHost];
        const HostInfo &dhost = _hosts[rec.donorHost];
        auto path = _graph.findPath(chost.computeEp, dhost.memoryEp,
                                    rec.demandGbpsPerPath);
        std::vector<int> mapped;
        if (path)
            mapped = channelsFromPaths(dpi, {*path});
        if (!path || mapped.size() != 1) {
            _teardowns.inc();
            forceTeardown(rec.id);
            return;
        }
        _graph.reserve(*path, rec.demandGbpsPerPath);
        rec.paths.push_back(std::move(*path));
        rec.channels.push_back(mapped.front());
        _repairs.inc();
        pushRoute(rec);
        return;
    }

    // Try to find a replacement path disjoint from the survivors.
    std::vector<EdgeId> used;
    for (const Path &p : rec.paths)
        used.insert(used.end(), p.edges.begin(), p.edges.end());
    const HostInfo &chost = _hosts[rec.computeHost];
    const HostInfo &dhost = _hosts[rec.donorHost];
    auto path = _graph.findPath(chost.computeEp, dhost.memoryEp,
                                rec.demandGbpsPerPath, &used);
    std::vector<int> mapped;
    if (path)
        mapped = channelsFromPaths(dpi, {*path});
    if (path && mapped.size() == 1) {
        _graph.reserve(*path, rec.demandGbpsPerPath);
        rec.paths.push_back(std::move(*path));
        rec.channels.push_back(mapped.front());
        _repairs.inc();
    } else {
        // No spare capacity: run degraded on the surviving channels.
        _degrades.inc();
    }
    pushRoute(rec);
}

void
ControlPlane::growAllocation(AllocationRecord &rec,
                             const DatapathInfo &dpi)
{
    bool grew = false;
    const HostInfo &chost = _hosts[rec.computeHost];
    const HostInfo &dhost = _hosts[rec.donorHost];
    while (rec.channels.size() <
           static_cast<std::size_t>(rec.channelsWanted)) {
        std::vector<EdgeId> used;
        for (const Path &p : rec.paths)
            used.insert(used.end(), p.edges.begin(), p.edges.end());
        auto path = _graph.findPath(chost.computeEp, dhost.memoryEp,
                                    rec.demandGbpsPerPath, &used);
        if (!path)
            break;
        std::vector<int> mapped = channelsFromPaths(dpi, {*path});
        if (mapped.size() != 1)
            break;
        _graph.reserve(*path, rec.demandGbpsPerPath);
        rec.paths.push_back(std::move(*path));
        rec.channels.push_back(mapped.front());
        grew = true;
    }
    if (grew) {
        _regrows.inc();
        pushRoute(rec);
    }
}

void
ControlPlane::forceTeardown(std::uint64_t id)
{
    auto it = _allocations.find(id);
    TF_ASSERT(it != _allocations.end(), "teardown of unknown allocation");
    AllocationRecord &rec = it->second;

    // Every channel is gone: error-complete what is still in flight so
    // the host never hangs, then surprise-remove the hotplugged memory
    // and release every remaining resource.
    rec.datapath->abortFlow(rec.attachment.networkId);
    agent::Agent *cagent = _hosts[rec.computeHost].agent;
    agent::Agent *dagent = _hosts[rec.donorHost].agent;
    bool detached = cagent->detachMemory(_agentToken, *rec.datapath,
                                         rec.attachment, /*force=*/true);
    TF_ASSERT(detached, "forced detach cannot fail");
    dagent->releaseDonation(_agentToken, rec.donation);
    for (const Path &p : rec.paths)
        _graph.release(p, rec.demandGbpsPerPath);
    _allocations.erase(it);
}

void
ControlPlane::attachStats(sim::StatSet &set)
{
    set.attach("repairs", _repairs, "events",
               "path repairs: replacement channel found and pushed");
    set.attach("degrades", _degrades, "events",
               "allocations narrowed to fewer channels");
    set.attach("teardowns", _teardowns, "events",
               "allocations torn down after losing every channel");
    set.attach("regrows", _regrows, "events",
               "allocations regrown to wanted width after recovery");
    set.attach("holdDowns", _holdDowns, "events",
               "channel re-admissions delayed by the hold-down");
    set.attach("outages", _outages, "events",
               "injected control-plane outages");
    set.attach("deferredLinkEvents", _deferredEvents, "events",
               "link events deferred by control-plane outages");
}

const AllocationRecord *
ControlPlane::allocation(std::uint64_t id) const
{
    auto it = _allocations.find(id);
    return it == _allocations.end() ? nullptr : &it->second;
}

std::map<std::string, std::string>
ControlPlane::parseBody(const std::string &body)
{
    std::map<std::string, std::string> out;
    std::istringstream is(body);
    std::string token;
    while (is >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        out[token.substr(0, eq)] = token.substr(eq + 1);
    }
    return out;
}

ControlPlane::HttpResponse
ControlPlane::handleRequest(const std::string &userToken,
                            const std::string &method,
                            const std::string &path,
                            const std::string &body)
{
    bool mutation = method == "POST" || method == "DELETE";
    if (!isAuthorised(userToken,
                      mutation ? Role::Admin : Role::Observer)) {
        return {403, "forbidden"};
    }

    if (method == "GET" && path == "/topology") {
        std::ostringstream os;
        os << "vertices=" << _graph.vertexCount()
           << " edges=" << _graph.edgeCount();
        return {200, os.str()};
    }

    if (method == "GET" && path == "/flows") {
        std::ostringstream os;
        for (const auto &[id, rec] : _allocations) {
            os << "id=" << id << " compute=" << rec.computeHost
               << " donor=" << rec.donorHost
               << " bytes=" << rec.donation.bytes()
               << " channels=" << rec.paths.size() << "\n";
        }
        return {200, os.str()};
    }

    if (method == "GET" && path.rfind("/flows/", 0) == 0) {
        std::uint64_t id = std::stoull(path.substr(7));
        const AllocationRecord *rec = allocation(id);
        if (rec == nullptr)
            return {404, "no such flow"};
        std::ostringstream os;
        os << "id=" << rec->id << " compute=" << rec->computeHost
           << " donor=" << rec->donorHost
           << " bytes=" << rec->donation.bytes()
           << " numa=" << rec->attachment.numaNode;
        return {200, os.str()};
    }

    if (method == "POST" && path == "/flows") {
        auto kv = parseBody(body);
        if (!kv.count("compute") || !kv.count("donor") ||
            !kv.count("bytes") || !kv.count("numa")) {
            return {400, "missing parameter"};
        }
        int channels =
            kv.count("channels") ? std::stoi(kv["channels"]) : 1;
        os::NodeId donor_node =
            kv.count("donor_node") ? std::stoi(kv["donor_node"]) : 0;
        auto id = allocate(userToken, kv["compute"], kv["donor"],
                           std::stoull(kv["bytes"]),
                           std::stoi(kv["numa"]), channels,
                           donor_node);
        if (!id)
            return {409, "allocation failed"};
        return {201, "id=" + std::to_string(*id)};
    }

    if (method == "DELETE" && path.rfind("/flows/", 0) == 0) {
        std::uint64_t id = std::stoull(path.substr(7));
        if (!deallocate(userToken, id))
            return {409, "deallocation failed"};
        return {200, "ok"};
    }

    return {404, "unknown endpoint"};
}

} // namespace tf::ctrl
