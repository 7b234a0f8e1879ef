#include "net/switch.hh"

#include <algorithm>
#include <deque>
#include <utility>

#include "sim/logging.hh"

namespace tf::net {

FabricLink::FabricLink(std::string name, sim::EventQueue &eq,
                       FabricLinkParams params)
    : SimObject(std::move(name), eq), _params(params)
{
    TF_ASSERT(_params.bandwidthBps > 0,
              "%s: fabric link bandwidth must be positive",
              this->name().c_str());
    TF_ASSERT(_params.latency > 0,
              "%s: fabric link latency must be positive (it is the "
              "conservative engine's lookahead floor)",
              this->name().c_str());
}

void
FabricLink::send(std::uint64_t bytes, sim::Tick extraDelay,
                 sim::EventQueue::Callback delivered)
{
    sim::Tick ser = sim::seconds(static_cast<double>(bytes) /
                                 _params.bandwidthBps) +
                    _params.perMessageOverhead;
    sim::Tick ready = now() + extraDelay;
    sim::Tick start = std::max(ready, _nextFree);
    _nextFree = start + ser;
    _messages.inc();
    _bytes.inc(bytes);
    _queueNs.add(sim::toNs(start - ready));
    // Occupancy bookkeeping: a message owns a queue slot from the
    // tick it becomes ready until the port finishes serialising it.
    // High-water is the deepest the port backlog ever got — the
    // timeline surfaces it so trunk oversubscription shows up as a
    // filling queue, not just a worse p99.
    queueDepth(ready); // drops the messages gone by `ready`
    _queued.push_back(start + ser);
    if (_queued.size() > _queueHighWater.value())
        _queueHighWater.inc(_queued.size() - _queueHighWater.value());
    _occupancyNs.inc((start - ready) / sim::ticksPerNs);
    sim::Tick deliver = start + ser + _params.latency +
                        (now() < _spikeUntil ? _spikeExtra : 0);
    // Every hop is its own span on the source element's LP: crossing
    // + egress queue + serialisation + wire, begin at ingress. The
    // messages carry no MemTxn, so each hop gets its own trace id.
    auto &tb = eventQueue().trace();
    if (sim::trace::TraceId id = tb.newTrace();
        id != sim::trace::noTrace) {
        tb.begin(now(), id, sim::trace::Stage::NetHop);
        tb.end(deliver, id, sim::trace::Stage::NetHop);
    }
    if (_channel != nullptr)
        _channel->send(deliver, std::move(delivered));
    else
        after(deliver - now(), std::move(delivered));
}

void
FabricLink::bindChannel(sim::par::LinkChannel *channel)
{
    TF_ASSERT(channel == nullptr ||
                  channel->minLatency() <= _params.latency,
              "%s: channel lookahead %llu exceeds link latency %llu",
              name().c_str(),
              (unsigned long long)channel->minLatency(),
              (unsigned long long)_params.latency);
    _channel = channel;
}

void
FabricLink::spike(sim::Tick extra, sim::Tick duration)
{
    _spikeExtra = std::max(_spikeExtra, extra);
    _spikeUntil = std::max(_spikeUntil, now() + duration);
    _spikes.inc();
    after(duration, [this]() {
        if (now() >= _spikeUntil)
            _spikeExtra = 0;
    });
}

std::size_t
FabricLink::queueDepth(sim::Tick at)
{
    while (!_queued.empty() && _queued.front() <= at)
        _queued.pop_front();
    return _queued.size();
}

void
FabricLink::attachStats(sim::StatSet &set)
{
    set.attach("messages", _messages, "msgs");
    set.attach("bytes", _bytes, "bytes");
    set.attach("queueNs", _queueNs, "ns",
               "egress output-queue delay per message");
    set.attach("queueHighWater", _queueHighWater, "msgs",
               "deepest egress backlog (queued + serialising)");
    set.attach("queueOccupancyNs", _occupancyNs, "ns",
               "summed time messages waited for the port");
    set.attach("latencySpikes", _spikes, "events",
               "injected latency-spike windows");
}

struct Fabric::Msg
{
    const Path *path;
    std::uint64_t bytes;
    sim::EventQueue::Callback delivered;
};

Fabric::Fabric(std::string name, sim::EventQueue &eq)
    : _name(std::move(name)), _eq(eq)
{
}

Fabric::Element &
Fabric::element(const std::string &name)
{
    auto it = _elements.find(name);
    TF_ASSERT(it != _elements.end(), "%s: unknown element '%s'",
              _name.c_str(), name.c_str());
    return it->second;
}

sim::EventQueue &
Fabric::queueOf(const std::string &name)
{
    sim::par::LogicalProcess *lp = element(name).home;
    return lp != nullptr ? lp->queue() : _eq;
}

void
Fabric::addEndpoint(const std::string &name)
{
    TF_ASSERT(_elements.count(name) == 0,
              "%s: duplicate element '%s'", _name.c_str(),
              name.c_str());
    _elements[name] = Element{};
}

void
Fabric::addSwitch(const std::string &name, SwitchParams params)
{
    TF_ASSERT(_elements.count(name) == 0,
              "%s: duplicate element '%s'", _name.c_str(),
              name.c_str());
    Element e;
    e.isSwitch = true;
    e.sw = params;
    _elements[name] = std::move(e);
}

void
Fabric::assign(const std::string &name, sim::par::LogicalProcess &lp)
{
    TF_ASSERT(_links.empty(),
              "%s: assign('%s') after connect() — links are built on "
              "their source element's queue, so homes must be known "
              "first",
              _name.c_str(), name.c_str());
    element(name).home = &lp;
}

void
Fabric::connect(const std::string &a, const std::string &b,
                FabricLinkParams params)
{
    TF_ASSERT(!_finalized, "%s: connect('%s','%s') after finalize()",
              _name.c_str(), a.c_str(), b.c_str());
    TF_ASSERT(a != b, "%s: self-link on '%s'", _name.c_str(),
              a.c_str());
    TF_ASSERT(_links.count(a + "->" + b) == 0,
              "%s: duplicate link %s <-> %s", _name.c_str(),
              a.c_str(), b.c_str());
    for (const auto &[from, to] : {std::pair(a, b), std::pair(b, a)}) {
        Element &e = element(from);
        e.ports++;
        TF_ASSERT(!e.isSwitch || e.ports <= e.sw.radix,
                  "%s: switch '%s' exceeds radix %u", _name.c_str(),
                  from.c_str(), e.sw.radix);
        e.neighbours.push_back(to);
        std::string key = from + "->" + to;
        auto &link = _links[key] = std::make_unique<FabricLink>(
            _name + "." + key, queueOf(from), params);
        // A link between two endpoints is its own one-hop route
        // (finalize() derives the same), so a switchless network
        // never needs finalize().
        if (!e.isSwitch && !element(to).isSwitch)
            _routes[key] = Path{Hop{link.get(), &e}};
    }
}

void
Fabric::finalize()
{
    TF_ASSERT(!_finalized, "%s: finalize() twice", _name.c_str());
    _finalized = true;
    for (auto &kv : _elements)
        std::sort(kv.second.neighbours.begin(),
                  kv.second.neighbours.end());

    // Per-destination BFS over the undirected graph; dist[] plus the
    // sorted-neighbour visit order makes the parent choice — and so
    // every route — a pure function of the topology.
    for (auto &dstKv : _elements) {
        if (dstKv.second.isSwitch)
            continue;
        const std::string &dst = dstKv.first;
        std::map<std::string, std::size_t> dist;
        std::deque<std::string> frontier;
        dist[dst] = 0;
        frontier.push_back(dst);
        while (!frontier.empty()) {
            std::string cur = frontier.front();
            frontier.pop_front();
            for (const std::string &nb :
                 _elements.at(cur).neighbours) {
                if (dist.count(nb))
                    continue;
                dist[nb] = dist.at(cur) + 1;
                frontier.push_back(nb);
            }
        }
        for (auto &srcKv : _elements) {
            const std::string &src = srcKv.first;
            if (srcKv.second.isSwitch || src == dst ||
                dist.count(src) == 0)
                continue;
            Path path;
            std::string cur = src;
            while (cur != dst) {
                // Next hop: the sorted-first neighbour one step
                // closer to the destination.
                const Element &e = _elements.at(cur);
                const std::string *next = nullptr;
                for (const std::string &nb : e.neighbours) {
                    auto it = dist.find(nb);
                    if (it != dist.end() &&
                        it->second + 1 == dist.at(cur)) {
                        next = &nb;
                        break;
                    }
                }
                TF_ASSERT(next != nullptr,
                          "%s: BFS route %s -> %s broke at '%s'",
                          _name.c_str(), src.c_str(), dst.c_str(),
                          cur.c_str());
                path.push_back(Hop{_links.at(cur + "->" + *next).get(),
                                   &_elements.at(cur)});
                cur = *next;
            }
            _routes[src + "->" + dst] = std::move(path);
        }
    }
}

void
Fabric::partition(sim::par::ParallelEngine &engine)
{
    // Map iteration order makes channel indices (and the engine's
    // merge tiebreak) independent of connect() order.
    for (auto &kv : _links) {
        const std::string &key = kv.first;
        auto sep = key.find("->");
        sim::par::LogicalProcess *src =
            _elements.at(key.substr(0, sep)).home;
        sim::par::LogicalProcess *dst =
            _elements.at(key.substr(sep + 2)).home;
        if (src == nullptr || dst == nullptr || src == dst)
            continue;
        kv.second->bindChannel(&engine.connect(
            *src, *dst, kv.second->params().latency,
            _name + "." + key));
    }
}

bool
Fabric::reachable(const std::string &src,
                  const std::string &dst) const
{
    return _routes.count(src + "->" + dst) > 0;
}

std::size_t
Fabric::hopCount(const std::string &src, const std::string &dst) const
{
    auto it = _routes.find(src + "->" + dst);
    return it == _routes.end() ? 0 : it->second.size();
}

void
Fabric::send(const std::string &src, const std::string &dst,
             std::uint64_t bytes, sim::EventQueue::Callback delivered)
{
    auto it = _routes.find(src + "->" + dst);
    TF_ASSERT(it != _routes.end(), "%s: no route %s -> %s",
              _name.c_str(), src.c_str(), dst.c_str());
    auto msg = std::make_shared<Msg>(
        Msg{&it->second, bytes, std::move(delivered)});
    step(std::move(msg), 0);
}

void
Fabric::step(std::shared_ptr<Msg> msg, std::size_t hop)
{
    const Hop &h = (*msg->path)[hop];
    sim::Tick crossing = 0;
    if (h.from->isSwitch) {
        crossing = h.from->sw.crossingLatency;
        h.from->relayed.inc();
        h.from->relayedBytes.inc(msg->bytes);
    }
    std::uint64_t bytes = msg->bytes;
    // The last hop's delivery event runs the caller's callback
    // directly: one event per hop, and one in all on a direct link.
    if (hop + 1 == msg->path->size())
        h.link->send(bytes, crossing, std::move(msg->delivered));
    else
        h.link->send(bytes, crossing,
                     [this, msg = std::move(msg), hop]() mutable {
                         step(std::move(msg), hop + 1);
                     });
}

std::uint64_t
Fabric::relayedMessages() const
{
    std::uint64_t total = 0;
    for (const auto &kv : _elements)
        if (kv.second.isSwitch)
            total += kv.second.relayed.value();
    return total;
}

double
Fabric::maxQueueDelayNs() const
{
    double worst = 0.0;
    for (const auto &kv : _links)
        worst = std::max(worst, kv.second->queueDelayNs().max());
    return worst;
}

std::uint64_t
Fabric::maxQueueHighWater() const
{
    std::uint64_t worst = 0;
    for (const auto &kv : _links)
        worst = std::max(worst, kv.second->queueHighWater());
    return worst;
}

void
Fabric::forEachLink(
    const std::function<void(const std::string &, FabricLink &,
                             sim::par::LogicalProcess *)> &fn)
{
    for (auto &kv : _links) {
        std::string src = kv.first.substr(0, kv.first.find("->"));
        fn(kv.first, *kv.second, element(src).home);
    }
}

void
Fabric::registerStats(sim::StatsRegistry &reg,
                      const std::string &prefix)
{
    for (auto &kv : _links)
        kv.second->attachStats(reg.at(prefix + "." + kv.first));
    for (auto &kv : _elements) {
        if (!kv.second.isSwitch)
            continue;
        sim::StatSet &set = reg.at(prefix + ".sw." + kv.first);
        set.attach("relayedMsgs", kv.second.relayed, "msgs",
                   "messages forwarded through this switch");
        set.attach("relayedBytes", kv.second.relayedBytes, "bytes");
    }
}

void
Fabric::registerFaultPoints(
    sim::fault::Registry &reg, const std::string &prefix,
    const sim::par::LogicalProcess *homeFilter)
{
    using sim::fault::Event;
    using sim::fault::Kind;
    using sim::fault::kindBit;
    for (auto &kv : _links) {
        const std::string &key = kv.first;
        auto sep = key.find("->");
        const Element &src = _elements.at(key.substr(0, sep));
        if (homeFilter != nullptr && src.home != homeFilter)
            continue;
        FabricLink *l = kv.second.get();
        reg.add(prefix + "." + key, kindBit(Kind::LatencySpike),
                [l](const Event &ev) {
                    l->spike(ev.extraLatency, ev.duration);
                });
    }
}

} // namespace tf::net
