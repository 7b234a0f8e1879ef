#include "tflow/datapath.hh"

#include "sim/logging.hh"

namespace tf::flow {

Datapath::Datapath(const std::string &name, sim::EventQueue &eq,
                   FlowParams params, ocapi::M1Window window,
                   ocapi::PasidRegistry &donorPasids,
                   mem::Dram &donorDram, sim::Rng &rng,
                   std::uint64_t sectionBytes)
    : _params(params), _eq(eq),
      _c1(name + ".c1", eq, ocapi::C1Params{}, donorPasids, donorDram),
      _compute(name + ".compute", eq, _params, window,
               SectionTable(sectionBytes,
                            static_cast<std::size_t>(
                                (window.size + sectionBytes - 1) /
                                sectionBytes))),
      _stealing(name + ".stealing", eq, _params, _c1)
{
    TF_ASSERT(_params.channels > 0, "need at least one channel");
    std::vector<LlcTx *> computeTxs;
    std::vector<LlcTx *> stealTxs;
    for (int i = 0; i < _params.channels; ++i) {
        auto ch = std::make_unique<LlcChannel>(
            name + ".ch" + std::to_string(i), eq, _params, rng);
        int idx = i;
        ch->rxB().connectSink([this, idx](mem::TxnPtr txn) {
            _stealing.onNetworkRequest(idx, std::move(txn));
        });
        ch->rxA().connectSink([this](mem::TxnPtr txn) {
            _compute.onNetworkResponse(std::move(txn));
        });
        std::size_t chIdx = static_cast<std::size_t>(i);
        ch->txA().connectHealth([this, chIdx]() { handleLinkDown(chIdx); });
        ch->txB().connectHealth([this, chIdx]() { handleLinkDown(chIdx); });
        // Late traffic handed to a dead Tx is salvaged the same way as
        // the backlog drained at link-down time.
        ch->txA().connectDeadLetter([this](mem::TxnPtr txn) {
            _reroutedReqs.inc();
            _compute.reroute(std::move(txn));
        });
        ch->txB().connectDeadLetter([this](mem::TxnPtr txn) {
            int alive = firstAliveChannel();
            if (alive >= 0) {
                _reroutedResps.inc();
                _stealing.resend(alive, std::move(txn));
            } else {
                _droppedResps.inc();
            }
        });
        computeTxs.push_back(&ch->txA());
        stealTxs.push_back(&ch->txB());
        _channels.push_back(std::move(ch));
    }
    _chDown.assign(_channels.size(), false);
    _compute.connectChannels(std::move(computeTxs));
    _stealing.connectChannels(std::move(stealTxs));
    // Pre-size the per-channel routing counters so the telemetry
    // schema is complete before the first transaction flows.
    _compute.routing().ensureChannels(_channels.size());
}

void
Datapath::attach(std::size_t sectionIndex, mem::Addr remoteBase,
                 mem::NetworkId id, std::vector<int> channels)
{
    TF_ASSERT(!channels.empty(), "attach with no channels");
    for (int ch : channels) {
        TF_ASSERT(ch >= 0 && static_cast<std::size_t>(ch) <
                                 _channels.size(),
                  "attach references unknown channel %d", ch);
    }
    bool bonded = channels.size() > 1;
    _compute.rmmu().table().map(sectionIndex, remoteBase, id, bonded);
    _compute.routing().setRoute(id, std::move(channels));
}

void
Datapath::detach(std::size_t sectionIndex)
{
    const SectionEntry &e =
        _compute.rmmu().table().entry(sectionIndex);
    if (!e.valid)
        return;
    mem::NetworkId id = e.networkId;
    _compute.rmmu().table().unmap(sectionIndex);

    // Only clear the route once no other section uses this flow id.
    bool in_use = false;
    for (std::size_t i = 0; i < _compute.rmmu().table().entries(); ++i) {
        const SectionEntry &other = _compute.rmmu().table().entry(i);
        if (other.valid && other.networkId == id) {
            in_use = true;
            break;
        }
    }
    if (!in_use)
        _compute.routing().clearRoute(id);
}

void
Datapath::reroute(mem::NetworkId id, std::vector<int> channels)
{
    TF_ASSERT(!channels.empty(), "reroute with no channels");
    for (int ch : channels) {
        TF_ASSERT(ch >= 0 &&
                      static_cast<std::size_t>(ch) < _channels.size(),
                  "reroute references unknown channel %d", ch);
    }
    bool bonded = channels.size() > 1;
    SectionTable &table = _compute.rmmu().table();
    for (std::size_t i = 0; i < table.entries(); ++i) {
        if (table.entry(i).valid && table.entry(i).networkId == id)
            table.setBonded(i, bonded);
    }
    _compute.routing().setRoute(id, std::move(channels));
}

std::size_t
Datapath::abortFlow(mem::NetworkId id)
{
    return _compute.abortOutstanding(id);
}

void
Datapath::addLinkListener(LinkListener listener)
{
    _listeners.push_back(std::move(listener));
}

void
Datapath::notify(const LinkEvent &ev)
{
    for (auto &listener : _listeners)
        listener(ev);
}

int
Datapath::firstAliveChannel() const
{
    for (std::size_t i = 0; i < _channels.size(); ++i)
        if (!_chDown[i])
            return static_cast<int>(i);
    return -1;
}

void
Datapath::failChannel(std::size_t i)
{
    // Only the wires die; the datapath learns about it the way real
    // hardware does, through the LLC's missing-ack escalation.
    channel(i).fail();
}

void
Datapath::recoverChannel(std::size_t i)
{
    channel(i).recover();
    if (_chDown.at(i)) {
        _chDown[i] = false;
        _compute.routing().markChannelUp(static_cast<int>(i));
        notify(LinkEvent{i, false});
    }
}

void
Datapath::flapChannel(std::size_t i, sim::Tick downFor)
{
    channel(i).fail();
    _flaps.inc();
    _eq.scheduleIn(downFor, [this, i]() { recoverChannel(i); });
}

void
Datapath::registerFaultPoints(sim::fault::Registry &reg,
                              const std::string &prefix)
{
    using sim::fault::Event;
    using sim::fault::Kind;
    using sim::fault::kindBit;
    for (std::size_t i = 0; i < _channels.size(); ++i) {
        const std::string base = prefix + ".ch" + std::to_string(i);
        reg.add(base,
                kindBit(Kind::ChannelFail) | kindBit(Kind::ChannelFlap),
                [this, i](const Event &ev) {
                    if (ev.kind == Kind::ChannelFail)
                        failChannel(i);
                    else
                        flapChannel(i, ev.duration);
                });
        reg.add(base + ".wire", kindBit(Kind::BurstLoss),
                [this, i](const Event &ev) {
                    channel(i).wireAB().startBurst(ev.ge, ev.duration);
                    channel(i).wireBA().startBurst(ev.ge, ev.duration);
                });
        reg.add(base + ".credits", kindBit(Kind::CreditStarve),
                [this, i](const Event &ev) {
                    channel(i).txA().starveCredits(ev.duration);
                });
    }
}

void
Datapath::handleLinkDown(std::size_t ch)
{
    if (_chDown.at(ch))
        return; // the other direction already escalated
    _chDown[ch] = true;
    _linkDowns.inc();
    _compute.routing().markChannelDown(static_cast<int>(ch));

    // Both directions share the fate of the channel: force the side
    // that has not escalated yet down too, so a later recover()
    // retrains the full channel.
    LlcChannel &c = channel(ch);
    c.txA().forceLinkDown();
    c.txB().forceLinkDown();

    // Tell listeners (the control plane) before salvaging: a repaired
    // or degraded route pushed synchronously from the notification is
    // then already in place when the backlog is re-routed, so even a
    // single-channel flow survives without fail-fast errors.
    notify(LinkEvent{ch, true});

    // Salvage undelivered requests onto surviving channels
    // (at-least-once: the requester suppresses duplicate responses).
    // If the notification tore the flow down instead, the re-route
    // finds no route and the duplicate-suppressed fail-fast is a
    // no-op for already-aborted transactions.
    for (auto &txn : c.txA().takeUndelivered()) {
        _reroutedReqs.inc();
        _compute.reroute(std::move(txn));
    }

    // Salvage undelivered responses the same way; with no survivor
    // they are dropped, and the control plane's teardown
    // error-completes the requests they belonged to.
    int alive = firstAliveChannel();
    for (auto &txn : c.txB().takeUndelivered()) {
        if (alive >= 0) {
            _reroutedResps.inc();
            _stealing.resend(alive, std::move(txn));
        } else {
            _droppedResps.inc();
        }
    }
}

void
Datapath::registerStats(sim::StatsRegistry &reg,
                        const std::string &prefix)
{
    sim::StatSet &set = reg.at(prefix);
    set.attach("linkDownEvents", _linkDowns, "events");
    set.attach("channelFlaps", _flaps, "events",
               "transient flap injections (down + auto-recover)");
    set.attach("reroutedRequests", _reroutedReqs, "txns",
               "salvaged requests re-entering the routing layer");
    set.attach("reroutedResponses", _reroutedResps, "txns",
               "salvaged responses resent on a surviving channel");
    set.attach("droppedResponses", _droppedResps, "txns",
               "salvaged responses with no surviving channel");
    _compute.registerStats(reg, prefix + ".compute");
    _stealing.registerStats(reg, prefix + ".stealing");
    _c1.attachStats(reg.at(prefix + ".c1"));
    for (std::size_t i = 0; i < _channels.size(); ++i) {
        const std::string ch =
            prefix + ".llc.ch" + std::to_string(i);
        _channels[i]->txA().attachStats(reg.at(ch + ".txA"));
        _channels[i]->rxA().attachStats(reg.at(ch + ".rxA"));
        _channels[i]->txB().attachStats(reg.at(ch + ".txB"));
        _channels[i]->rxB().attachStats(reg.at(ch + ".rxB"));
        _channels[i]->wireAB().attachStats(reg.at(ch + ".wireAB"));
        _channels[i]->wireBA().attachStats(reg.at(ch + ".wireBA"));
    }
}

} // namespace tf::flow
