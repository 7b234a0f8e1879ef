/**
 * @file
 * Full ThymesisFlow datapath between one compute node and one donor.
 *
 * Assembles the pieces of Fig. 2: compute endpoint (M1 window + RMMU +
 * routing), the network channels with their LLC protocol instances,
 * and the memory-stealing endpoint mastering donor memory via
 * OpenCAPI C1. This is the object the agent and control plane
 * configure, and the one benchmarks drive.
 */

#ifndef TF_FLOW_DATAPATH_HH
#define TF_FLOW_DATAPATH_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/dram.hh"
#include "sim/fault/fault.hh"
#include "tflow/compute_endpoint.hh"
#include "tflow/stealing_endpoint.hh"

namespace tf::flow {

/**
 * Host real address of the M1 window every datapath is mapped at
 * (the window firmware assigns the card, Fig. 3).
 */
constexpr mem::Addr kWindowBase = 0x2000000000ULL;

class Datapath
{
  public:
    /** Channel health transition, reported to agents/control plane. */
    struct LinkEvent
    {
        std::size_t channel;
        bool down; ///< true = channel died, false = channel recovered
    };
    using LinkListener = std::function<void(const LinkEvent &)>;

    /**
     * @param window      M1 real-address window on the compute host.
     * @param donorPasids PASID registry of the donor host.
     * @param donorDram   donor host's memory controller.
     * @param sectionBytes RMMU section granularity.
     */
    Datapath(const std::string &name, sim::EventQueue &eq,
             FlowParams params, ocapi::M1Window window,
             ocapi::PasidRegistry &donorPasids, mem::Dram &donorDram,
             sim::Rng &rng,
             std::uint64_t sectionBytes = mem::sectionBytes);

    ComputeEndpoint &compute() { return _compute; }
    StealingEndpoint &stealing() { return _stealing; }
    ocapi::C1Master &c1() { return _c1; }
    LlcChannel &channel(std::size_t i) { return *_channels.at(i); }
    std::size_t channelCount() const { return _channels.size(); }
    const FlowParams &params() const { return _params; }

    /**
     * Configure an active thymesisflow: map device-internal section
     * @p sectionIndex to donor effective address @p remoteBase, under
     * network id @p id, forwarded over @p channels (bonded when more
     * than one channel is given).
     */
    void attach(std::size_t sectionIndex, mem::Addr remoteBase,
                mem::NetworkId id, std::vector<int> channels);

    /** Tear down a section's flow. */
    void detach(std::size_t sectionIndex);

    /**
     * Replace the channel set of an active flow (control-plane route
     * repair). Updates the routing table and the bonded flag of every
     * section mapped to the flow, and unmasks routing for channels in
     * the new set that are healthy again.
     */
    void reroute(mem::NetworkId id, std::vector<int> channels);

    /**
     * Error-complete every outstanding transaction of a flow (used
     * when its last channel died). @return transactions aborted.
     */
    std::size_t abortFlow(mem::NetworkId id);

    /** Subscribe to channel up/down transitions. */
    void addLinkListener(LinkListener listener);

    /**
     * Fault injection: hard-fail a channel's wires. Detection is
     * protocol-driven — the LLC Tx escalates after maxReplayRounds
     * consecutive ack timeouts, which then triggers failover.
     */
    void failChannel(std::size_t i);

    /** Fault injection: repair a channel and restore it to routing. */
    void recoverChannel(std::size_t i);

    /**
     * Fault injection: transient flap — hard-fail the channel's wires
     * now and auto-recover them @p downFor later. Whether the outage
     * is even noticed depends on its length vs the LLC's replay
     * escalation: short flaps heal invisibly through go-back-N replay;
     * long ones escalate to link-down and the recovery retrains the
     * channel and re-admits it to routing.
     */
    void flapChannel(std::size_t i, sim::Tick downFor);

    /**
     * Register this datapath's injectable sites with @p reg:
     *   <prefix>.ch<i>          ChannelFail / ChannelFlap
     *   <prefix>.ch<i>.wire     BurstLoss (both directions)
     *   <prefix>.ch<i>.credits  CreditStarve (compute-side Tx)
     */
    void registerFaultPoints(sim::fault::Registry &reg,
                             const std::string &prefix);

    /** True once the datapath has declared channel @p i dead. */
    bool channelDown(std::size_t i) const { return _chDown.at(i); }

    std::uint64_t linkDownEvents() const { return _linkDowns.value(); }
    std::uint64_t channelFlaps() const { return _flaps.value(); }
    std::uint64_t reroutedRequests() const { return _reroutedReqs.value(); }
    std::uint64_t reroutedResponses() const
    {
        return _reroutedResps.value();
    }
    std::uint64_t droppedResponses() const
    {
        return _droppedResps.value();
    }

    /** Convenience: issue a host transaction into the M1 window. */
    void issue(mem::TxnPtr txn) { _compute.issue(std::move(txn)); }

    RoutingLayer &routing() { return _compute.routing(); }

    /**
     * Register the whole datapath tree with @p reg under @p prefix:
     *   <prefix>                 failover counters
     *   <prefix>.compute[...]    endpoint, RMMU, routing, crossings
     *   <prefix>.llc.ch<i>.*     per-channel LLC Tx/Rx/wires
     *   <prefix>.stealing[...]   donor endpoint + crossings
     *   <prefix>.c1              OpenCAPI C1 master
     */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix);

  private:
    FlowParams _params;
    sim::EventQueue &_eq;
    ocapi::C1Master _c1;
    std::vector<std::unique_ptr<LlcChannel>> _channels;
    ComputeEndpoint _compute;
    StealingEndpoint _stealing;
    std::vector<bool> _chDown;
    std::vector<LinkListener> _listeners;
    sim::Counter _linkDowns;
    sim::Counter _flaps;
    sim::Counter _reroutedReqs;
    sim::Counter _reroutedResps;
    sim::Counter _droppedResps;

    void handleLinkDown(std::size_t ch);
    int firstAliveChannel() const;
    void notify(const LinkEvent &ev);
};

} // namespace tf::flow

#endif // TF_FLOW_DATAPATH_HH
