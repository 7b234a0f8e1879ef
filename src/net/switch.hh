/**
 * @file
 * The network model: named endpoints and switches joined by links.
 *
 * Switches have a configurable radix, a fixed crossing latency, and
 * per-egress-port output queues whose serialisation rate is the
 * attached link's — which is where oversubscription lives (ring /
 * chain / full-mesh racks, DRackSim- and Xerxes-style). The
 * testbed's point-to-point Ethernet (net/ethernet.hh) is a Fabric
 * with no switches. Messages are routed hop by hop along shortest
 * paths (deterministic lexicographic tie-break), each hop charging
 *
 *     crossing (switches only) + egress queue
 *         + serialisation (bytes / rate + per-message overhead) + wire
 *
 * and recording a Stage::NetHop trace span on the hop's source
 * element, so Perfetto shows exactly which oversubscribed queue a
 * noisy neighbour is parked in.
 *
 * Partitioned runs: every directed link is a SimObject on its
 * *source* element's queue, assign() homes elements onto LPs before
 * connect(), and partition() reroutes cross-LP links through engine
 * channels with the link's fixed wire latency as lookahead.
 */

#ifndef TF_NET_SWITCH_HH
#define TF_NET_SWITCH_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault/fault.hh"
#include "sim/parallel/engine.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tf::net {

struct SwitchParams
{
    /** Ingress-to-egress pipeline latency. */
    sim::Tick crossingLatency = sim::nanoseconds(50);
    /** Maximum attached links (ports). */
    std::uint32_t radix = 16;
};

struct FabricLinkParams
{
    /** Line rate, bytes per second (100 Gb/s default). */
    double bandwidthBps = 100e9 / 8;
    /** Fixed one-way wire latency; the PDES lookahead floor (> 0). */
    sim::Tick latency = sim::nanoseconds(500);
    /** Per-message NIC/stack cost added to serialisation (Ethernet). */
    sim::Tick perMessageOverhead = 0;
};

/**
 * One directed fabric hop: an egress port's output queue plus the
 * wire behind it. Serialisation is charged on the source element's
 * clock; @p extraDelay models the upstream switch crossing.
 */
class FabricLink : public sim::SimObject
{
  public:
    FabricLink(std::string name, sim::EventQueue &eq,
               FabricLinkParams params);

    /**
     * Deliver @p bytes to the far end. The message is ready for the
     * egress queue at now + @p extraDelay (the crossing); it then
     * waits for the port, serialises and crosses the wire.
     * @p delivered runs on arrival.
     */
    void send(std::uint64_t bytes, sim::Tick extraDelay,
              sim::EventQueue::Callback delivered);

    /**
     * Deliver through a cross-LP channel whose lookahead must not
     * exceed the wire latency; serialisation stays on the sender's
     * clock. Pass nullptr to unbind.
     */
    void bindChannel(sim::par::LinkChannel *channel);

    const FabricLinkParams &params() const { return _params; }

    /**
     * Fault injection: add @p extra to the wire latency of every
     * message for @p duration ticks. Additive only, so a bound
     * channel's lookahead floor stays valid.
     */
    void spike(sim::Tick extra, sim::Tick duration);

    /** Egress output-queue delay distribution, in nanoseconds. */
    const sim::Summary &queueDelayNs() const { return _queueNs; }

    /**
     * Messages occupying this egress port (queued or serialising) at
     * @p at. Prunes departed entries, so @p at must not go backwards
     * between calls — the timeline gauge samples it at
     * monotonically-increasing window boundaries.
     */
    std::size_t queueDepth(sim::Tick at);

    /** Deepest the egress queue ever got, in messages. */
    std::uint64_t queueHighWater() const { return _queueHighWater.value(); }
    /** Total time messages spent waiting for the port (ns, summed). */
    const sim::Counter &queueOccupancyNs() const { return _occupancyNs; }
    const sim::Counter &bytesCounter() const { return _bytes; }

    void attachStats(sim::StatSet &set);

  private:
    FabricLinkParams _params;
    sim::par::LinkChannel *_channel = nullptr;
    sim::Tick _nextFree = 0;
    sim::Tick _spikeExtra = 0;
    sim::Tick _spikeUntil = 0;
    sim::Counter _messages;
    sim::Counter _bytes;
    sim::Counter _spikes;
    sim::Summary _queueNs;
    /** Departure times (port-free tick) of in-queue messages. */
    std::deque<sim::Tick> _queued;
    sim::Counter _queueHighWater;
    sim::Counter _occupancyNs;
};

/**
 * Named endpoints and switches joined by full-duplex links; messages
 * are addressed endpoint to endpoint and forwarded along precomputed
 * shortest paths.
 */
class Fabric
{
  public:
    Fabric(std::string name, sim::EventQueue &eq);

    /** Declare a traffic source/sink element. */
    void addEndpoint(const std::string &name);

    /** Declare a forwarding element. */
    void addSwitch(const std::string &name, SwitchParams params);

    bool contains(const std::string &name) const
    {
        return _elements.count(name) > 0;
    }

    /**
     * Home an element on a logical process. Must precede the
     * connect() calls naming it (links live on their source
     * element's queue).
     */
    void assign(const std::string &element,
                sim::par::LogicalProcess &lp);

    /** Full-duplex link between two declared elements; one joining
     * two endpoints is a route at once (no finalize() needed). */
    void connect(const std::string &a, const std::string &b,
                 FabricLinkParams params);

    /**
     * Compute routes: per-element next-hop tables by BFS hop count,
     * neighbours visited in sorted name order so equal-cost paths
     * break ties deterministically. Call once, after connect().
     */
    void finalize();

    /** Reroute cross-LP links through engine channels (lookahead =
     * wire latency). Call after the last connect(). */
    void partition(sim::par::ParallelEngine &engine);

    /** Route known from @p src to @p dst? */
    bool reachable(const std::string &src,
                   const std::string &dst) const;

    /** Links on the src -> dst path (post-finalize; 0 if none). */
    std::size_t hopCount(const std::string &src,
                         const std::string &dst) const;

    /**
     * Send @p bytes from endpoint @p src to endpoint @p dst;
     * @p delivered runs on @p dst's LP after the last hop, as that
     * hop's delivery event (a direct route costs one event). Must be
     * invoked from @p src's LP.
     */
    void send(const std::string &src, const std::string &dst,
              std::uint64_t bytes,
              sim::EventQueue::Callback delivered);

    /** Messages forwarded by switches (each hop through one). */
    std::uint64_t relayedMessages() const;

    /** Worst egress output-queue delay seen anywhere, nanoseconds. */
    double maxQueueDelayNs() const;

    /** Deepest any egress queue ever got, in messages. */
    std::uint64_t maxQueueHighWater() const;

    /**
     * Visit every directed link as (key, link, home LP) in sorted
     * key order; home is the *source* element's LP (nullptr when
     * unassigned). The timeline wiring uses this to hang per-port
     * probes on the LP that owns each egress queue.
     */
    void forEachLink(
        const std::function<void(const std::string &, FabricLink &,
                                 sim::par::LogicalProcess *)> &fn);

    /**
     * Register per-link stats under "<prefix>.<src>-><dst>" and
     * per-switch forwarding counters under "<prefix>.sw.<name>".
     */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix);

    /**
     * Register a LatencySpike fault point per directed link as
     * "<prefix>.<src>-><dst>". A non-null @p homeFilter restricts
     * registration to links homed on that LP, so partitioned rigs
     * can keep one fault registry per LP.
     */
    void registerFaultPoints(
        sim::fault::Registry &reg, const std::string &prefix,
        const sim::par::LogicalProcess *homeFilter = nullptr);

  private:
    struct Element
    {
        bool isSwitch = false;
        SwitchParams sw;
        sim::par::LogicalProcess *home = nullptr;
        std::uint32_t ports = 0;
        std::vector<std::string> neighbours; ///< sorted by insertion
        sim::Counter relayed;
        sim::Counter relayedBytes;
    };

    struct Hop
    {
        FabricLink *link;
        Element *from;
    };

    using Path = std::vector<Hop>;

    std::string _name;
    sim::EventQueue &_eq;
    std::map<std::string, Element> _elements;
    // key: "src->dst" directed.
    std::map<std::string, std::unique_ptr<FabricLink>> _links;
    // key: "src->dst" endpoint pairs, post-finalize.
    std::map<std::string, Path> _routes;
    bool _finalized = false;

    struct Msg;
    void step(std::shared_ptr<Msg> msg, std::size_t hop);

    Element &element(const std::string &name);
    sim::EventQueue &queueOf(const std::string &element);
};

} // namespace tf::net

#endif // TF_NET_SWITCH_HH
