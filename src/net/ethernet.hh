/**
 * @file
 * Message-level Ethernet for client traffic and scale-out.
 *
 * The paper's testbed wires the client machine to the servers over
 * 10 Gb/s Ethernet and, in the scale-out configuration, the two
 * servers to each other over 100 Gb/s Ethernet (Section VI-A). App
 * models exchange whole request/response messages; a link charges
 * serialisation at line rate plus a per-message overhead, then a
 * fixed one-way latency (switch + kernel network stack), which is
 * what makes scale-out's extra network hops expensive relative to
 * ld/st disaggregation. A point-to-point link is a fabric route with
 * no switch on it, so Network is a view over a switchless Fabric.
 */

#ifndef TF_NET_ETHERNET_HH
#define TF_NET_ETHERNET_HH

#include <string>

#include "net/switch.hh"

namespace tf::net {

struct EthParams
{
    /** Line rate, bytes per second. */
    double bandwidthBps = 10e9 / 8;
    /**
     * Fixed one-way message latency: NIC + switch + kernel stack.
     * The paper's Memcached local round trip is ~600 us dominated by
     * software; we charge the network-stack share here.
     */
    sim::Tick latency = sim::microseconds(25);
    /** Per-message CPU/NIC overhead added to serialisation. */
    sim::Tick perMessageOverhead = sim::microseconds(2);

    static EthParams
    tenGig()
    {
        return EthParams{10e9 / 8, sim::microseconds(25),
                         sim::microseconds(2)};
    }

    static EthParams
    hundredGig()
    {
        return EthParams{100e9 / 8, sim::microseconds(15),
                         sim::microseconds(1)};
    }
};

/**
 * Named endpoints with full-duplex links between pairs, addressed by
 * name. A message only travels a link connect() made: the Fabric is
 * never finalized, so endpoints do not relay. Per-link stats and
 * LatencySpike fault points are named "<prefix>.<src>-><dst>".
 */
class Network
{
  public:
    Network(std::string name, sim::EventQueue &eq)
        : _fabric(std::move(name), eq)
    {
    }

    /**
     * Home an endpoint on a logical process for partitioned runs.
     * Must precede the connect() calls naming the endpoint: each
     * directed link lives on its source endpoint's queue.
     */
    void
    assign(const std::string &endpoint, sim::par::LogicalProcess &lp)
    {
        declare(endpoint);
        _fabric.assign(endpoint, lp);
    }

    /** Route cross-LP links through channels; after every connect(). */
    void
    partition(sim::par::ParallelEngine &engine)
    {
        _fabric.partition(engine);
    }

    /** Create a full-duplex link between two endpoints. */
    void
    connect(const std::string &a, const std::string &b, EthParams p)
    {
        declare(a);
        declare(b);
        _fabric.connect(a, b, {p.bandwidthBps, p.latency,
                               p.perMessageOverhead});
    }

    bool
    connected(const std::string &a, const std::string &b) const
    {
        return _fabric.reachable(a, b);
    }

    /** @p delivered runs at @p dst after the one-way cost. */
    void
    send(const std::string &src, const std::string &dst,
         std::uint64_t bytes, sim::EventQueue::Callback delivered)
    {
        _fabric.send(src, dst, bytes, std::move(delivered));
    }

    void
    registerStats(sim::StatsRegistry &reg, const std::string &prefix)
    {
        _fabric.registerStats(reg, prefix);
    }

    /** Must follow every connect() call. */
    void
    registerFaultPoints(sim::fault::Registry &reg,
                        const std::string &prefix)
    {
        _fabric.registerFaultPoints(reg, prefix);
    }

  private:
    Fabric _fabric;

    void
    declare(const std::string &endpoint)
    {
        if (!_fabric.contains(endpoint))
            _fabric.addEndpoint(endpoint);
    }
};

} // namespace tf::net

#endif // TF_NET_ETHERNET_HH
