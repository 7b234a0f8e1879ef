/**
 * @file
 * Conservative parallel discrete-event engine.
 *
 * The simulation is partitioned into logical processes (LPs), each
 * owning a private EventQueue (src/sim/event_queue.hh) — one kernel
 * per simulated node or node group. LPs are coupled only through
 * LinkChannels, whose guaranteed minimum latencies yield the engine's
 * lookahead:
 *
 *     lookahead L = min over channels of minLatency()
 *
 * Execution proceeds in bounded windows. Each round the engine
 * computes the global floor F (the earliest pending event across all
 * LPs), then every LP independently executes its events in
 * [F, F + L): no message sent during the window can be due before
 * F + L, so no LP can affect another inside the window and the LPs
 * are free to run on separate worker threads. At the window barrier
 * the engine drains every channel and merges the messages into the
 * destination queues sorted by (tick, source LP, channel, sequence).
 *
 * Determinism: window boundaries are a pure function of queue state,
 * per-LP execution is single-threaded and seeded, and the barrier
 * merge imposes a fixed total order on cross-LP deliveries. The
 * worker count therefore cannot change any simulation outcome:
 * `jobs = 1` (which spawns no threads at all) and `jobs = N` produce
 * bit-identical event orderings, tick clocks, and statistics. With a
 * single LP — or no channels — the engine degenerates to plain
 * EventQueue::run semantics in the calling thread.
 *
 * Threading contract for components: everything built on an LP's
 * queue belongs to that LP; cross-partition interaction must go
 * through a LinkChannel (net::Fabric and ocapi::CrossingStage can
 * route through one — see their partition/bindChannel APIs).
 */

#ifndef TF_SIM_PARALLEL_ENGINE_HH
#define TF_SIM_PARALLEL_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/parallel/link_channel.hh"
#include "sim/parallel/lp.hh"

namespace tf::sim::par {

class ParallelEngine
{
  public:
    /** @param jobs worker-thread budget; clamped to the LP count. */
    explicit ParallelEngine(unsigned jobs = 1) : _jobs(jobs) {}

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Create the next logical process. Stable id = creation order. */
    LogicalProcess &addLp(std::string name);

    /**
     * Create a unidirectional channel src -> dst with a guaranteed
     * minimum latency (> 0, TF_ASSERT-enforced: zero lookahead would
     * deadlock a conservative engine). The engine's lookahead is the
     * minimum over all connected channels.
     */
    LinkChannel &connect(LogicalProcess &src, LogicalProcess &dst,
                         Tick minLatency, std::string name = "");

    void setJobs(unsigned jobs) { _jobs = jobs; }
    unsigned jobs() const { return _jobs; }

    /** Current lookahead; maxTick when no channels exist. */
    Tick lookahead() const;

    /**
     * Run every LP's events up to and including @p limit (windowed,
     * on min(jobs, lpCount) threads when jobs > 1). Returns events
     * executed. Like EventQueue::run, a finite limit warps every
     * LP's clock to @p limit on return.
     */
    std::uint64_t run(Tick limit = maxTick);

    std::size_t lpCount() const { return _lps.size(); }
    LogicalProcess &lp(std::size_t i) { return *_lps.at(i); }

    std::size_t channelCount() const { return _channels.size(); }
    LinkChannel &channel(std::size_t i) { return *_channels.at(i); }

    /** Synchronization windows executed over the engine's lifetime. */
    std::uint64_t windows() const { return _windows.value(); }

    /** Cross-LP messages merged over the engine's lifetime. */
    std::uint64_t merged() const { return _mergedTotal.value(); }

    /** Events executed across all LPs over the engine's lifetime. */
    std::uint64_t executed() const;

    /**
     * Register engine + per-LP kernel telemetry:
     *   <prefix>            windows / merged / lps / lookaheadNs
     *   <prefix>.lp<N>      sim.eq counters + activeWindows + merged
     *   <prefix>.chan<N>    per-channel sent/delivered
     * @p wallClock additionally exports each LP's barrierWaitNs —
     * wall-clock, hence non-deterministic; leave it off for runs
     * whose stats JSON must be byte-reproducible.
     */
    void attachStats(StatsRegistry &reg, const std::string &prefix,
                     bool wallClock = false);

  private:
    struct MergeItem
    {
        Tick when;
        LpId src;
        std::uint32_t chan;
        std::uint64_t seq;
        LinkChannel::Msg *msg;
    };

    Tick minNextEventTick();
    Tick windowRunTo(Tick floor, Tick la, Tick limit) const;
    /** Run one LP's window; updates its active-window counter. */
    void runLp(LogicalProcess &lp, Tick runTo);
    void mergeChannels();
    std::uint64_t runSerial(Tick limit);
    std::uint64_t runParallel(Tick limit, unsigned workers);
    void finishRun(Tick limit);

    std::vector<std::unique_ptr<LogicalProcess>> _lps;
    std::vector<std::unique_ptr<LinkChannel>> _channels;
    /** Channels inbound to each LP id, in channel-index order. */
    std::vector<std::vector<LinkChannel *>> _inbound;
    std::vector<MergeItem> _mergeScratch;
    unsigned _jobs;
    Counter _windows;
    Counter _mergedTotal;

    // Window state published to workers across the start barrier and
    // read back after it; the barrier provides the happens-before.
    Tick _runTo = 0;
    bool _stop = false;
};

} // namespace tf::sim::par

#endif // TF_SIM_PARALLEL_ENGINE_HH
