/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders callbacks by (tick, priority, sequence).
 * Sequence numbers make same-tick ordering deterministic: events
 * scheduled first run first. All simulation state advances only through
 * this queue, so every run with the same seed is bit-reproducible.
 *
 * Hot-path design (see DESIGN.md §10):
 *  - The heap is an owned vector of small POD entries ordered with
 *    std::push_heap/std::pop_heap; callbacks live in side slots, so
 *    heap sifts move 32-byte PODs and never touch a closure.
 *  - Slots live in fixed-size chunks that never move, so the winning
 *    callback is invoked in its slot: a running callback may schedule
 *    (growing the slot storage) without invalidating itself. Each
 *    closure is relocated once per event, from the caller into its
 *    slot; schedule(), scheduleIn() and SimObject::after() pass it on
 *    by rvalue reference.
 *  - Liveness is generation-based: an EventId encodes (slot,
 *    generation). deschedule() is O(1) — it destroys the slot's
 *    callback eagerly (releasing captured shared state immediately),
 *    recycles the slot under a bumped generation, and leaves a dead
 *    POD entry behind. A dead entry is recognised at pop time by its
 *    stale generation. A firing event's generation is bumped before
 *    its callback runs, so descheduling it from inside is a no-op;
 *    its slot is recycled once the callback returns.
 *  - Dead entries are physically bounded: when they outnumber live
 *    ones (beyond a small floor) the heap is compacted in place, so
 *    cancel-heavy workloads (ack-timer churn) cannot inflate every
 *    push/pop to log(live + dead).
 */

#ifndef TF_SIM_EVENT_QUEUE_HH
#define TF_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace/buffer.hh"

namespace tf::sim {

/** Relative ordering of events that fire on the same tick. */
enum class EventPriority : int {
    ClockEdge = 0,   ///< clock-domain edges fire first
    Default = 50,
    Stats = 90,      ///< sampling runs after state updates
    Teardown = 100,
};

class EventQueue
{
  public:
    using Callback = EventCallback;

    /** Opaque handle identifying a scheduled event (for deschedule). */
    using EventId = std::uint64_t;
    static constexpr EventId invalidEvent = 0;

    /**
     * Compaction floor: dead heap entries are tolerated until they
     * exceed both this floor and the live entry count. Bound on the
     * physical heap: heapSize() <= 2 * pending() + kCompactMinDead.
     */
    static constexpr std::size_t kCompactMinDead = 64;

    /** Slots per storage chunk (a power of two). */
    static constexpr std::uint32_t kSlotChunk = 256;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @return a handle usable with deschedule().
     */
    EventId schedule(Tick when, Callback &&cb,
                     EventPriority prio = EventPriority::Default);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, Callback &&cb,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_now + delay, std::move(cb), prio);
    }

    /**
     * Cancel a previously scheduled event. O(1): the callback (and
     * everything it captured) is destroyed immediately; only a small
     * POD entry stays in the heap until it is popped or compacted
     * away. Cancelling an already-fired or unknown id is a no-op.
     */
    void deschedule(EventId id);

    /** Number of events still scheduled (excluding cancelled ones). */
    std::size_t pending() const { return _live; }

    /** True when no runnable events remain. */
    bool empty() const { return _live == 0; }

    /**
     * Run events until the queue drains or @p limit is reached.
     * @param limit absolute stop time; events at t > limit stay queued.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Run at most @p maxEvents events (drain order). */
    std::uint64_t runEvents(std::uint64_t maxEvents);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed.value(); }

    /**
     * Advance time to @p when without running anything before it.
     * Only legal when nothing is scheduled before @p when.
     */
    void warp(Tick when);

    /**
     * Absolute time of the earliest live event, or maxTick when the
     * queue is drained. Purges cancelled entries off the heap top as
     * a side effect (they carry no information). The parallel engine
     * uses this to compute the next conservative window floor.
     */
    Tick nextEventTick();

    // ---- kernel health (telemetry) ----

    /** Physical heap occupancy, live + not-yet-reclaimed dead. */
    std::size_t heapSize() const { return _heap.size(); }

    /** Cancelled (but not yet reclaimed) entries still in the heap. */
    std::size_t deadEntries() const { return _dead; }

    /** Lifetime peak of the physical heap occupancy. */
    std::uint64_t heapHighWater() const { return _highWater.value(); }

    /** Events cancelled via deschedule() over the queue's lifetime. */
    std::uint64_t cancelled() const { return _cancelled.value(); }

    /** Dead-entry compaction passes over the queue's lifetime. */
    std::uint64_t compactions() const { return _compactions.value(); }

    /** Attach kernel counters ("sim.eq.*") for telemetry export. */
    void attachStats(StatSet &set);

    /**
     * This queue's span-trace buffer (see src/sim/trace). One buffer
     * per queue keeps recording single-writer in the parallel engine
     * (one LP = one queue = one thread), which is what lets the
     * tracing layer stay lock-free.
     */
    trace::TraceBuffer &trace() { return _trace; }
    const trace::TraceBuffer &trace() const { return _trace; }

  private:
    /**
     * Heap ordering key. The callback is *not* here: entries are
     * relocated O(log n) times per event by the heap algorithms, and
     * dead ones linger until compaction, so they must stay small and
     * trivially movable.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq; ///< global schedule order, same-tick FIFO
        std::uint32_t slot;
        std::uint32_t gen;
        std::int32_t prio;
    };

    /** Callback storage, recycled through a freelist. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
    };
    using SlotChunk = std::array<Slot, kSlotChunk>;
    static constexpr unsigned kSlotShift = std::countr_zero(kSlotChunk);
    static_assert(std::has_single_bit(kSlotChunk));

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    static constexpr EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) << 32) | gen;
    }

    Slot &
    slotAt(std::uint32_t slot) const
    {
        return (*_slots[slot >> kSlotShift])[slot & (kSlotChunk - 1)];
    }
    std::uint32_t allocSlot();
    /** Invalidate every id and heap entry naming the slot's current
     *  incarnation. */
    static void retire(Slot &s);
    /** True when the heap entry's event was cancelled or already ran. */
    bool
    stale(const Entry &e) const
    {
        return slotAt(e.slot).gen != e.gen;
    }
    void maybeCompact();
    void checkOccupancyBound() const;
    template <typename Stop> std::uint64_t drain(Tick limit, Stop stop);

    std::vector<Entry> _heap;
    std::vector<std::unique_ptr<SlotChunk>> _slots;
    std::uint32_t _slotCount = 0; ///< slots handed out so far
    std::vector<std::uint32_t> _freeSlots;
    std::size_t _live = 0;
    std::size_t _dead = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    Counter _executed;
    Counter _cancelled;
    Counter _compactions;
    Counter _highWater;
    trace::TraceBuffer _trace;
};

} // namespace tf::sim

#endif // TF_SIM_EVENT_QUEUE_HH
