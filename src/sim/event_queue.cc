#include "sim/event_queue.hh"

#include <algorithm>

namespace tf::sim {

EventQueue::EventId
EventQueue::schedule(Tick when, Callback &&cb, EventPriority prio)
{
    TF_ASSERT(when >= _now, "scheduling into the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)_now);
    std::uint32_t slot = allocSlot();
    Slot &s = slotAt(slot);
    std::uint32_t gen = s.gen;
    s.cb = std::move(cb); // the closure's one relocation
    _heap.push_back(Entry{when, ++_nextSeq, slot, gen,
                          static_cast<std::int32_t>(prio)});
    std::push_heap(_heap.begin(), _heap.end(), Later{});
    ++_live;
    if (_heap.size() > _highWater.value())
        _highWater.inc(_heap.size() - _highWater.value());
    return makeId(slot, gen);
}

void
EventQueue::deschedule(EventId id)
{
    std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
    std::uint32_t gen = static_cast<std::uint32_t>(id);
    if (gen == 0 || slot >= _slotCount || slotAt(slot).gen != gen)
        return; // already ran or running, cancelled, or never existed
    // Eager release: captured shared_ptrs die *now*, not when the dead
    // heap entry eventually reaches the top.
    Slot &s = slotAt(slot);
    s.cb.reset();
    retire(s);
    _freeSlots.push_back(slot);
    --_live;
    ++_dead;
    _cancelled.inc();
    maybeCompact();
    checkOccupancyBound();
}

std::uint32_t
EventQueue::allocSlot()
{
    if (!_freeSlots.empty()) {
        std::uint32_t slot = _freeSlots.back();
        _freeSlots.pop_back();
        return slot;
    }
    TF_ASSERT(_slotCount < UINT32_MAX, "event slot space exhausted");
    if ((_slotCount & (kSlotChunk - 1)) == 0)
        _slots.push_back(std::make_unique<SlotChunk>());
    return _slotCount++;
}

void
EventQueue::retire(Slot &s)
{
    // Bump the generation so any Entry (or EventId) still referring to
    // the old incarnation reads as stale; 0 is reserved for invalid.
    if (++s.gen == 0)
        ++s.gen;
}

void
EventQueue::maybeCompact()
{
    if (_dead <= kCompactMinDead || _dead <= _live)
        return;
    std::erase_if(_heap, [this](const Entry &e) { return stale(e); });
    std::make_heap(_heap.begin(), _heap.end(), Later{});
    _dead = 0;
    _compactions.inc();
}

void
EventQueue::checkOccupancyBound() const
{
    TF_ASSERT(_dead <= std::max(_live, kCompactMinDead),
              "dead heap entries exceed the compaction bound "
              "(%zu dead, %zu live)",
              _dead, _live);
}

template <typename Stop>
std::uint64_t
EventQueue::drain(Tick limit, Stop stop)
{
    std::uint64_t count = 0;
    while (!_heap.empty() && !stop(count)) {
        if (_heap.front().when > limit)
            break;
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        Entry e = _heap.back();
        _heap.pop_back();
        if (stale(e)) {
            --_dead;
            continue; // cancelled; callback was freed at deschedule
        }
        // Invoke the winner in its slot. Retiring it first makes a
        // reentrant deschedule of this event a no-op; the slot is not
        // free yet, so a reentrant schedule cannot reuse it, and the
        // chunk never moves when one grows the slot storage.
        Slot &s = slotAt(e.slot);
        retire(s);
        --_live;
        TF_ASSERT(e.when >= _now, "time went backwards");
        _now = e.when;
        _executed.inc();
        ++count;
        s.cb();
        s.cb.reset();
        _freeSlots.push_back(e.slot);
    }
    return count;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t count =
        drain(limit, [](std::uint64_t) { return false; });
    if (limit != maxTick && _now < limit)
        _now = limit;
    return count;
}

std::uint64_t
EventQueue::runEvents(std::uint64_t maxEvents)
{
    return drain(maxTick,
                 [maxEvents](std::uint64_t n) { return n >= maxEvents; });
}

Tick
EventQueue::nextEventTick()
{
    while (!_heap.empty() && stale(_heap.front())) {
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        _heap.pop_back();
        --_dead;
    }
    return _heap.empty() ? maxTick : _heap.front().when;
}

void
EventQueue::warp(Tick when)
{
    TF_ASSERT(when >= _now, "warping into the past");
    TF_ASSERT(_heap.empty() || _heap.front().when >= when,
              "warping past scheduled events");
    _now = when;
}

void
EventQueue::attachStats(StatSet &set)
{
    set.attach("executed", _executed, "events");
    set.attach("cancelled", _cancelled, "events",
               "descheduled before firing");
    set.attach("compactions", _compactions, "events",
               "dead-entry heap compaction passes");
    set.attach("heapHighWater", _highWater, "entries",
               "peak physical heap occupancy (live + dead)");
}

} // namespace tf::sim
