#include "system/memory_path.hh"

namespace tf::sys {

void
MemoryPath::burst(os::AddressSpace &space,
                  std::vector<mem::Addr> vaddrs, bool write, int mlp,
                  std::function<void()> done)
{
    std::vector<Access> accesses;
    accesses.reserve(vaddrs.size());
    for (mem::Addr va : vaddrs)
        accesses.push_back(Access{va, write});
    burstMixed(space, std::move(accesses), mlp, std::move(done));
}

void
MemoryPath::burstMixed(os::AddressSpace &space,
                       std::vector<Access> accesses, int mlp,
                       std::function<void()> done,
                       bool streamingStores)
{
    auto st = std::make_shared<BurstState>();
    st->space = &space;
    st->done = std::move(done);

    // Cache filter (zero-time: hits cost CPU time, charged by the
    // workload model's per-op CPU component). The cache is
    // physically indexed, so translate first.
    for (const Access &acc : accesses) {
        mem::Addr line =
            mem::alignDown(acc.vaddr, mem::cachelineBytes);
        auto pa = st->space->translate(line);
        TF_ASSERT(pa.has_value(), "workload OOM: no frame for burst");

        if (acc.write && streamingStores) {
            // Full-line store stream: write memory directly, no
            // fill, no cache residency, no later write-back.
            _misses.inc();
            st->misses.push_back(Access{*pa, true});
            continue;
        }

        auto res = _node.cache().access(*pa, acc.write);
        if (res.hit) {
            _hits.inc();
            continue;
        }
        _misses.inc();
        // Loads fill; stores fill-for-ownership. Both are reads on
        // the bus, with dirty lines surfacing later as write-backs.
        st->misses.push_back(Access{*pa, false});

        if (res.writeback) {
            _writebacks.inc();
            // Victim addresses are already physical-line tags from
            // this node's cache; write them back asynchronously.
            auto wb = mem::makeTxn(mem::TxnType::WriteReq,
                                   res.victimAddr);
            _node.issue(std::move(wb));
        }
    }

    if (st->misses.empty()) {
        st->done();
        return;
    }
    pump(st, mlp);
}

void
MemoryPath::pump(const std::shared_ptr<BurstState> &st, int mlp)
{
    while (st->next < st->misses.size() && st->inFlight < mlp) {
        Access miss = st->misses[st->next++];
        ++st->inFlight;
        auto txn = mem::makeTxn(miss.write ? mem::TxnType::WriteReq
                                           : mem::TxnType::ReadReq,
                                miss.vaddr);
        txn->onComplete = [this, st, mlp](mem::MemTxn &) {
            --st->inFlight;
            if (st->next < st->misses.size()) {
                pump(st, mlp);
            } else if (st->inFlight == 0) {
                st->done();
            }
        };
        _node.issue(std::move(txn));
    }
}

} // namespace tf::sys
