/**
 * @file
 * Page-cache tests: hit/miss/eviction clock order, dirty write-back
 * exactly-once under injected remote errors, fill-error propagation,
 * hwpoison refault through the miss path, run-to-run determinism,
 * and the cache interposed on a full disaggregated testbed.
 *
 * Most tests drive a PageCache directly against a scripted donor (a
 * BackingStore behind a fixed delay that can be told to fail remote
 * transactions), so error paths fire deterministically without the
 * control plane tearing down a single-channel flow.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "mem/backing_store.hh"
#include "system/testbed.hh"

using namespace tf;
using namespace tf::sys;

namespace {

constexpr std::uint64_t kPage = 8192;
constexpr mem::Addr kBase = 0x100000000ULL;

/** Donor memory behind a fixed delay with switchable error injection. */
struct ScriptedDonor
{
    sim::EventQueue &eq;
    mem::BackingStore store;
    /** Successful writes applied, per line address (exactly-once). */
    std::map<mem::Addr, int> applied;
    int failNext = 0;   ///< error-complete this many txns, then heal
    bool failAll = false;
    sim::Tick delay = sim::nanoseconds(500);

    explicit ScriptedDonor(sim::EventQueue &q) : eq(q) {}

    void
    issue(mem::TxnPtr txn)
    {
        bool fail = failAll;
        if (!fail && failNext > 0) {
            --failNext;
            fail = true;
        }
        eq.scheduleIn(delay, [this, fail, txn]() mutable {
            if (fail) {
                txn->error = true;
            } else if (txn->type == mem::TxnType::ReadReq) {
                txn->data.assign(txn->size, 0);
                store.read(txn->addr, txn->data.data(), txn->size);
            } else {
                store.write(txn->addr, txn->data.data(), txn->size);
                ++applied[txn->addr];
            }
            txn->makeResponse();
            txn->complete();
        });
    }
};

/** Records one access's completion. */
struct Probe
{
    int done = 0;
    bool error = false;
    std::vector<std::uint8_t> data;
};

struct PageCacheFixture : ::testing::Test
{
    sim::EventQueue eq;
    std::unique_ptr<Node> node;
    std::unique_ptr<ScriptedDonor> donor;
    std::unique_ptr<os::PageCache> pc;

    void
    SetUp() override
    {
        NodeParams np;
        np.pageBytes = kPage;
        node = std::make_unique<Node>("n", eq, np);
        donor = std::make_unique<ScriptedDonor>(eq);
    }

    /** Build the cache; lowWatermark 0 keeps the provider dormant so
     *  eviction order is exactly the clock's. */
    void
    makeCache(std::uint32_t budget, std::uint32_t low = 0,
              std::uint32_t high = 0)
    {
        os::PageCacheParams p;
        p.pageBytes = kPage;
        p.frameBudget = budget;
        p.partitions = 2;
        p.maxInflightFills = 2;
        p.maxInflightFlushes = 1;
        p.lineMlp = 8;
        p.lowWatermark = low;
        p.highWatermark = high;
        ScriptedDonor *d = donor.get();
        pc = std::make_unique<os::PageCache>(
            "pc", eq, p, node->mm(), node->localNode(), node->dram(),
            [d](mem::TxnPtr txn) { d->issue(std::move(txn)); });
    }

    static mem::Addr
    pageAddr(int i)
    {
        return kBase + static_cast<mem::Addr>(i) * kPage;
    }

    void
    read(mem::Addr addr, Probe &p)
    {
        auto txn = mem::makeTxn(mem::TxnType::ReadReq, addr);
        txn->onComplete = [&p](mem::MemTxn &t) {
            ++p.done;
            p.error = t.error;
            p.data = t.data;
        };
        pc->access(std::move(txn));
    }

    void
    write(mem::Addr addr, std::uint8_t byte, Probe &p)
    {
        auto txn = mem::makeTxn(mem::TxnType::WriteReq, addr);
        txn->data.assign(mem::cachelineBytes, byte);
        txn->onComplete = [&p](mem::MemTxn &t) {
            ++p.done;
            p.error = t.error;
        };
        pc->access(std::move(txn));
    }

    /** Read and drain; returns data[0] (asserts success). */
    std::uint8_t
    readByte(mem::Addr addr)
    {
        Probe p;
        read(addr, p);
        eq.run();
        EXPECT_EQ(p.done, 1);
        EXPECT_FALSE(p.error);
        EXPECT_GE(p.data.size(), 1u);
        return p.data.empty() ? 0 : p.data[0];
    }
};

} // namespace

TEST_F(PageCacheFixture, MissThenHitServesDonorData)
{
    makeCache(4);
    for (int i = 0; i < 4; ++i)
        donor->store.write64(pageAddr(i), 0xA0 + i);

    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(readByte(pageAddr(i)), 0xA0 + i);
    EXPECT_EQ(pc->misses(), 4u);
    EXPECT_EQ(pc->fills(), 4u);
    EXPECT_EQ(pc->hits(), 0u);
    EXPECT_EQ(pc->residentPages(), 4u);
    EXPECT_EQ(pc->freeFrames(), 0u);

    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(readByte(pageAddr(i)), 0xA0 + i);
    EXPECT_EQ(pc->hits(), 4u);
    EXPECT_EQ(pc->misses(), 4u);
    EXPECT_EQ(pc->fills(), 4u); // hits refetch nothing
    EXPECT_DOUBLE_EQ(pc->hitRate(), 0.5);
}

TEST_F(PageCacheFixture, ClockEvictsInSecondChanceOrder)
{
    makeCache(4);
    for (int i = 0; i < 4; ++i)
        readByte(pageAddr(i)); // fill A..D, all referenced
    for (int i = 0; i < 4; ++i)
        readByte(pageAddr(i)); // 4 hits, re-reference

    // E misses: the first clock lap strips every reference bit, the
    // second evicts frame 0 (page A).
    readByte(pageAddr(4));
    EXPECT_EQ(pc->evictions(), 1u);

    // A misses again -- proof A was the victim -- and the hand, now
    // past frame 0, evicts B next.
    readByte(pageAddr(0));
    EXPECT_EQ(pc->misses(), 6u);
    EXPECT_EQ(pc->evictions(), 2u);

    // C and D survived both evictions.
    readByte(pageAddr(2));
    readByte(pageAddr(3));
    EXPECT_EQ(pc->hits(), 6u);
    EXPECT_EQ(pc->misses(), 6u);
    EXPECT_EQ(pc->residentPages(), 4u);
}

TEST_F(PageCacheFixture, DirtyEvictionWritesBackExactlyOnce)
{
    makeCache(2);
    Probe w;
    readByte(pageAddr(0));       // A clean
    write(pageAddr(1), 0x5B, w); // B dirty
    eq.run();
    ASSERT_EQ(w.done, 1);
    EXPECT_EQ(pc->dirtyPages(), 1u);

    // C evicts clean A; then A evicts dirty B (write-back) and clean
    // C in the same scan, so the miss is served without waiting.
    readByte(pageAddr(2));
    readByte(pageAddr(0));
    EXPECT_EQ(pc->writebacks(), 1u);
    EXPECT_EQ(pc->wbErrors(), 0u);
    for (std::uint32_t l = 0; l < kPage / mem::cachelineBytes; ++l) {
        mem::Addr line = pageAddr(1) + l * mem::cachelineBytes;
        EXPECT_EQ(donor->applied[line], 1) << "line " << l;
    }
    EXPECT_EQ(donor->store.read64(pageAddr(1)) & 0xff, 0x5BULL);

    // Refault B through the fill path: the donor copy round-trips.
    EXPECT_EQ(readByte(pageAddr(1)), 0x5B);
}

TEST_F(PageCacheFixture, WritebackRetriesAfterRemoteErrorExactlyOnce)
{
    makeCache(2);
    Probe w;
    write(pageAddr(0), 0x7E, w);
    eq.run();
    ASSERT_EQ(w.done, 1);

    // Channel-down analog: every remote txn error-completes. The
    // flush fails, the frame stays dirty-resident, the donor saw no
    // torn write applied.
    donor->failAll = true;
    pc->flushAll();
    eq.run();
    EXPECT_EQ(pc->wbErrors(), 1u);
    EXPECT_EQ(pc->writebacks(), 0u);
    EXPECT_EQ(pc->dirtyPages(), 1u);
    EXPECT_TRUE(donor->applied.empty());

    // Link back up: the retry lands the page exactly once and the
    // rescue keeps it resident and clean.
    donor->failAll = false;
    pc->flushAll();
    eq.run();
    EXPECT_EQ(pc->writebacks(), 1u);
    EXPECT_EQ(pc->dirtyPages(), 0u);
    EXPECT_EQ(pc->residentPages(), 1u);
    for (std::uint32_t l = 0; l < kPage / mem::cachelineBytes; ++l) {
        mem::Addr line = pageAddr(0) + l * mem::cachelineBytes;
        EXPECT_EQ(donor->applied[line], 1) << "line " << l;
    }
    EXPECT_EQ(donor->store.read64(pageAddr(0)) & 0xff, 0x7EULL);

    // Still servable without a refetch.
    std::uint64_t fills = pc->fills();
    EXPECT_EQ(readByte(pageAddr(0)), 0x7E);
    EXPECT_EQ(pc->fills(), fills);
}

TEST_F(PageCacheFixture, FillErrorPropagatesThenRetrySucceeds)
{
    makeCache(4);
    donor->store.write64(pageAddr(0), 0x3C);

    donor->failNext = 1;
    Probe p;
    read(pageAddr(0), p);
    eq.run();
    EXPECT_EQ(p.done, 1);
    EXPECT_TRUE(p.error);
    EXPECT_EQ(pc->fillErrors(), 1u);
    EXPECT_EQ(pc->residentPages(), 0u);
    EXPECT_EQ(pc->freeFrames(), 4u); // failed fill returns the frame

    EXPECT_EQ(readByte(pageAddr(0)), 0x3C);
    EXPECT_EQ(pc->fills(), 1u);
    EXPECT_EQ(pc->misses(), 2u);
}

TEST_F(PageCacheFixture, PoisonedFrameRefaultsThroughMissPath)
{
    makeCache(4);
    donor->store.write64(pageAddr(0), 0x44);
    EXPECT_EQ(readByte(pageAddr(0)), 0x44);

    EXPECT_TRUE(pc->poisonCleanPage());
    EXPECT_EQ(pc->poisonedFrames(), 1u);
    EXPECT_EQ(pc->residentPages(), 0u);
    EXPECT_EQ(pc->freeFrames(), 4u); // replacement frame allocated

    // The donor still holds the truth; the next touch refaults.
    EXPECT_EQ(readByte(pageAddr(0)), 0x44);
    EXPECT_EQ(pc->misses(), 2u);
    EXPECT_EQ(pc->fills(), 2u);

    // A dirty page is the only correct copy -- never poisonable.
    Probe w;
    write(pageAddr(0), 0x55, w);
    eq.run();
    ASSERT_EQ(w.done, 1);
    EXPECT_FALSE(pc->poisonCleanPage());
}

TEST_F(PageCacheFixture, ProviderKeepsFreeListBetweenWatermarks)
{
    makeCache(8, 2, 4);
    for (int i = 0; i < 8; ++i)
        readByte(pageAddr(i));
    // The provider woke when the free list dipped below the low
    // watermark and restocked it toward the high one; the last miss
    // may have taken one frame back since.
    eq.run();
    EXPECT_GE(pc->providerRuns(), 1u);
    EXPECT_GE(pc->freeFrames(), 2u);
    EXPECT_EQ(pc->residentPages() + pc->freeFrames(), 8u);
}

TEST(PageCacheDeterminism, RepeatRunsYieldIdenticalStats)
{
    // Mixed concurrent workload (reads + writes, working set over
    // budget, batched MLP); two fresh instances must agree exactly.
    auto run = [] {
        sim::EventQueue eq;
        NodeParams np;
        np.pageBytes = kPage;
        Node n("n", eq, np);
        ScriptedDonor donor(eq);
        os::PageCacheParams p;
        p.pageBytes = kPage;
        p.frameBudget = 8;
        p.partitions = 2;
        p.maxInflightFills = 2;
        p.maxInflightFlushes = 1;
        p.lowWatermark = 2;
        p.highWatermark = 4;
        os::PageCache pc("pc", eq, p, n.mm(), n.localNode(), n.dram(),
                         [&donor](mem::TxnPtr t) {
                             donor.issue(std::move(t));
                         });
        int completed = 0;
        for (int op = 0; op < 200; ++op) {
            int page = (op * 7919) % 24;
            mem::Addr addr = kBase +
                             static_cast<mem::Addr>(page) * kPage +
                             static_cast<mem::Addr>(op % 64) *
                                 mem::cachelineBytes;
            auto txn = mem::makeTxn(op % 3 == 0
                                        ? mem::TxnType::WriteReq
                                        : mem::TxnType::ReadReq,
                                    addr);
            if (txn->type == mem::TxnType::WriteReq)
                txn->data.assign(mem::cachelineBytes,
                                 static_cast<std::uint8_t>(op));
            txn->onComplete = [&completed](mem::MemTxn &t) {
                EXPECT_FALSE(t.error);
                ++completed;
            };
            pc.access(std::move(txn));
            if (op % 8 == 7)
                eq.run(); // drain the MLP batch
        }
        eq.run();
        EXPECT_EQ(completed, 200);
        return std::make_tuple(pc.hits(), pc.misses(), pc.evictions(),
                               pc.writebacks(), pc.fills(),
                               pc.providerRuns(), pc.hitRate(),
                               eq.now());
    };
    EXPECT_EQ(run(), run());
}

// ------------------------- full-stack path -------------------------

TEST(PageCacheTestbed, LocalSetupGetsNoCache)
{
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::Local;
    tp.enablePageCache = true;
    Testbed tb(eq, tp);
    EXPECT_EQ(tb.pageCache(), nullptr);
}

TEST(PageCacheTestbed, WindowAccessesRoundTripThroughCache)
{
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::SingleDisaggregated;
    tp.donatedBytes = 32ULL * 1024 * 1024;
    tp.node.pageBytes = kPage;
    tp.enablePageCache = true;
    tp.pageCache.frameBudget = 8;
    tp.pageCache.partitions = 2;
    tp.pageCache.maxInflightFills = 2;
    tp.pageCache.maxInflightFlushes = 1;
    tp.pageCache.lowWatermark = 2;
    tp.pageCache.highWatermark = 4;
    Testbed tb(eq, tp);
    ASSERT_NE(tb.pageCache(), nullptr);

    constexpr int kPages = 16; // 2x the frame budget
    int completed = 0;
    auto touch = [&](int page, bool isWrite) {
        mem::Addr addr = flow::kWindowBase +
                         static_cast<mem::Addr>(page) * kPage;
        auto txn = mem::makeTxn(isWrite ? mem::TxnType::WriteReq
                                        : mem::TxnType::ReadReq,
                                addr);
        if (isWrite)
            txn->data.assign(mem::cachelineBytes,
                             static_cast<std::uint8_t>(0xC0 + page));
        else
            txn->onComplete = [&completed, page](mem::MemTxn &t) {
                EXPECT_FALSE(t.error);
                ASSERT_GE(t.data.size(), 1u);
                EXPECT_EQ(t.data[0],
                          static_cast<std::uint8_t>(0xC0 + page));
                ++completed;
            };
        tb.serverA().issue(std::move(txn));
    };

    for (int i = 0; i < kPages; ++i) {
        touch(i, true);
        if (i % 4 == 3)
            eq.run();
    }
    eq.run();
    // Every page was dirtied; 16 pages through 8 frames evicted and
    // wrote back through the real datapath.
    os::PageCache &pc = *tb.pageCache();
    EXPECT_EQ(pc.misses(), static_cast<std::uint64_t>(kPages));
    EXPECT_GT(pc.evictions(), 0u);
    EXPECT_GT(pc.writebacks(), 0u);
    EXPECT_EQ(pc.fillErrors(), 0u);
    EXPECT_EQ(pc.wbErrors(), 0u);

    // Read everything back: evicted pages refault from the donor and
    // must return the bytes their write-back landed there.
    for (int i = 0; i < kPages; ++i) {
        touch(i, false);
        if (i % 4 == 3)
            eq.run();
    }
    eq.run();
    EXPECT_EQ(completed, kPages);
    EXPECT_GT(pc.hits() + pc.misses(),
              static_cast<std::uint64_t>(2 * kPages) - 1);
    EXPECT_EQ(tb.serverA().remoteAccesses(),
              static_cast<std::uint64_t>(2 * kPages));
    EXPECT_EQ(tb.serverA().remoteErrors(), 0u);
}
