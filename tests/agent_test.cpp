/**
 * @file
 * Agent tests: memory-stealing role, compute-side attach/detach, and
 * the full agent-driven integration path (steal -> attach -> hotplug
 * -> allocate -> ld/st over the wire -> detach).
 */

#include <gtest/gtest.h>

#include "host_donor.hh"
#include "os/address_space.hh"

using namespace tf;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

namespace {

using flow::kWindowBase;
/** Two hosts: "compute" (hostA) and "donor" (hostB), one datapath. */
using AgentFixture = test::HostDonorFixture;

} // namespace

TEST_F(AgentFixture, StealReturnsWholeSections)
{
    auto donation =
        agentB.stealMemory(kAgentToken, 6 * 1024 * 1024, localB);
    ASSERT_TRUE(donation.has_value());
    EXPECT_EQ(donation->chunks.size(), 2u); // rounded up to 2 sections
    EXPECT_EQ(donation->bytes(), 2 * kSection);
    EXPECT_NE(donation->pasid, ocapi::invalidPasid);
    // Pinned regions registered for the C1 master.
    for (const auto &c : donation->chunks)
        EXPECT_TRUE(
            hostB.pasids().authorised(donation->pasid, c.base, 128));
    // Donor node lost the pages.
    EXPECT_EQ(mmB.freePages(localB), 6 * (kSection / kPage));
}

TEST_F(AgentFixture, StealFailsWhenNoFreeSections)
{
    auto big = agentB.stealMemory(kAgentToken, 9 * kSection, localB);
    EXPECT_FALSE(big.has_value());
    // Roll-back: everything still free.
    EXPECT_EQ(mmB.freePages(localB), 8 * (kSection / kPage));
    EXPECT_EQ(hostB.pasids().regionCount(), 0u);
}

TEST_F(AgentFixture, BadTokenRejected)
{
    EXPECT_FALSE(agentB.stealMemory("wrong", kSection, localB).has_value());
    EXPECT_EQ(agentB.rejectedCommands(), 1u);
}

TEST_F(AgentFixture, AttachHotplugsIntoNumaNode)
{
    auto donation = agentB.stealMemory(kAgentToken, 2 * kSection, localB);
    ASSERT_TRUE(donation.has_value());
    auto att =
        agentA.attachMemory(kAgentToken, dp, *donation, tflowNode, {0});
    ASSERT_TRUE(att.has_value());
    EXPECT_EQ(att->sectionIndices.size(), 2u);
    EXPECT_EQ(mmA.totalPages(tflowNode), 2 * (kSection / kPage));
    // Hotplugged physical ranges live inside the M1 window.
    for (Addr base : att->hotplugBases) {
        EXPECT_GE(base, kWindowBase);
        EXPECT_LT(base, kWindowBase + kWindowSize);
    }
}

TEST_F(AgentFixture, EndToEndLoadStoreOverDatapath)
{
    auto donation = agentB.stealMemory(kAgentToken, kSection, localB);
    ASSERT_TRUE(donation.has_value());
    auto att = agentA.attachMemory(kAgentToken, dp, *donation, tflowNode,
                                   {0, 1});
    ASSERT_TRUE(att.has_value());

    // Allocate a page from the new CPU-less NUMA node and store/load
    // through the full stack.
    os::AddressSpace as(mmA, hostA.localNode(),
                        os::AllocPolicy::bind({tflowNode}));
    Addr va = as.mmap(kPage);
    auto pa = as.translate(va);
    ASSERT_TRUE(pa.has_value());

    std::vector<std::uint8_t> payload(128, 0xc3);
    auto wr = mem::makeTxn(TxnType::WriteReq, *pa);
    wr->data = payload;
    bool wrote = false;
    wr->onComplete = [&](mem::MemTxn &t) {
        wrote = true;
        EXPECT_FALSE(t.error);
    };
    dp.issue(wr);
    eq.run();
    ASSERT_TRUE(wrote);

    auto rd = mem::makeTxn(TxnType::ReadReq, *pa);
    bool read_ok = false;
    rd->onComplete = [&](mem::MemTxn &t) {
        read_ok = !t.error && t.data == payload;
    };
    dp.issue(rd);
    eq.run();
    EXPECT_TRUE(read_ok);

    // The data physically resides in donor memory.
    Addr donor_ea = donation->chunks[0].base +
                    (*pa - att->hotplugBases[0]);
    std::vector<std::uint8_t> donor_bytes(128);
    hostB.store().read(donor_ea, donor_bytes.data(), 128);
    EXPECT_EQ(donor_bytes, payload);
}

TEST_F(AgentFixture, DetachBlockedWhilePagesInUse)
{
    auto donation = agentB.stealMemory(kAgentToken, kSection, localB);
    ASSERT_TRUE(donation.has_value());
    auto att =
        agentA.attachMemory(kAgentToken, dp, *donation, tflowNode, {0});
    ASSERT_TRUE(att.has_value());

    auto page = mmA.allocPageOn(tflowNode);
    ASSERT_TRUE(page.has_value());
    EXPECT_FALSE(agentA.detachMemory(kAgentToken, dp, *att));

    mmA.freePage(*page);
    EXPECT_TRUE(agentA.detachMemory(kAgentToken, dp, *att));
    EXPECT_TRUE(agentB.releaseDonation(kAgentToken, *donation));
    EXPECT_EQ(mmB.freePages(localB), 8 * (kSection / kPage));
}

TEST_F(AgentFixture, SectionIndicesReusedAfterDetach)
{
    auto d1 = agentB.stealMemory(kAgentToken, kSection, localB);
    ASSERT_TRUE(d1.has_value());
    auto a1 = agentA.attachMemory(kAgentToken, dp, *d1, tflowNode, {0});
    ASSERT_TRUE(a1.has_value());
    std::size_t idx = a1->sectionIndices[0];
    ASSERT_TRUE(agentA.detachMemory(kAgentToken, dp, *a1));
    ASSERT_TRUE(agentB.releaseDonation(kAgentToken, *d1));

    auto d2 = agentB.stealMemory(kAgentToken, kSection, localB);
    ASSERT_TRUE(d2.has_value());
    auto a2 = agentA.attachMemory(kAgentToken, dp, *d2, tflowNode, {0});
    ASSERT_TRUE(a2.has_value());
    EXPECT_EQ(a2->sectionIndices[0], idx);
}
