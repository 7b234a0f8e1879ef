/**
 * @file
 * End-to-end property tests: random mixed traffic through the full
 * datapath checked against a shadow reference memory, swept over
 * frame loss and channel bonding; plus a two-tenant control-plane
 * scenario sharing the physical channels.
 */

#include <gtest/gtest.h>

#include <map>

#include "system/composition.hh"
#include "tflow/rig.hh"

using namespace tf;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

namespace {

using flow::kWindowBase;
constexpr std::uint64_t kSection = 1ULL << 24;

// gtest prints a param without operator<< as its object bytes, and
// ctest names each instance after that dump, so the padding after
// `bonded` is spelled out: an indeterminate byte would rename the
// test from one build to the next.
struct FuzzParams
{
    double errorRate;
    bool bonded;
    std::uint8_t pad[7] = {};
    std::uint64_t seed;
};

class DatapathFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

} // namespace

TEST_P(DatapathFuzz, ShadowMemoryAgreesUnderRandomTraffic)
{
    const FuzzParams fp = GetParam();
    sim::EventQueue eq;
    flow::FlowParams params;
    params.frameErrorRate = fp.errorRate;
    params.ackTimeout = sim::microseconds(10);
    flow::DatapathRig rig(eq, "dp", fp.seed, params);
    flow::Datapath &dp = rig.dp;
    std::vector<int> channels = fp.bonded ? std::vector<int>{0, 1}
                                          : std::vector<int>{0};
    dp.attach(0, flow::DatapathRig::kDonorBase, 1, channels);

    // Shadow model: last value written per line. ThymesisFlow
    // guarantees per-line ordering only through completion: issue a
    // new access to a line only after the previous one finished.
    constexpr int kLines = 64;
    std::map<int, std::uint8_t> shadow; // line -> expected fill byte
    std::vector<bool> busy(kLines, false);
    int issued = 0;
    int mismatches = 0;
    const int total = 4000;
    sim::Rng traffic(fp.seed ^ 0xabcdef);

    std::function<void()> issueOne = [&]() {
        if (issued >= total)
            return;
        // Find a non-busy line.
        int line = static_cast<int>(traffic.below(kLines));
        for (int tries = 0; busy[static_cast<std::size_t>(line)] &&
                            tries < kLines;
             ++tries)
            line = (line + 1) % kLines;
        if (busy[static_cast<std::size_t>(line)])
            return; // everything in flight; retried on completion
        ++issued;
        busy[static_cast<std::size_t>(line)] = true;
        Addr addr = kWindowBase +
                    static_cast<Addr>(line) * mem::cachelineBytes;
        bool write = traffic.chance(0.4);
        auto txn = mem::makeTxn(write ? TxnType::WriteReq
                                      : TxnType::ReadReq,
                                addr);
        if (write) {
            auto fill = static_cast<std::uint8_t>(traffic.below(256));
            txn->data.assign(mem::cachelineBytes, fill);
            shadow[line] = fill;
            txn->onComplete = [&, line](mem::MemTxn &t) {
                busy[static_cast<std::size_t>(line)] = false;
                if (t.error)
                    ++mismatches;
                issueOne();
            };
        } else {
            txn->onComplete = [&, line](mem::MemTxn &t) {
                busy[static_cast<std::size_t>(line)] = false;
                std::uint8_t expect =
                    shadow.count(line) ? shadow[line] : 0;
                if (t.error || t.data.size() != mem::cachelineBytes)
                    ++mismatches;
                else
                    for (auto byte : t.data)
                        if (byte != expect) {
                            ++mismatches;
                            break;
                        }
                issueOne();
            };
        }
        dp.issue(txn);
    };

    for (int i = 0; i < 32; ++i)
        issueOne();
    eq.run();

    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(issued, total);
    EXPECT_EQ(dp.compute().outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossBondingSeeds, DatapathFuzz,
    ::testing::Values(
        FuzzParams{.errorRate = 0.0, .bonded = false, .seed = 1},
        FuzzParams{.errorRate = 0.0, .bonded = true, .seed = 2},
        FuzzParams{.errorRate = 0.02, .bonded = false, .seed = 3},
        FuzzParams{.errorRate = 0.02, .bonded = true, .seed = 4},
        FuzzParams{.errorRate = 0.1, .bonded = true, .seed = 5},
        FuzzParams{.errorRate = 0.1, .bonded = false, .seed = 6}));

// ------------------------------------------------------------------
// Two tenants through the control plane, sharing physical channels.
// ------------------------------------------------------------------

TEST(MultiTenant, TwoFlowsShareChannelsIndependently)
{
    sim::EventQueue eq;
    sim::Rng rng(77);
    sys::Node hostA("A", eq, sys::NodeParams{});
    sys::Node hostB("B", eq, sys::NodeParams{});
    sys::CompositionParams params;
    params.donatedBytes = kSection;
    params.channels = 2;
    sys::Composition comp(eq, hostA, hostB, params, rng);
    ctrl::ControlPlane &cp = comp.controlPlane();
    flow::Datapath &dp = comp.datapath();

    // The composed flow plus a second tenant on one channel.
    std::uint64_t id1 = comp.allocationId();
    auto id2 = cp.allocate("admin", "A", "B", kSection, hostA.tflowNode(),
                           1, hostB.localNode());
    ASSERT_NE(id1, 0u);
    ASSERT_TRUE(id2.has_value());

    // Distinct network ids per allocation; both usable concurrently.
    const auto *r1 = cp.allocation(id1);
    const auto *r2 = cp.allocation(*id2);
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(r2, nullptr);
    EXPECT_NE(r1->attachment.networkId, r2->attachment.networkId);

    int completed = 0;
    for (const auto *rec : {r1, r2}) {
        Addr base = rec->attachment.hotplugBases.front();
        for (int i = 0; i < 64; ++i) {
            auto txn = mem::makeTxn(
                TxnType::ReadReq,
                base + static_cast<Addr>(i) * mem::cachelineBytes);
            txn->onComplete = [&](mem::MemTxn &t) {
                EXPECT_FALSE(t.error);
                ++completed;
            };
            dp.issue(txn);
        }
    }
    eq.run();
    EXPECT_EQ(completed, 128);

    // Tear down one tenant; the other keeps working.
    EXPECT_TRUE(cp.deallocate("admin", id1));
    auto txn = mem::makeTxn(TxnType::ReadReq,
                            r2->attachment.hotplugBases.front());
    bool ok = false;
    txn->onComplete = [&](mem::MemTxn &t) { ok = !t.error; };
    dp.issue(txn);
    eq.run();
    EXPECT_TRUE(ok);
}
