/**
 * @file
 * End-to-end link-failure walkthrough: a 4-channel bonded
 * disaggregated-memory allocation composed through the control
 * plane loses a channel under load, degrades to ~3/4 bandwidth with
 * no data loss, and -- once every channel is gone -- is torn down
 * cleanly with the borrowed memory surprise-removed.
 *
 * Channel bandwidth is scaled down so the network, not the donor's
 * OpenCAPI link, is the bottleneck; the degradation is then visible
 * in the aggregate read bandwidth.
 */

#include <cstdio>
#include <functional>

#include "system/composition.hh"

using namespace tf;

namespace {

using flow::kWindowBase;
constexpr int kLines = 2048;

/** Closed-loop reads; returns achieved bandwidth in GB/s. */
double
measureReadBw(sim::EventQueue &eq, flow::Datapath &dp, mem::Addr base,
              int total, int window)
{
    sim::Tick start = eq.now();
    int issued = 0, done = 0, errors = 0;
    std::function<void()> pump = [&]() {
        while (issued < total && issued - done < window) {
            auto rd = mem::makeTxn(
                mem::TxnType::ReadReq,
                base + static_cast<mem::Addr>(issued % kLines) * 128);
            rd->onComplete = [&](mem::MemTxn &t) {
                ++done;
                if (t.error)
                    ++errors;
                pump();
            };
            ++issued;
            dp.issue(std::move(rd));
        }
    };
    pump();
    eq.run();
    double secs = sim::toNs(eq.now() - start) * 1e-9;
    if (errors > 0)
        std::printf("  (%d of %d reads errored)\n", errors, total);
    return static_cast<double>(done) * 128.0 / secs / 1e9;
}

} // namespace

int
main()
{
    sim::EventQueue eq;
    sim::Rng rng(13);

    // Compute host A borrows one section of donor host B over a
    // 4-channel datapath with fast failure detection.
    sys::NodeParams np;
    sys::Node host_a("hostA", eq, np);
    sys::Node host_b("hostB", eq, np);
    sys::CompositionParams params;
    params.flow.channels = 4;
    params.flow.channelBps = 3.125e9;
    params.flow.hostLinkBps = 100e9;
    params.flow.maxTags = 512;
    params.flow.maxReplayRounds = 4;
    params.flow.ackTimeout = sim::microseconds(2);
    params.donatedBytes = np.sectionBytes;
    params.channels = 4;
    sys::Composition comp(eq, host_a, host_b, params, rng);
    if (comp.allocationId() == 0) {
        std::printf("allocation failed\n");
        return 1;
    }
    flow::Datapath &dp = comp.datapath();
    ctrl::ControlPlane &cp = comp.controlPlane();
    const ctrl::AllocationRecord *rec = cp.allocation(comp.allocationId());
    agent::Attachment att = rec->attachment;
    mem::Addr base =
        kWindowBase +
        static_cast<mem::Addr>(att.sectionIndices.front()) * np.sectionBytes;
    std::printf("composed %llu MiB over %zu bonded channels\n",
                (unsigned long long)(np.sectionBytes >> 20),
                rec->channels.size());

    // Seed a pattern through the healthy fabric.
    for (int i = 0; i < kLines; ++i) {
        auto wr = mem::makeTxn(mem::TxnType::WriteReq,
                               base + static_cast<mem::Addr>(i) * 128);
        wr->data.assign(128, static_cast<std::uint8_t>(i * 31 + 7));
        dp.issue(wr);
    }
    eq.run();

    double healthy = measureReadBw(eq, dp, base, 8000, 256);
    std::printf("healthy read bandwidth:   %6.2f GB/s (4 channels)\n",
                healthy);

    // ---- lose one channel under load ----
    dp.failChannel(0);
    measureReadBw(eq, dp, base, 500, 256); // traffic drives detection
    double degraded = measureReadBw(eq, dp, base, 8000, 256);
    std::printf("degraded read bandwidth:  %6.2f GB/s (3 channels, "
                "%.0f%% of healthy)\n",
                degraded, 100.0 * degraded / healthy);

    // Nothing was lost: verify every byte survived the failover.
    int bad = 0, checked = 0;
    for (int i = 0; i < kLines; ++i) {
        auto rd = mem::makeTxn(mem::TxnType::ReadReq,
                               base + static_cast<mem::Addr>(i) * 128);
        auto expect = static_cast<std::uint8_t>(i * 31 + 7);
        rd->onComplete = [&bad, &checked, expect](mem::MemTxn &t) {
            ++checked;
            if (t.error || t.data.size() != 128) {
                ++bad;
                return;
            }
            for (auto byte : t.data)
                if (byte != expect) {
                    ++bad;
                    return;
                }
        };
        dp.issue(rd);
    }
    eq.run();
    std::printf("integrity after failover: %d/%d lines OK\n",
                checked - bad, checked);

    // ---- lose every remaining channel: clean teardown ----
    dp.failChannel(1);
    dp.failChannel(2);
    dp.failChannel(3);
    measureReadBw(eq, dp, base, 500, 256); // drive detection + repair
    std::printf("all channels lost: allocations=%zu, memory %s\n",
                cp.allocationCount(),
                host_a.mm().isOnline(att.hotplugBases.front())
                    ? "still online (BUG)"
                    : "surprise-removed");

    std::printf("\nfailover report\n");
    std::printf("  linkDownEvents     %llu\n",
                (unsigned long long)dp.linkDownEvents());
    std::printf("  reroutedRequests   %llu\n",
                (unsigned long long)dp.reroutedRequests());
    std::printf("  reroutedResponses  %llu\n",
                (unsigned long long)dp.reroutedResponses());
    std::printf("  degradedTxns       %llu\n",
                (unsigned long long)dp.routing().degradedTxns());
    std::printf("  unroutableDropped  %llu\n",
                (unsigned long long)dp.routing().unroutableDropped());
    std::printf("  cp repairs         %llu\n",
                (unsigned long long)cp.repairs());
    std::printf("  cp degrades        %llu\n",
                (unsigned long long)cp.degrades());
    std::printf("  cp teardowns       %llu\n",
                (unsigned long long)cp.teardowns());
    std::printf("  agent link events  %llu\n",
                (unsigned long long)host_a.agent().linkEventsObserved());
    return bad == 0 ? 0 : 1;
}
