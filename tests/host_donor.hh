/**
 * @file
 * The host/donor pair the agent, control-plane and failover-repair
 * tests share: two sys::Nodes at 4 MiB sections (so page counts stay
 * small and exact), a flow::Datapath from hostA's M1 window to
 * hostB's PASIDs and DRAM, and a control plane on the event queue
 * with both hosts and the datapath registered. Nothing is stolen,
 * attached or allocated: each test does that itself.
 */

#ifndef TF_TESTS_HOST_DONOR_HH
#define TF_TESTS_HOST_DONOR_HH

#include <gtest/gtest.h>

#include "ctrl/control_plane.hh"
#include "system/node.hh"

namespace tf::test {

struct HostDonorFixture : ::testing::Test
{
    static constexpr std::uint64_t kSection = 1 << 22; // 4 MiB
    static constexpr std::uint64_t kPage = 64 * 1024;
    static constexpr std::uint64_t kWindowSize = 1ULL << 28; // 256 MiB
    static inline const std::string kAgentToken = "agent-secret";
    static inline const std::string kAdmin = "admin-tok";
    static inline const std::string kObserver = "observer-tok";

    /** hostA boots one section, the donor hostB eight. */
    explicit HostDonorFixture(flow::FlowParams fp = {})
        : hostA("hostA", eq, nodeParams(1)),
          hostB("hostB", eq, nodeParams(8)),
          dp("dp", eq, fp,
             ocapi::M1Window{flow::kWindowBase, kWindowSize},
             hostB.pasids(), hostB.dram(), rng, kSection),
          cp(kAgentToken, eq)
    {
        hostA.attachDatapath(dp);
        cp.addUser(kAdmin, ctrl::Role::Admin);
        cp.addUser(kObserver, ctrl::Role::Observer);
        cp.registerHost("hostA", hostA.agent(), hostA.mm());
        cp.registerHost("hostB", hostB.agent(), hostB.mm());
        cp.registerDatapath("hostA", "hostB", dp);
    }

    sim::EventQueue eq;
    sim::Rng rng{7};
    sys::Node hostA;
    sys::Node hostB;
    flow::Datapath dp;
    ctrl::ControlPlane cp;

    // Short handles for what the tests touch on almost every line.
    os::MemoryManager &mmA = hostA.mm();
    os::MemoryManager &mmB = hostB.mm();
    agent::Agent &agentA = hostA.agent();
    agent::Agent &agentB = hostB.agent();
    const os::NodeId tflowNode = hostA.tflowNode();
    const os::NodeId localB = hostB.localNode();

  private:
    static sys::NodeParams
    nodeParams(std::uint64_t bootSections)
    {
        sys::NodeParams np;
        np.sectionBytes = kSection;
        np.pageBytes = kPage;
        np.bootSections = bootSections;
        np.agentToken = kAgentToken;
        return np;
    }
};

} // namespace tf::test

#endif // TF_TESTS_HOST_DONOR_HH
