/**
 * @file
 * A bare datapath on private donor memory, with no hosts or control
 * plane: the 1 GiB M1 window in 16 MiB sections, its own donor DRAM
 * and one PASID over kDonorBase. Callers attach their own sections.
 */

#ifndef TF_FLOW_RIG_HH
#define TF_FLOW_RIG_HH

#include "mem/backing_store.hh"
#include "sim/rng.hh"
#include "tflow/datapath.hh"

namespace tf::flow {

struct DatapathRig
{
    static constexpr std::uint64_t kWindowBytes = 1ULL << 30;
    static constexpr std::uint64_t kSectionBytes = 1ULL << 24;
    static constexpr mem::Addr kDonorBase = 0x100000000ULL;

    /** The datapath is @p name and draws from rng(@p seed). */
    DatapathRig(sim::EventQueue &eq, const std::string &name,
                std::uint64_t seed, FlowParams params = {},
                mem::DramParams dramParams = {});

    sim::Rng rng;
    mem::BackingStore store;
    mem::Dram dram;
    ocapi::PasidRegistry pasids;
    Datapath dp;
};

} // namespace tf::flow

#endif // TF_FLOW_RIG_HH
