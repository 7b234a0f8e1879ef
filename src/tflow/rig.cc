#include "tflow/rig.hh"

#include "sim/logging.hh"

namespace tf::flow {

DatapathRig::DatapathRig(sim::EventQueue &eq, const std::string &name,
                         std::uint64_t seed, FlowParams params,
                         mem::DramParams dramParams)
    : rng(seed), dram(name + ".dram", eq, dramParams, &store),
      dp(name, eq, params, ocapi::M1Window{kWindowBase, kWindowBytes},
         pasids, dram, rng, kSectionBytes)
{
    ocapi::Pasid pasid = pasids.allocate();
    bool ok = pasids.registerRegion(pasid, kDonorBase, kWindowBytes);
    TF_ASSERT(ok, "%s: donor PASID region rejected", name.c_str());
    dp.stealing().setPasid(pasid);
}

} // namespace tf::flow
