#include "hwsim/pmu_events.hpp"

#include "common/error.hpp"

namespace ecotune::hwsim {
namespace {

/// PAPI-style preset names, in PmuEvent order.
constexpr std::array<std::string_view, kPmuEventCount> kNames{
    "PAPI_L1_DCM", "PAPI_L1_ICM", "PAPI_L2_DCM", "PAPI_L2_ICM", "PAPI_L1_TCM",
    "PAPI_L2_TCM", "PAPI_L3_TCM", "PAPI_L3_LDM", "PAPI_TLB_DM", "PAPI_TLB_IM",
    "PAPI_L1_LDM", "PAPI_L1_STM", "PAPI_L2_LDM", "PAPI_L2_STM", "PAPI_STL_ICY",
    "PAPI_FUL_ICY", "PAPI_STL_CCY", "PAPI_FUL_CCY", "PAPI_BR_UCN", "PAPI_BR_CN",
    "PAPI_BR_TKN", "PAPI_BR_NTK", "PAPI_BR_MSP", "PAPI_BR_PRC", "PAPI_TOT_INS",
    "PAPI_LD_INS", "PAPI_SR_INS", "PAPI_BR_INS", "PAPI_RES_STL", "PAPI_TOT_CYC",
    "PAPI_LST_INS", "PAPI_L2_DCA", "PAPI_L3_DCA", "PAPI_L2_DCR", "PAPI_L3_DCR",
    "PAPI_L2_DCW", "PAPI_L3_DCW", "PAPI_L2_ICH", "PAPI_L2_ICA", "PAPI_L3_ICA",
    "PAPI_L2_ICR", "PAPI_L3_ICR", "PAPI_L2_TCA", "PAPI_L3_TCA", "PAPI_L2_TCR",
    "PAPI_L3_TCR", "PAPI_L2_TCW", "PAPI_L3_TCW", "PAPI_FDV_INS", "PAPI_FP_OPS",
    "PAPI_SP_OPS", "PAPI_DP_OPS", "PAPI_VEC_SP", "PAPI_VEC_DP", "PAPI_REF_CYC",
    "PAPI_FP_INS",
};

}  // namespace

std::string_view pmu_event_name(PmuEvent e) {
  const int i = static_cast<int>(e);
  ensure(i >= 0 && i < kPmuEventCount, "pmu_event_name: invalid event");
  return kNames[static_cast<std::size_t>(i)];
}

const std::array<PmuEvent, kPmuEventCount>& all_pmu_events() {
  static const auto events = [] {
    std::array<PmuEvent, kPmuEventCount> a{};
    for (int i = 0; i < kPmuEventCount; ++i) a[static_cast<std::size_t>(i)] =
        static_cast<PmuEvent>(i);
    return a;
  }();
  return events;
}

}  // namespace ecotune::hwsim
