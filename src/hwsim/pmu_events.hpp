#pragma once

#include <array>
#include <string_view>

namespace ecotune::hwsim {

/// The 56 standardized PAPI preset events supported by the simulated
/// platform (paper Sec. IV-A: "Our experimental platform supports 56
/// standardized PAPI counters"). Names follow the real PAPI presets.
enum class PmuEvent : int {
  kL1_DCM,   ///< L1 data cache misses
  kL1_ICM,   ///< L1 instruction cache misses
  kL2_DCM,   ///< L2 data cache misses
  kL2_ICM,   ///< L2 instruction cache misses
  kL1_TCM,   ///< L1 total cache misses
  kL2_TCM,   ///< L2 total cache misses
  kL3_TCM,   ///< L3 total cache misses
  kL3_LDM,   ///< L3 load misses
  kTLB_DM,   ///< data TLB misses
  kTLB_IM,   ///< instruction TLB misses
  kL1_LDM,   ///< L1 load misses
  kL1_STM,   ///< L1 store misses
  kL2_LDM,   ///< L2 load misses
  kL2_STM,   ///< L2 store misses
  kSTL_ICY,  ///< cycles with no instruction issue
  kFUL_ICY,  ///< cycles with maximum instruction issue
  kSTL_CCY,  ///< cycles with no instruction completion
  kFUL_CCY,  ///< cycles with maximum instruction completion
  kBR_UCN,   ///< unconditional branch instructions
  kBR_CN,    ///< conditional branch instructions
  kBR_TKN,   ///< conditional branches taken
  kBR_NTK,   ///< conditional branches not taken (paper Table I)
  kBR_MSP,   ///< conditional branches mispredicted (paper Table I)
  kBR_PRC,   ///< conditional branches correctly predicted
  kTOT_INS,  ///< total instructions retired
  kLD_INS,   ///< load instructions (paper Table I)
  kSR_INS,   ///< store instructions (paper Table I)
  kBR_INS,   ///< branch instructions
  kRES_STL,  ///< cycles stalled on any resource (paper Table I)
  kTOT_CYC,  ///< total cycles
  kLST_INS,  ///< load/store instructions completed
  kL2_DCA,   ///< L2 data cache accesses
  kL3_DCA,   ///< L3 data cache accesses
  kL2_DCR,   ///< L2 data cache reads (paper Table I)
  kL3_DCR,   ///< L3 data cache reads
  kL2_DCW,   ///< L2 data cache writes
  kL3_DCW,   ///< L3 data cache writes
  kL2_ICH,   ///< L2 instruction cache hits
  kL2_ICA,   ///< L2 instruction cache accesses
  kL3_ICA,   ///< L3 instruction cache accesses
  kL2_ICR,   ///< L2 instruction cache reads (paper Table I)
  kL3_ICR,   ///< L3 instruction cache reads
  kL2_TCA,   ///< L2 total cache accesses
  kL3_TCA,   ///< L3 total cache accesses
  kL2_TCR,   ///< L2 total cache reads
  kL3_TCR,   ///< L3 total cache reads
  kL2_TCW,   ///< L2 total cache writes
  kL3_TCW,   ///< L3 total cache writes
  kFDV_INS,  ///< floating-point divide instructions
  kFP_OPS,   ///< floating-point operations
  kSP_OPS,   ///< single-precision FP operations
  kDP_OPS,   ///< double-precision FP operations
  kVEC_SP,   ///< single-precision vector instructions
  kVEC_DP,   ///< double-precision vector instructions
  kREF_CYC,  ///< reference clock cycles
  kFP_INS,   ///< floating-point instructions
  kCount     ///< number of preset events (56)
};

/// Number of preset events.
inline constexpr int kPmuEventCount = static_cast<int>(PmuEvent::kCount);

/// PAPI-style name, e.g. "PAPI_BR_NTK".
[[nodiscard]] std::string_view pmu_event_name(PmuEvent e);

/// All preset events in enum order.
[[nodiscard]] const std::array<PmuEvent, kPmuEventCount>& all_pmu_events();

}  // namespace ecotune::hwsim
