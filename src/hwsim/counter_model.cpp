#include "hwsim/counter_model.hpp"

#include <algorithm>

namespace ecotune::hwsim {

PmuCounts CounterModel::evaluate(const CpuSpec& spec, const KernelTraits& k,
                                 int threads, CoreFreq core,
                                 UncoreFreq uncore, const PerfResult& perf) {
  (void)threads;
  (void)uncore;
  PmuCounts c{};
  auto set = [&](PmuEvent e, double v) {
    c[static_cast<std::size_t>(static_cast<int>(e))] = std::max(0.0, v);
  };

  const double ins = k.total_instructions;
  const double loads = ins * k.load_fraction;
  const double stores = ins * k.store_fraction;
  const double lst = loads + stores;
  const double branches = ins * k.branch_fraction;
  const double br_cn = branches * k.branch_conditional_fraction;
  const double br_ucn = branches - br_cn;
  const double br_tkn = br_cn * k.branch_taken_rate;
  const double br_ntk = br_cn - br_tkn;
  const double br_msp = br_cn * k.branch_miss_rate;

  // Cache hierarchy: L1 misses feed L2, L2 misses feed L3, L3 misses feed
  // DRAM. Reads/writes split by the load/store mix.
  const double l1_ldm = loads * k.l1d_miss_rate;
  const double l1_stm = stores * k.l1d_miss_rate;
  const double l1_dcm = l1_ldm + l1_stm;
  const double l1_icm = ins * k.l1i_miss_rate;
  const double l2_dcr = l1_ldm;
  const double l2_dcw = l1_stm;
  const double l2_dca = l2_dcr + l2_dcw;
  const double l2_icr = l1_icm;
  const double l2_ica = l2_icr;
  const double l2_dcm = l2_dca * k.l2_miss_rate;
  const double l2_icm = l2_ica * k.l2_miss_rate;
  const double l2_ldm = l2_dcr * k.l2_miss_rate;
  const double l2_stm = l2_dcw * k.l2_miss_rate;
  const double l3_dca = l2_dcm;
  const double l3_ica = l2_icm;
  const double l3_dcr = l2_ldm;
  const double l3_dcw = l2_stm;
  const double l3_tca = l3_dca + l3_ica;
  // Tie L3 misses to actual DRAM traffic (64-byte lines) so the counter and
  // the bandwidth model stay consistent; keep the rate-derived value as a
  // floor for codes with streaming stores.
  const double l3_tcm = std::max(l3_tca * k.l3_miss_rate, k.dram_bytes / 64.0);
  const double l3_ldm =
      l3_tcm * (l3_dcr / std::max(1.0, l3_dcr + l3_dcw + l3_ica));

  // FP pipeline: FP_INS counts instructions, FP_OPS counts operations
  // (vector instructions retire multiple ops; AVX2 = 4 doubles / 8 floats).
  const double fp_ins = ins * k.fp_fraction;
  const double fp_dp_ins = fp_ins * k.fp_double_fraction;
  const double fp_sp_ins = fp_ins - fp_dp_ins;
  const double vec_dp = fp_dp_ins * k.vector_fraction;
  const double vec_sp = fp_sp_ins * k.vector_fraction;
  const double dp_ops = (fp_dp_ins - vec_dp) + vec_dp * 4.0;
  const double sp_ops = (fp_sp_ins - vec_sp) + vec_sp * 8.0;

  // Cycle accounting from the execution-time model.
  const double tot_cyc = perf.total_cycles;
  const double res_stl = perf.stall_cycles;
  const double ref_cyc =
      tot_cyc / core.as_ghz() * spec.reference_clock.as_ghz();

  set(PmuEvent::kTOT_INS, ins);
  set(PmuEvent::kLD_INS, loads);
  set(PmuEvent::kSR_INS, stores);
  set(PmuEvent::kLST_INS, lst);
  set(PmuEvent::kBR_INS, branches);
  set(PmuEvent::kBR_UCN, br_ucn);
  set(PmuEvent::kBR_CN, br_cn);
  set(PmuEvent::kBR_TKN, br_tkn);
  set(PmuEvent::kBR_NTK, br_ntk);
  set(PmuEvent::kBR_MSP, br_msp);
  set(PmuEvent::kBR_PRC, br_cn - br_msp);

  set(PmuEvent::kL1_LDM, l1_ldm);
  set(PmuEvent::kL1_STM, l1_stm);
  set(PmuEvent::kL1_DCM, l1_dcm);
  set(PmuEvent::kL1_ICM, l1_icm);
  set(PmuEvent::kL1_TCM, l1_dcm + l1_icm);
  set(PmuEvent::kL2_DCR, l2_dcr);
  set(PmuEvent::kL2_DCW, l2_dcw);
  set(PmuEvent::kL2_DCA, l2_dca);
  set(PmuEvent::kL2_ICR, l2_icr);
  set(PmuEvent::kL2_ICA, l2_ica);
  set(PmuEvent::kL2_ICH, l2_ica * (1.0 - k.l2_miss_rate));
  set(PmuEvent::kL2_DCM, l2_dcm);
  set(PmuEvent::kL2_ICM, l2_icm);
  set(PmuEvent::kL2_LDM, l2_ldm);
  set(PmuEvent::kL2_STM, l2_stm);
  set(PmuEvent::kL2_TCA, l2_dca + l2_ica);
  set(PmuEvent::kL2_TCR, l2_dcr + l2_icr);
  set(PmuEvent::kL2_TCW, l2_dcw);
  set(PmuEvent::kL2_TCM, l2_dcm + l2_icm);
  set(PmuEvent::kL3_DCA, l3_dca);
  set(PmuEvent::kL3_ICA, l3_ica);
  set(PmuEvent::kL3_DCR, l3_dcr);
  set(PmuEvent::kL3_DCW, l3_dcw);
  set(PmuEvent::kL3_ICR, l3_ica);
  set(PmuEvent::kL3_TCA, l3_tca);
  set(PmuEvent::kL3_TCR, l3_dcr + l3_ica);
  set(PmuEvent::kL3_TCW, l3_dcw);
  set(PmuEvent::kL3_TCM, l3_tcm);
  set(PmuEvent::kL3_LDM, l3_ldm);

  set(PmuEvent::kTLB_DM, lst * k.tlb_d_rate);
  set(PmuEvent::kTLB_IM, ins * k.tlb_i_rate);

  set(PmuEvent::kFP_INS, fp_ins);
  set(PmuEvent::kFDV_INS, fp_ins * k.fp_div_fraction);
  set(PmuEvent::kFP_OPS, sp_ops + dp_ops);
  set(PmuEvent::kSP_OPS, sp_ops);
  set(PmuEvent::kDP_OPS, dp_ops);
  set(PmuEvent::kVEC_SP, vec_sp);
  set(PmuEvent::kVEC_DP, vec_dp);

  set(PmuEvent::kTOT_CYC, tot_cyc);
  set(PmuEvent::kREF_CYC, ref_cyc);
  set(PmuEvent::kRES_STL, res_stl);
  // Issue/completion cycle structure, derived from the stall share.
  set(PmuEvent::kSTL_ICY, res_stl * 0.65);
  set(PmuEvent::kSTL_CCY, res_stl * 0.80);
  set(PmuEvent::kFUL_ICY, std::max(0.0, (tot_cyc - res_stl) * 0.30));
  set(PmuEvent::kFUL_CCY, std::max(0.0, (tot_cyc - res_stl) * 0.22));

  return c;
}

}  // namespace ecotune::hwsim
