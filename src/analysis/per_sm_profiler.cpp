#include "analysis/per_sm_profiler.h"

#include <stdexcept>
#include <string>

namespace dlpsim {

PerSmProfiler::PerSmProfiler(std::uint32_t num_sms, std::uint32_t sets)
    : rd_(num_sms, RdProfiler(sets)) {}

void PerSmProfiler::AttachTo(GpuSimulator& gpu) {
  std::vector<SmCore>& cores = gpu.cores();
  if (cores.size() != rd_.size()) {
    throw std::invalid_argument("PerSmProfiler: built for " +
                                std::to_string(rd_.size()) + " SMs, not " +
                                std::to_string(cores.size()));
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (cores[i].l1d().config().geom.sets != rd_[i].sets()) {
      throw std::invalid_argument("PerSmProfiler: SM " + std::to_string(i) +
                                  "'s L1D does not have " +
                                  std::to_string(rd_[i].sets()) + " sets");
    }
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    cores[i].l1d().SetObserver(&rd_[i]);
  }
}

RddHistogram PerSmProfiler::GlobalRdd() const {
  RddHistogram merged;
  for (const RdProfiler& p : rd_) merged.Merge(p.global());
  return merged;
}

std::map<Pc, RddHistogram> PerSmProfiler::PerPcRdd() const {
  std::map<Pc, RddHistogram> merged;
  for (const RdProfiler& p : rd_) {
    for (const auto& [pc, hist] : p.per_pc()) merged[pc].Merge(hist);
  }
  return merged;
}

}  // namespace dlpsim
