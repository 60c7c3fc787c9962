#include "robust/fault.h"

#include <algorithm>

#include "gpu/simulator.h"
#include "obs/json.h"
#include "sim/parse.h"
#include "sim/rng.h"

namespace dlpsim::robust {

const char* ToString(FaultKind k) {
  switch (k) {
    case FaultKind::kPdptPd:
      return "pdpt_pd";
    case FaultKind::kPlField:
      return "pl_field";
    case FaultKind::kVtaClear:
      return "vta_clear";
    case FaultKind::kMshrBlackout:
      return "mshr_blackout";
    case FaultKind::kIcntStall:
      return "icnt_stall";
    case FaultKind::kMemStall:
      return "mem_stall";
  }
  return "?";
}

FaultPlan FaultPlan::Random(std::uint64_t seed, std::uint32_t count,
                            Cycle horizon, std::uint64_t stall_cycles,
                            std::uint32_t kinds_mask) {
  FaultPlan plan;
  plan.seed = seed;
  plan.stall_cycles = stall_cycles;
  kinds_mask &= kAllFaultKinds;
  if (kinds_mask == 0 || count == 0 || horizon == 0) return plan;

  std::vector<FaultKind> enabled;
  for (std::uint32_t k = 0; k < kNumFaultKinds; ++k) {
    if (kinds_mask & (1u << k)) enabled.push_back(static_cast<FaultKind>(k));
  }

  Rng rng(seed);
  const Cycle start = horizon / 16;  // let the machine warm up first
  const Cycle span = horizon > start ? horizon - start : 1;
  plan.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FaultEvent ev;
    ev.cycle = start + rng.Below(span);
    // Round-robin through the enabled kinds so even tiny plans exercise
    // every enabled fault class.
    ev.kind = enabled[i % enabled.size()];
    ev.target = static_cast<std::uint32_t>(rng.Below(1u << 16));
    ev.a = rng.Next();
    ev.b = rng.Next();
    plan.events.push_back(ev);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return x.cycle < y.cycle;
            });
  return plan;
}

namespace {

bool ParseKinds(const std::string& s, std::uint32_t* mask,
                std::string* error) {
  *mask = 0;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t plus = s.find('+', pos);
    const std::string name = s.substr(
        pos, plus == std::string::npos ? std::string::npos : plus - pos);
    if (name == "pdpt") {
      *mask |= MaskOf(FaultKind::kPdptPd);
    } else if (name == "pl") {
      *mask |= MaskOf(FaultKind::kPlField);
    } else if (name == "vta") {
      *mask |= MaskOf(FaultKind::kVtaClear);
    } else if (name == "mshr") {
      *mask |= MaskOf(FaultKind::kMshrBlackout);
    } else if (name == "icnt") {
      *mask |= MaskOf(FaultKind::kIcntStall);
    } else if (name == "mem") {
      *mask |= MaskOf(FaultKind::kMemStall);
    } else {
      *error = "unknown fault kind '" + name +
               "' (expected pdpt, pl, vta, mshr, icnt or mem)";
      return false;
    }
    if (plus == std::string::npos) break;
    pos = plus + 1;
  }
  return true;
}

}  // namespace

bool FaultPlan::Parse(const std::string& spec, FaultPlan* out,
                      std::string* error) {
  std::uint64_t seed = 1;
  std::uint64_t count = 32;
  std::uint64_t horizon = 1'000'000;
  std::uint64_t stall = 2000;
  std::uint32_t kinds = kAllFaultKinds;

  if (!(spec == "1" || spec == "on" || spec == "true")) {
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      const std::string item = spec.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) {
          *error = "expected key=value, got '" + item + "'";
        }
        return false;
      }
      const std::string key = item.substr(0, eq);
      const std::string value = item.substr(eq + 1);
      bool ok = true;
      std::string kind_error;
      if (key == "seed") {
        ok = ParseU64(value, &seed);
      } else if (key == "count") {
        ok = ParseU64(value, &count);
      } else if (key == "horizon") {
        ok = ParseU64(value, &horizon);
      } else if (key == "stall") {
        ok = ParseU64(value, &stall);
      } else if (key == "kinds") {
        ok = ParseKinds(value, &kinds, &kind_error);
      } else {
        if (error != nullptr) {
          *error = "unknown DLPSIM_FAULTS key '" + key +
                   "' (expected seed, count, horizon, stall or kinds)";
        }
        return false;
      }
      if (!ok) {
        if (error != nullptr) {
          *error = kind_error.empty()
                       ? "bad value for '" + key + "': '" + value + "'"
                       : kind_error;
        }
        return false;
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  *out = Random(seed, static_cast<std::uint32_t>(count), horizon, stall,
                kinds);
  return true;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultInjector::ApplyDue(GpuSimulator& gpu, Cycle now) {
  while (HasDue(now)) {
    Apply(gpu, plan_.events[next_], now);
    ++next_;
  }
}

void FaultInjector::Apply(GpuSimulator& gpu, const FaultEvent& ev,
                          Cycle now) {
  auto& cores = gpu.cores();
  const std::uint32_t sm = ev.target % cores.size();
  L1DCache& l1d = cores[sm].l1d();
  switch (ev.kind) {
    case FaultKind::kPdptPd: {
      PdpTable* pdpt = l1d.mutable_policy().mutable_pdpt();
      if (pdpt == nullptr) return;  // policy has no PDPT; fault lands nowhere
      const std::uint32_t idx =
          static_cast<std::uint32_t>(ev.a % pdpt->size());
      pdpt->OverridePd(idx,
                       static_cast<std::uint32_t>(ev.b) & pdpt->pd_max());
      break;
    }
    case FaultKind::kPlField: {
      const CacheGeometry& geom = l1d.config().geom;
      const std::uint32_t set = static_cast<std::uint32_t>(ev.a % geom.sets);
      const std::uint32_t way = static_cast<std::uint32_t>(ev.b % geom.ways);
      const std::uint32_t bit = 1u << (ev.b % 4);
      l1d.InjectProtectedLifeFlip(set, way, bit);
      break;
    }
    case FaultKind::kVtaClear: {
      VictimTagArray* vta = l1d.mutable_policy().mutable_vta();
      if (vta == nullptr) return;
      vta->Clear();
      break;
    }
    case FaultKind::kMshrBlackout:
      l1d.InjectReservationBlackout(now + plan_.stall_cycles);
      break;
    case FaultKind::kIcntStall:
      gpu.icnt().InjectStallFor(plan_.stall_cycles);
      break;
    case FaultKind::kMemStall: {
      auto& parts = gpu.partitions();
      parts[ev.target % parts.size()].InjectStallFor(plan_.stall_cycles);
      break;
    }
  }
  ++applied_total_;
  ++applied_[static_cast<std::size_t>(ev.kind)];
}

void FaultInjector::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("seed", plan_.seed);
  w.KV("stall_cycles", plan_.stall_cycles);
  w.KV("planned", std::uint64_t{plan_.events.size()});
  w.KV("applied", applied_total_);
  w.Key("applied_by_kind");
  w.BeginObject();
  for (std::uint32_t k = 0; k < kNumFaultKinds; ++k) {
    w.KV(ToString(static_cast<FaultKind>(k)), applied_[k]);
  }
  w.EndObject();
  w.Key("events");
  w.BeginArray();
  for (const FaultEvent& ev : plan_.events) {
    w.BeginObject();
    w.KV("cycle", ev.cycle);
    w.KV("kind", ToString(ev.kind));
    w.KV("target", ev.target);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
}

}  // namespace dlpsim::robust
