#include "verify/differential.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "core/pdpt.h"
#include "core/vta.h"
#include "robust/invariants.h"

namespace dlpsim::verify {

namespace {

/// The real tag array's occupied lines of `set` in recency order,
/// matching OracleL1D::SetImage's rendering.
std::vector<OracleL1D::LineImage> RealSetImage(const L1DCache& cache,
                                               std::uint32_t set) {
  std::vector<CacheLine> occupied;
  for (const CacheLine& l : cache.tda().SetView(set)) {
    if (IsOccupied(l.state)) occupied.push_back(l);
  }
  std::sort(occupied.begin(), occupied.end(),
            [](const CacheLine& a, const CacheLine& b) {
              return a.last_use < b.last_use;
            });
  std::vector<OracleL1D::LineImage> out;
  out.reserve(occupied.size());
  for (const CacheLine& l : occupied) {
    out.push_back({l.block, l.state, l.insn_id, l.protected_life});
  }
  return out;
}

std::string DescribeLine(const OracleL1D::LineImage& l) {
  std::ostringstream os;
  os << "{block=" << l.block << " state=" << static_cast<int>(l.state)
     << " insn=" << l.insn_id << " pl=" << l.protected_life << "}";
  return os.str();
}

/// Deep state diff (tag array, PDPT, VTA, invariants); "" when equal.
std::string DiffState(const L1DCache& real, const OracleL1D& oracle,
                      bool check_invariants) {
  for (std::uint32_t s = 0; s < oracle.sets(); ++s) {
    const auto want = oracle.SetImage(s);
    const auto got = RealSetImage(real, s);
    if (got.size() != want.size()) {
      return "set " + std::to_string(s) + ": real holds " +
             std::to_string(got.size()) + " occupied lines, oracle " +
             std::to_string(want.size());
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].block != want[i].block || got[i].state != want[i].state ||
          got[i].insn_id != want[i].insn_id ||
          got[i].protected_life != want[i].protected_life) {
        return "set " + std::to_string(s) + " recency slot " +
               std::to_string(i) + ": real " + DescribeLine(got[i]) +
               " vs oracle " + DescribeLine(want[i]);
      }
    }
  }

  const std::vector<std::uint32_t> pd_want = oracle.PdImage();
  const PdpTable* pdpt = real.policy().pdpt();
  if (pd_want.empty() != (pdpt == nullptr)) {
    return "PDPT presence mismatch between real policy and oracle";
  }
  if (pdpt != nullptr) {
    for (std::uint32_t i = 0; i < pdpt->size(); ++i) {
      if (pdpt->Pd(i) != pd_want[i]) {
        return "PDPT entry " + std::to_string(i) + ": real pd=" +
               std::to_string(pdpt->Pd(i)) + " vs oracle pd=" +
               std::to_string(pd_want[i]);
      }
    }
    const VictimTagArray* vta = real.policy().vta();
    for (std::uint32_t s = 0; s < oracle.sets(); ++s) {
      const auto want = oracle.VtaSetImage(s);
      const auto got = vta->SetEntries(s);
      if (got.size() != want.size()) {
        return "VTA set " + std::to_string(s) + ": real holds " +
               std::to_string(got.size()) + " entries, oracle " +
               std::to_string(want.size());
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].block != want[i].block ||
            got[i].insn_id != want[i].insn_id) {
          return "VTA set " + std::to_string(s) + " recency slot " +
                 std::to_string(i) + ": real {block=" +
                 std::to_string(got[i].block) + " insn=" +
                 std::to_string(got[i].insn_id) + "} vs oracle {block=" +
                 std::to_string(want[i].block) + " insn=" +
                 std::to_string(want[i].insn_id) + "}";
        }
      }
    }
  }

  if (check_invariants && robust::ChecksEnabledByEnv()) {
    const std::string violation = robust::CheckL1D(real);
    if (!violation.empty()) return "invariant checker: " + violation;
  }
  return "";
}

struct PendingFill {
  Addr block = 0;
  bool no_fill = false;
  MshrToken token = 0;
  Cycle due = 0;
};

std::string DescribeOutgoing(Addr block, bool write, bool no_fill,
                             MshrToken token) {
  std::ostringstream os;
  os << "{block=" << block << (write ? " write" : " read")
     << (no_fill ? " no_fill" : "") << " token=" << token << "}";
  return os.str();
}

// Retried reservation failures always unblock once in-flight fills land;
// this cap only bounds the damage of a livelock *bug*.
constexpr std::uint64_t kMaxRetriesPerAccess = 1u << 20;

}  // namespace

std::string DiffStats(const CacheStats& real, const CacheStats& oracle) {
  std::ostringstream os;
  for (const CacheStatsField& f : CacheStatsFields()) {
    if (real.*(f.member) != oracle.*(f.member)) {
      if (os.tellp() > 0) os << ", ";
      os << f.name << ": real=" << real.*(f.member)
         << " oracle=" << oracle.*(f.member);
    }
  }
  return os.str();
}

std::optional<Divergence> RunDifferential(
    const L1DConfig& cfg, const std::vector<TraceAccess>& trace,
    const DriveParams& params, OracleBug bug) {
  L1DCache real(cfg);
  OracleL1D oracle(cfg, bug);

  std::deque<PendingFill> real_fills;
  std::deque<PendingFill> oracle_fills;
  std::vector<MshrToken> real_woken;
  std::vector<MshrToken> oracle_woken;
  Cycle now = 0;
  std::size_t index = 0;
  std::optional<Divergence> diverged;

  const auto fail = [&](std::string what) {
    if (!diverged) diverged = Divergence{index, std::move(what)};
  };

  const auto advance = [&] {
    // Drain up to drain_rate outgoing requests from both models.
    for (std::uint32_t d = 0; d < params.drain_rate; ++d) {
      const bool real_has = real.HasOutgoing();
      const bool oracle_has = oracle.HasOutgoing();
      if (real_has != oracle_has) {
        fail(std::string("outgoing queue presence: real ") +
             (real_has ? "has" : "lacks") + " a request the oracle " +
             (oracle_has ? "has" : "lacks"));
        return;
      }
      if (!real_has) break;
      const L1DOutgoing r = real.PopOutgoing();
      const OracleOutgoing o = oracle.PopOutgoing();
      if (r.block != o.block || r.write != o.write ||
          r.no_fill != o.no_fill || r.token != o.token) {
        fail("outgoing request mismatch: real " +
             DescribeOutgoing(r.block, r.write, r.no_fill, r.token) +
             " vs oracle " +
             DescribeOutgoing(o.block, o.write, o.no_fill, o.token));
        return;
      }
      if (!r.write) {
        real_fills.push_back({r.block, r.no_fill, r.token,
                              now + params.fill_latency});
        oracle_fills.push_back({o.block, o.no_fill, o.token,
                                now + params.fill_latency});
      }
    }
    // Deliver due fills to both and compare wake lists.
    while (!real_fills.empty() && real_fills.front().due <= now) {
      const PendingFill rf = real_fills.front();
      const PendingFill of = oracle_fills.front();
      real_fills.pop_front();
      oracle_fills.pop_front();
      real_woken.clear();
      oracle_woken.clear();
      real.Fill(L1DResponse{rf.block, rf.no_fill, rf.token}, now, real_woken);
      oracle.Fill(of.block, of.no_fill, of.token, oracle_woken);
      if (real_woken != oracle_woken) {
        std::ostringstream os;
        os << "fill of block " << rf.block << " woke " << real_woken.size()
           << " tokens in the real cache vs " << oracle_woken.size()
           << " in the oracle";
        fail(os.str());
        return;
      }
    }
  };

  for (; index < trace.size() && !diverged; ++index) {
    const TraceAccess& a = trace[index];
    const MemAccess access{a.addr, a.type, a.pc,
                           static_cast<MshrToken>(index + 1)};
    std::uint64_t retries = 0;
    for (;;) {
      advance();
      if (diverged) break;
      const AccessResult rr = real.Access(access, now);
      const AccessResult ro = oracle.Access(access, now);
      ++now;
      if (rr != ro) {
        fail(std::string("result mismatch: real ") + ToString(rr) +
             " vs oracle " + ToString(ro));
        break;
      }
      const std::string stats_diff = DiffStats(real.stats(), oracle.stats());
      if (!stats_diff.empty()) {
        fail("stats mismatch after " + std::string(ToString(rr)) + ": " +
             stats_diff);
        break;
      }
      if (real.outgoing_size() != oracle.outgoing_size()) {
        fail("outgoing queue depth: real " +
             std::to_string(real.outgoing_size()) + " vs oracle " +
             std::to_string(oracle.outgoing_size()));
        break;
      }
      if (rr != AccessResult::kReservationFail) break;
      if (++retries > kMaxRetriesPerAccess) {
        fail("no forward progress: access retried " +
             std::to_string(retries) + " times");
        break;
      }
    }
    if (diverged) break;
    if (params.state_check_interval != 0 &&
        (index + 1) % params.state_check_interval == 0) {
      const std::string diff =
          DiffState(real, oracle, params.check_invariants);
      if (!diff.empty()) fail("state mismatch: " + diff);
    }
  }

  // Drain so end-of-trace state is settled, then deep-compare once more.
  while (!diverged &&
         (real.HasOutgoing() || oracle.HasOutgoing() || !real_fills.empty())) {
    advance();
    ++now;
  }
  if (!diverged) {
    index = trace.empty() ? 0 : trace.size() - 1;
    const std::string diff = DiffState(real, oracle, params.check_invariants);
    if (!diff.empty()) fail("end-of-trace state mismatch: " + diff);
    const std::string stats_diff = DiffStats(real.stats(), oracle.stats());
    if (!stats_diff.empty()) fail("end-of-trace stats mismatch: " + stats_diff);
  }
  return diverged;
}

std::optional<Divergence> RunTwinReal(const L1DConfig& cfg_a,
                                      const L1DConfig& cfg_b,
                                      const std::vector<TraceAccess>& trace,
                                      const DriveParams& params) {
  L1DCache a(cfg_a);
  L1DCache b(cfg_b);

  std::deque<PendingFill> a_fills;
  std::deque<PendingFill> b_fills;
  std::vector<MshrToken> a_woken;
  std::vector<MshrToken> b_woken;
  Cycle now = 0;
  std::size_t index = 0;
  std::optional<Divergence> diverged;

  const auto fail = [&](std::string what) {
    if (!diverged) diverged = Divergence{index, std::move(what)};
  };

  const auto advance = [&] {
    for (std::uint32_t d = 0; d < params.drain_rate; ++d) {
      if (a.HasOutgoing() != b.HasOutgoing()) {
        fail("outgoing queue presence differs between the two caches");
        return;
      }
      if (!a.HasOutgoing()) break;
      const L1DOutgoing ra = a.PopOutgoing();
      const L1DOutgoing rb = b.PopOutgoing();
      if (ra.block != rb.block || ra.write != rb.write ||
          ra.no_fill != rb.no_fill || ra.token != rb.token) {
        fail("outgoing request mismatch: A " +
             DescribeOutgoing(ra.block, ra.write, ra.no_fill, ra.token) +
             " vs B " +
             DescribeOutgoing(rb.block, rb.write, rb.no_fill, rb.token));
        return;
      }
      if (!ra.write) {
        a_fills.push_back({ra.block, ra.no_fill, ra.token,
                           now + params.fill_latency});
        b_fills.push_back({rb.block, rb.no_fill, rb.token,
                           now + params.fill_latency});
      }
    }
    while (!a_fills.empty() && a_fills.front().due <= now) {
      const PendingFill fa = a_fills.front();
      const PendingFill fb = b_fills.front();
      a_fills.pop_front();
      b_fills.pop_front();
      a_woken.clear();
      b_woken.clear();
      a.Fill(L1DResponse{fa.block, fa.no_fill, fa.token}, now, a_woken);
      b.Fill(L1DResponse{fb.block, fb.no_fill, fb.token}, now, b_woken);
      if (a_woken != b_woken) {
        fail("fill wake lists differ between the two caches");
        return;
      }
    }
  };

  for (; index < trace.size() && !diverged; ++index) {
    const TraceAccess& t = trace[index];
    const MemAccess access{t.addr, t.type, t.pc,
                           static_cast<MshrToken>(index + 1)};
    std::uint64_t retries = 0;
    for (;;) {
      advance();
      if (diverged) break;
      const AccessResult rr = a.Access(access, now);
      const AccessResult rb = b.Access(access, now);
      ++now;
      if (rr != rb) {
        fail(std::string("result mismatch: A ") + ToString(rr) + " vs B " +
             ToString(rb));
        break;
      }
      const std::string stats_diff = DiffStats(a.stats(), b.stats());
      if (!stats_diff.empty()) {
        fail("stats mismatch: " + stats_diff);
        break;
      }
      if (rr != AccessResult::kReservationFail) break;
      if (++retries > kMaxRetriesPerAccess) {
        fail("no forward progress: access retried " +
             std::to_string(retries) + " times");
        break;
      }
    }
  }
  while (!diverged && (a.HasOutgoing() || b.HasOutgoing() || !a_fills.empty())) {
    advance();
    ++now;
  }
  if (!diverged) {
    index = trace.empty() ? 0 : trace.size() - 1;
    const std::string stats_diff = DiffStats(a.stats(), b.stats());
    if (!stats_diff.empty()) fail("end-of-trace stats mismatch: " + stats_diff);
  }
  return diverged;
}

}  // namespace dlpsim::verify
