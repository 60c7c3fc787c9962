#include "obs/profiler.h"

#include <algorithm>
#include <cassert>

#include "obs/json.h"

namespace dlpsim::obs {

const char* ToString(Phase phase) {
  switch (phase) {
    case Phase::kRun:
      return "run";
    case Phase::kCoreTick:
      return "core_tick";
    case Phase::kIcntTick:
      return "icnt_tick";
    case Phase::kMemTick:
      return "mem_tick";
    case Phase::kCacheAccess:
      return "cache_access";
    case Phase::kPolicyUpdate:
      return "policy_update";
    case Phase::kDrainCheck:
      return "drain_check";
    case Phase::kSnapshot:
      return "snapshot";
  }
  return "?";
}

Profiler::Profiler(std::size_t max_events) : max_events_(max_events) {
  stack_.reserve(16);
  events_.reserve(std::min<std::size_t>(max_events_, 1024));
}

void Profiler::Begin(Phase phase) {
  Frame f;
  f.phase = phase;
  f.child_seconds = 0.0;
  if (stack_.empty()) {
    f.path = "dlpsim;";
  } else {
    f.path = stack_.back().path;
    f.path += ';';
  }
  f.path += ToString(phase);
  // Read the clock last so path construction is not billed to the span.
  f.start = clock_.Seconds();
  stack_.push_back(std::move(f));
}

void Profiler::End() {
  assert(!stack_.empty() && "ProfileSpan End without Begin");
  if (stack_.empty()) return;
  const double now = clock_.Seconds();
  Frame f = std::move(stack_.back());
  stack_.pop_back();
  const double total = std::max(0.0, now - f.start);
  const double self = std::max(0.0, total - f.child_seconds);
  PhaseStat& stat = phases_[static_cast<std::size_t>(f.phase)];
  ++stat.calls;
  stat.total_seconds += total;
  stat.self_seconds += self;
  path_self_[f.path] += self;
  if (!stack_.empty()) stack_.back().child_seconds += total;
  if (events_.size() < max_events_) {
    events_.push_back({f.phase, static_cast<std::uint32_t>(stack_.size()),
                       f.start, total});
  } else {
    ++dropped_events_;
  }
}

std::vector<std::pair<Phase, PhaseStat>> Profiler::PhaseStats() const {
  std::vector<std::pair<Phase, PhaseStat>> out;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (phases_[i].calls == 0) continue;
    out.emplace_back(static_cast<Phase>(i), phases_[i]);
  }
  return out;
}

void Profiler::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema", "dlpsim-profile-v1");
  w.KV("elapsed_seconds", ElapsedSeconds());
  w.KV("dropped_events", dropped_events_);
  w.Key("phases").BeginArray();
  for (const auto& [phase, stat] : PhaseStats()) {
    w.BeginObject();
    w.KV("phase", ToString(phase));
    w.KV("calls", stat.calls);
    w.KV("total_seconds", stat.total_seconds);
    w.KV("self_seconds", stat.self_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.Key("paths").BeginArray();
  for (const auto& [path, self] : path_self_) {
    w.BeginObject();
    w.KV("path", path);
    w.KV("self_seconds", self);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

void Profiler::WriteCollapsed(std::ostream& os) const {
  // flamegraph.pl convention: "frame;frame;frame <count>". Counts are
  // self-time in integer microseconds.
  for (const auto& [path, self] : path_self_) {
    os << path << ' ' << static_cast<std::uint64_t>(self * 1e6) << '\n';
  }
}

}  // namespace dlpsim::obs
