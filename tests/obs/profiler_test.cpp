// Unit tests for the phase profiler (obs/profiler.h): span nesting and
// self/total attribution, JSON and collapsed-stack exports, the
// bounded event buffer, and the Chrome-trace exporter wiring.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/exporters.h"
#include "obs/json.h"

namespace dlpsim::obs {
namespace {

TEST(Profiler, NestedSpansSplitSelfFromTotal) {
  Profiler p;
  {
    ProfileSpan run(&p, Phase::kRun);
    {
      ProfileSpan core(&p, Phase::kCoreTick);
      ProfileSpan access(&p, Phase::kCacheAccess);
    }
    { ProfileSpan drain(&p, Phase::kDrainCheck); }
  }

  const auto stats = p.PhaseStats();
  ASSERT_EQ(stats.size(), 4u);
  // Enum order: run, core_tick, cache_access, drain_check.
  EXPECT_EQ(stats[0].first, Phase::kRun);
  EXPECT_EQ(stats[1].first, Phase::kCoreTick);
  EXPECT_EQ(stats[2].first, Phase::kCacheAccess);
  EXPECT_EQ(stats[3].first, Phase::kDrainCheck);
  for (const auto& [phase, stat] : stats) {
    EXPECT_EQ(stat.calls, 1u) << ToString(phase);
    EXPECT_GE(stat.total_seconds, 0.0);
    EXPECT_GE(stat.self_seconds, 0.0);
    // Self never exceeds total (total includes children).
    EXPECT_LE(stat.self_seconds, stat.total_seconds + 1e-12);
  }
  // The root span's total covers its children.
  EXPECT_GE(stats[0].second.total_seconds,
            stats[1].second.total_seconds + stats[3].second.total_seconds -
                1e-9);
}

TEST(Profiler, PathsFormCollapsedStacks) {
  Profiler p;
  {
    ProfileSpan run(&p, Phase::kRun);
    ProfileSpan core(&p, Phase::kCoreTick);
    ProfileSpan access(&p, Phase::kCacheAccess);
  }
  const auto& paths = p.PathSelfSeconds();
  EXPECT_EQ(paths.count("dlpsim;run"), 1u);
  EXPECT_EQ(paths.count("dlpsim;run;core_tick"), 1u);
  EXPECT_EQ(paths.count("dlpsim;run;core_tick;cache_access"), 1u);

  std::ostringstream os;
  p.WriteCollapsed(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("dlpsim;run;core_tick;cache_access "),
            std::string::npos);
}

TEST(Profiler, EventBufferIsBoundedAndCountsDrops) {
  Profiler p(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    ProfileSpan span(&p, Phase::kSnapshot);
  }
  EXPECT_EQ(p.events().size(), 2u);
  EXPECT_EQ(p.dropped_events(), 3u);
  // Aggregates keep counting past the buffer cap.
  const auto stats = p.PhaseStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.calls, 5u);
}

TEST(Profiler, NullProfilerSpansAreNoops) {
  ProfileSpan a(nullptr, Phase::kRun);
  ProfileSpan b(nullptr, Phase::kCoreTick);
  SUCCEED();
}

TEST(Profiler, WriteJsonParses) {
  Profiler p;
  {
    ProfileSpan run(&p, Phase::kRun);
    ProfileSpan mem(&p, Phase::kMemTick);
  }
  std::ostringstream os;
  p.WriteJson(os);
  bool ok = false;
  const JsonValue doc = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok) << os.str();
  EXPECT_EQ(doc.Find("schema")->string, "dlpsim-profile-v1");
  EXPECT_EQ(doc.U64("dropped_events"), 0u);
  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 2u);
  EXPECT_EQ(phases->array[0].Find("phase")->string, "run");
  EXPECT_EQ(phases->array[1].Find("phase")->string, "mem_tick");
  const JsonValue* paths = doc.Find("paths");
  ASSERT_NE(paths, nullptr);
  EXPECT_EQ(paths->array.size(), 2u);
}

TEST(Profiler, ChromeTraceExportParses) {
  Profiler p;
  {
    ProfileSpan run(&p, Phase::kRun);
    ProfileSpan core(&p, Phase::kCoreTick);
  }
  std::ostringstream os;
  WriteProfileChromeTrace(os, p, "BFS/dlp");
  bool ok = false;
  const JsonValue doc = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok) << os.str();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 process_name metadata + 2 complete spans.
  ASSERT_EQ(events->array.size(), 3u);
  EXPECT_EQ(events->array[0].Find("ph")->string, "M");
  // Spans complete child-first.
  EXPECT_EQ(events->array[1].Find("name")->string, "core_tick");
  EXPECT_EQ(events->array[1].Find("ph")->string, "X");
  EXPECT_EQ(events->array[1].U64("tid"), 1u);  // depth 1
  EXPECT_EQ(events->array[2].Find("name")->string, "run");
  EXPECT_EQ(events->array[2].U64("tid"), 0u);  // depth 0 (root)
}

}  // namespace
}  // namespace dlpsim::obs
