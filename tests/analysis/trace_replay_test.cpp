#include "analysis/trace_replay.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dlpsim {
namespace {

L1DConfig SmallConfig(PolicyKind policy = PolicyKind::kBaseline) {
  L1DConfig cfg;
  cfg.geom.sets = 2;
  cfg.geom.ways = 2;
  cfg.geom.index = IndexFunction::kLinear;
  cfg.mshr_entries = 4;
  cfg.miss_queue_entries = 4;
  cfg.policy = policy;
  return cfg;
}

TEST(ParseTrace, ParsesLoadsStoresCommentsAndRadixes) {
  std::istringstream in(
      "# header comment\n"
      "L 0x1f80 12\n"
      "S 4096 3\n"
      "\n"
      "  # indented comment\n"
      "L 0 0\n");
  std::string err;
  const auto trace = ParseTrace(in, &err);
  EXPECT_TRUE(err.empty());
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].addr, 0x1f80u);
  EXPECT_EQ(trace[0].pc, 12u);
  EXPECT_EQ(trace[0].type, AccessType::kLoad);
  EXPECT_EQ(trace[1].type, AccessType::kStore);
  EXPECT_EQ(trace[1].addr, 4096u);
}

TEST(ParseTrace, ReportsAndSkipsBadLines) {
  std::istringstream in(
      "L 0x10 1\n"
      "X 0x10 1\n"
      "L zzz 1\n"
      "L 0x20 2\n");
  std::string err;
  const auto trace = ParseTrace(in, &err);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("line 3"), std::string::npos);
}

TEST(TraceReplay, HitsAndMissesCounted) {
  TraceReplayer replayer(SmallConfig(), /*fill_latency=*/5);
  std::vector<TraceAccess> trace = {
      {0, 1, AccessType::kLoad},    // miss
      {0, 1, AccessType::kLoad},    // merged or hit after fill
      {0, 1, AccessType::kLoad},
  };
  const ReplayResult r = replayer.Replay(trace);
  EXPECT_EQ(r.accesses, 3u);
  EXPECT_EQ(r.cache.loads, 3u);
  EXPECT_EQ(r.cache.misses_issued, 1u);
  EXPECT_GE(r.cache.load_hits + r.cache.mshr_merges, 2u);
}

TEST(TraceReplay, CyclicThrashThenProtectionUnderDlp) {
  // A cyclic pattern over 4 lines of one set thrashes a 2-way LRU
  // completely (0% hits). The reuse distance (4) is inside the TDA+VTA
  // detection reach (2 + 2) and the PD window (<= 15), so DLP protects
  // what fits and bypasses the rest.
  auto make_trace = [] {
    std::vector<TraceAccess> trace;
    for (int round = 0; round < 400; ++round) {
      for (Addr line = 0; line < 4; ++line) {
        trace.push_back({line * 2 * 128, static_cast<Pc>(line),
                         AccessType::kLoad});  // all map to set 0
      }
    }
    return trace;
  };

  TraceReplayer base(SmallConfig(PolicyKind::kBaseline), 5);
  const ReplayResult rb = base.Replay(make_trace());
  EXPECT_EQ(rb.cache.load_hits, 0u);  // LRU pathological case

  TraceReplayer dlp(SmallConfig(PolicyKind::kDlp), 5);
  const ReplayResult rd = dlp.Replay(make_trace());
  EXPECT_GT(rd.cache.load_hits, 400u);  // protected lines hit every round
  EXPECT_GT(rd.cache.bypasses, 0u);
}

TEST(TraceReplay, StallsResolveAndAreCounted) {
  // 3 distinct lines of one set with only 2 ways and a long fill latency:
  // the third access must stall until a fill frees a way.
  TraceReplayer replayer(SmallConfig(), /*fill_latency=*/50);
  std::vector<TraceAccess> trace = {
      {0 * 2 * 128, 0, AccessType::kLoad},
      {1 * 2 * 128, 1, AccessType::kLoad},
      {2 * 2 * 128, 2, AccessType::kLoad},
  };
  const ReplayResult r = replayer.Replay(trace);
  EXPECT_GT(r.stall_cycles, 0u);
  EXPECT_EQ(r.cache.misses_issued, 3u);
}

TEST(TraceReplay, SequentialReplaysReportDeltas) {
  TraceReplayer replayer(SmallConfig(), 5);
  std::vector<TraceAccess> trace = {{0, 0, AccessType::kLoad}};
  const ReplayResult a = replayer.Replay(trace);
  const ReplayResult b = replayer.Replay(trace);  // now a hit
  EXPECT_EQ(a.cache.loads, 1u);
  EXPECT_EQ(b.cache.loads, 1u);
  EXPECT_EQ(b.cache.load_hits, 1u);
  EXPECT_EQ(b.cache.misses_issued, 0u);
  // The deltas are additive in every counter.
  const CacheStats& lifetime = replayer.cache().stats();
  for (const CacheStatsField& f : CacheStatsFields()) {
    EXPECT_EQ(a.cache.*(f.member) + b.cache.*(f.member), lifetime.*(f.member))
        << f.name;
  }
}

TEST(TraceReplay, ResetClearsCacheState) {
  TraceReplayer replayer(SmallConfig(), 5);
  std::vector<TraceAccess> trace = {{0, 0, AccessType::kLoad}};
  replayer.Replay(trace);
  replayer.Reset();
  const ReplayResult r = replayer.Replay(trace);
  EXPECT_EQ(r.cache.misses_issued, 1u);  // cold again
}

TEST(TraceReplay, StoresFlowThrough) {
  TraceReplayer replayer(SmallConfig(), 5);
  std::vector<TraceAccess> trace = {
      {0, 0, AccessType::kStore},
      {0, 0, AccessType::kLoad},
  };
  const ReplayResult r = replayer.Replay(trace);
  EXPECT_EQ(r.cache.stores, 1u);
  EXPECT_EQ(r.cache.loads, 1u);
}


TEST(ParseTraceStrict, AcceptsCleanTraceWithCommentsAndBlanks) {
  std::istringstream in(
      "# header comment\n"
      "L 0x80 1\n"
      "\n"
      "S 256 2\n"
      "  # indented comment\n"
      "L 0x100 3\n");
  std::vector<TraceAccess> out;
  TraceParseError err;
  ASSERT_TRUE(ParseTraceStrict(in, &out, &err));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].addr, 0x80u);
  EXPECT_EQ(out[1].type, AccessType::kStore);
  EXPECT_EQ(out[2].pc, 3u);
}

TEST(ParseTraceStrict, ReportsLineNumberOfFirstBadLine) {
  std::istringstream in(
      "L 0x80 1\n"
      "S 256 2\n"
      "X 512 3\n"
      "L 1024 4\n");
  std::vector<TraceAccess> out;
  TraceParseError err;
  ASSERT_FALSE(ParseTraceStrict(in, &out, &err));
  EXPECT_EQ(err.line, 3u);
  EXPECT_NE(err.message.find("unknown op"), std::string::npos);
  EXPECT_NE(err.ToString().find("line 3"), std::string::npos);
  // The prefix before the bad line survives for diagnostics.
  EXPECT_EQ(out.size(), 2u);
}

TEST(ParseTraceStrict, RejectsTruncatedAndGarbageLines) {
  {
    std::istringstream in("L 0x80\n");  // missing pc: truncated record
    std::vector<TraceAccess> out;
    TraceParseError err;
    ASSERT_FALSE(ParseTraceStrict(in, &out, &err));
    EXPECT_EQ(err.line, 1u);
  }
  {
    std::istringstream in("L 0x80 1 extra\n");
    std::vector<TraceAccess> out;
    TraceParseError err;
    ASSERT_FALSE(ParseTraceStrict(in, &out, &err));
    EXPECT_NE(err.message.find("trailing garbage"), std::string::npos);
  }
  {
    std::istringstream in("L 0xZZ 1\n");
    std::vector<TraceAccess> out;
    TraceParseError err;
    ASSERT_FALSE(ParseTraceStrict(in, &out, &err));
    EXPECT_NE(err.message.find("bad address"), std::string::npos);
  }
}

TEST(ParseTraceStrict, RejectsSignedAndOverflowingNumbers) {
  // Regression tests for parser-fuzz escapes: istream>> on an unsigned
  // and stoull both silently wrap "-5" to 2^64-5, and a pc wider than
  // 32 bits used to truncate instead of failing.
  const char* bad[] = {
      "L -5 1\n",                         // negative address wraps
      "L +5 1\n",                         // explicit sign is not a number
      "L 0x80 -1\n",                      // negative pc wraps
      "L 0x80 0x100000000\n",             // pc > UINT32_MAX
      "L 0xfffffffffffffffffffffffff 1\n",  // address overflows uint64
      "L 0x80 99999999999999999999999\n",   // pc overflows uint64
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    std::vector<TraceAccess> out;
    TraceParseError err;
    EXPECT_FALSE(ParseTraceStrict(in, &out, &err)) << text;
    EXPECT_FALSE(err.message.empty()) << text;
    EXPECT_EQ(err.line, 1u) << text;
  }
  // The lenient parser must agree: these lines are skipped, not wrapped.
  for (const char* text : bad) {
    std::istringstream in(text);
    std::string error;
    EXPECT_TRUE(ParseTrace(in, &error).empty()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ParseTraceStrict, AcceptsBoundaryValuesExactly) {
  std::istringstream in(
      "L 0xffffffffffffffff 0xffffffff\n"  // max addr, max pc
      "L 0 0\n");
  std::vector<TraceAccess> out;
  TraceParseError err;
  ASSERT_TRUE(ParseTraceStrict(in, &out, &err)) << err.ToString();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].addr, ~0ull);
  EXPECT_EQ(out[0].pc, 0xffffffffu);
  EXPECT_EQ(out[1].addr, 0u);
  EXPECT_EQ(out[1].pc, 0u);
}

TEST(TraceReplayer, RejectsInvalidConfigBeforeReplaying) {
  L1DConfig cfg = SmallConfig();
  cfg.mshr_entries = 0;
  EXPECT_THROW(TraceReplayer(cfg, 5), ConfigError);
}

}  // namespace
}  // namespace dlpsim
