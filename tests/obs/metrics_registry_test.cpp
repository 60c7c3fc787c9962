// Unit tests for the typed metrics registry (obs/metrics.h): instrument
// semantics (counter/gauge/histogram), get-or-create identity, kind and
// bounds mismatch detection, exact totals under concurrent updates, and
// hostile-name escaping in every export format.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace dlpsim::obs {
namespace {

TEST(Counter, AddAndMerge) {
  Registry reg;
  Counter* c = reg.GetCounter("test", "adds");
  EXPECT_EQ(c->Value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(Counter, ThreadedAddsMergeExactly) {
  Registry reg;
  Counter* c = reg.GetCounter("test", "threaded");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Gauge, NetSumAndQuiescentZero) {
  Registry reg;
  Gauge* g = reg.GetGauge("test", "depth");
  g->Add(5);
  g->Sub(2);
  EXPECT_EQ(g->Value(), 3);
  // Matched Add/Sub pairs from different threads net to zero (the
  // quiescent-dump property DLPSIM_METRICS relies on).
  std::thread other([g] { g->Sub(3); });
  other.join();
  EXPECT_EQ(g->Value(), 0);
}

TEST(Histogram, BucketBoundariesUseLeSemantics) {
  Registry reg;
  const std::uint64_t bounds[] = {0, 1, 4};
  Histogram* h = reg.GetHistogram("test", "occ", bounds);

  h->Observe(0);  // le=0 bucket: v <= 0
  h->Observe(1);  // le=1 bucket: exact bound lands inside it
  h->Observe(2);  // le=4 bucket
  h->Observe(4);  // le=4 bucket: exact bound again
  h->Observe(5);  // overflow (+Inf)
  h->Observe(1u << 30);

  const std::vector<std::uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h->Count(), 6u);
  EXPECT_EQ(h->Sum(), 0u + 1 + 2 + 4 + 5 + (1u << 30));
}

TEST(Histogram, CountedObserveEqualsRepeatedObserves) {
  Registry reg;
  const std::uint64_t bounds[] = {0, 1, 4};
  Histogram* counted = reg.GetHistogram("test", "counted", bounds);
  Histogram* repeated = reg.GetHistogram("test", "repeated", bounds);
  for (const std::uint64_t v : {0u, 3u, 9u}) {
    counted->Observe(v, 5);
    for (int i = 0; i < 5; ++i) repeated->Observe(v);
  }
  counted->Observe(2, 0);  // zero observations change nothing
  EXPECT_EQ(counted->BucketCounts(), repeated->BucketCounts());
  EXPECT_EQ(counted->Count(), 15u);
  EXPECT_EQ(counted->Sum(), repeated->Sum());
  EXPECT_EQ(counted->Sum(), 5u * (0 + 3 + 9));
}

TEST(Histogram, ThreadedObservesMergeExactly) {
  Registry reg;
  const std::uint64_t bounds[] = {0, 1, 4, 16};
  Histogram* h = reg.GetHistogram("test", "threaded", bounds);
  // One value each for le=0 and le=1, two each for le=4, le=16 and +Inf.
  const std::vector<std::uint64_t> values = {0, 1, 2, 4, 5, 16, 17, 1000};
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, &values] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        for (const std::uint64_t v : values) h->Observe(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::uint64_t rounds =
      static_cast<std::uint64_t>(kThreads) * kRoundsPerThread;
  const std::vector<std::uint64_t> expected = {rounds, rounds, 2 * rounds,
                                               2 * rounds, 2 * rounds};
  EXPECT_EQ(h->BucketCounts(), expected);
  EXPECT_EQ(h->Count(), rounds * values.size());
  EXPECT_EQ(h->Sum(), rounds * (0 + 1 + 2 + 4 + 5 + 16 + 17 + 1000));
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  Registry reg;
  const std::uint64_t bad[] = {1, 1};
  EXPECT_THROW(reg.GetHistogram("test", "bad", bad), std::logic_error);
  const std::uint64_t decreasing[] = {4, 2};
  EXPECT_THROW(reg.GetHistogram("test", "bad2", decreasing),
               std::logic_error);
}

TEST(Registry, GetOrCreateReturnsStablePointers) {
  Registry reg;
  Counter* a = reg.GetCounter("cache", "hits", "help text");
  Counter* b = reg.GetCounter("cache", "hits");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);

  const std::uint64_t bounds[] = {1, 2};
  Histogram* h1 = reg.GetHistogram("cache", "occ", bounds);
  Histogram* h2 = reg.GetHistogram("cache", "occ", bounds);
  EXPECT_EQ(h1, h2);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.GetCounter("s", "n");
  EXPECT_THROW(reg.GetGauge("s", "n"), std::logic_error);
  const std::uint64_t bounds[] = {1};
  EXPECT_THROW(reg.GetHistogram("s", "n", bounds), std::logic_error);
}

TEST(Registry, HistogramBoundsMismatchThrows) {
  Registry reg;
  const std::uint64_t bounds[] = {1, 2, 3};
  reg.GetHistogram("s", "h", bounds);
  const std::uint64_t other[] = {1, 2};
  EXPECT_THROW(reg.GetHistogram("s", "h", other), std::logic_error);
}

TEST(Registry, ScopeNameKeyNeverCollides) {
  // ("a", "b_c") and ("a_b", "c") would collide under naive "a_b_c"
  // joining; the \x1f key separator keeps them distinct.
  Registry reg;
  Counter* x = reg.GetCounter("a", "b_c");
  Counter* y = reg.GetCounter("a_b", "c");
  EXPECT_NE(x, y);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, SnapshotSortedByScopeThenName) {
  Registry reg;
  reg.GetCounter("zeta", "a");
  reg.GetCounter("alpha", "b");
  reg.GetCounter("alpha", "a");
  const std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].info.scope, "alpha");
  EXPECT_EQ(snap[0].info.name, "a");
  EXPECT_EQ(snap[1].info.scope, "alpha");
  EXPECT_EQ(snap[1].info.name, "b");
  EXPECT_EQ(snap[2].info.scope, "zeta");
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter* c = reg.GetCounter("s", "c");
  Gauge* g = reg.GetGauge("s", "g");
  const std::uint64_t bounds[] = {1};
  Histogram* h = reg.GetHistogram("s", "h", bounds);
  c->Add(3);
  g->Add(4);
  h->Observe(2);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Sum(), 0u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.GetCounter("s", "c"), c);  // pointer survives Reset
}

// --- exposition formats ---

TEST(Exposition, PrometheusNameSanitizes) {
  EXPECT_EQ(PrometheusName("cache", "pl_decrements"),
            "dlpsim_cache_pl_decrements");
  EXPECT_EQ(PrometheusName("we ird", "na-me!"), "dlpsim_we_ird_na_me_");
}

TEST(Exposition, PrometheusLabelEscapes) {
  EXPECT_EQ(PrometheusLabelEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Exposition, WriteTextEmitsHelpTypeAndHistogramSeries) {
  Registry reg;
  Counter* c = reg.GetCounter("cache", "hits", "L1D load hits");
  c->Add(7);
  const std::uint64_t bounds[] = {1, 4};
  Histogram* h = reg.GetHistogram("cache", "occ", bounds);
  h->Observe(1);
  h->Observe(2);
  h->Observe(9);

  std::ostringstream os;
  reg.WriteText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP dlpsim_cache_hits L1D load hits"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dlpsim_cache_hits counter"), std::string::npos);
  EXPECT_NE(
      text.find("dlpsim_cache_hits{scope=\"cache\",name=\"hits\"} 7"),
      std::string::npos);
  // Cumulative bucket counts: le=1 -> 1, le=4 -> 2, +Inf -> 3.
  EXPECT_NE(text.find("le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("dlpsim_cache_occ_sum{scope=\"cache\",name=\"occ\"} 12"),
            std::string::npos);
  EXPECT_NE(
      text.find("dlpsim_cache_occ_count{scope=\"cache\",name=\"occ\"} 3"),
      std::string::npos);
}

TEST(Exposition, HostileNamesSurviveEveryFormat) {
  Registry reg;
  const std::string scope = "we\"ird\\scope";
  const std::string name = "name,with\n\"hostility\"";
  Counter* c = reg.GetCounter(scope, name, "help \"quoted\"\nline");
  c->Add(1);

  // Prometheus: label values escaped, metric name fully sanitized.
  std::ostringstream prom;
  reg.WriteText(prom);
  EXPECT_NE(prom.str().find("scope=\"we\\\"ird\\\\scope\""),
            std::string::npos);
  EXPECT_EQ(prom.str().find("name=\"name,with\n"), std::string::npos);

  // JSON: the document parses and round-trips the raw strings exactly.
  std::ostringstream json;
  reg.WriteJson(json);
  bool ok = false;
  const JsonValue doc = ParseJson(json.str(), &ok);
  ASSERT_TRUE(ok) << json.str();
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 1u);
  EXPECT_EQ(metrics->array[0].Find("scope")->string, scope);
  EXPECT_EQ(metrics->array[0].Find("name")->string, name);
  EXPECT_EQ(metrics->array[0].U64("value"), 1u);
}

TEST(Exposition, WriteJsonParsesAndCarriesHistograms) {
  Registry reg;
  const std::uint64_t bounds[] = {2, 8};
  Histogram* h = reg.GetHistogram("mem", "burst", bounds, "burst size");
  h->Observe(1);
  h->Observe(8);
  h->Observe(100);
  reg.GetGauge("exec", "depth")->Add(-2);

  std::ostringstream os;
  reg.WriteJson(os);
  bool ok = false;
  const JsonValue doc = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(doc.Find("schema")->string, "dlpsim-metrics-v1");
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 2u);
  // Sorted by scope: exec before mem.
  const JsonValue& gauge = metrics->array[0];
  EXPECT_EQ(gauge.Find("kind")->string, "gauge");
  EXPECT_EQ(gauge.Find("value")->number, -2.0);
  const JsonValue& hist = metrics->array[1];
  EXPECT_EQ(hist.Find("kind")->string, "histogram");
  ASSERT_EQ(hist.Find("buckets")->array.size(), 3u);
  EXPECT_EQ(hist.Find("buckets")->array[0].number_u64, 1u);
  EXPECT_EQ(hist.Find("buckets")->array[1].number_u64, 1u);
  EXPECT_EQ(hist.Find("buckets")->array[2].number_u64, 1u);
  EXPECT_EQ(hist.U64("count"), 3u);
  EXPECT_EQ(hist.U64("sum"), 109u);
}

TEST(Registry, GlobalIsSameInstance) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
}

}  // namespace
}  // namespace dlpsim::obs
