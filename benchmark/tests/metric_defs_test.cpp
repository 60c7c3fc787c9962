// BENCHMARK.json and metric_defs.cpp describe the same metrics; the
// driver reports what metric_defs.cpp lists, the harness that runs the
// benchmark reads BENCHMARK.json.
#include "metric_defs.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace dlpbench {
namespace {

dlpsim::JsonValue LoadBenchmarkJson() {
  std::ifstream in(BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  bool ok = false;
  dlpsim::JsonValue doc = dlpsim::ParseJson(text.str(), &ok);
  EXPECT_TRUE(ok) << BENCHMARK_JSON << " is not valid JSON";
  return doc;
}

void ExpectSameMetrics(const dlpsim::JsonValue* listed,
                       std::span<const MetricDef> defs, bool with_bound) {
  ASSERT_NE(listed, nullptr);
  ASSERT_EQ(listed->array.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const dlpsim::JsonValue& m = listed->array[i];
    const std::string name(defs[i].name);
    EXPECT_EQ(m.Find("name")->string, name);
    EXPECT_EQ(m.Find("unit")->string, defs[i].unit) << name;
    EXPECT_EQ(m.Find("better")->string,
              defs[i].better == Better::kLower ? "lower" : "higher")
        << name;
    EXPECT_EQ(m.object.size(), with_bound ? 4u : 3u) << name;
    if (with_bound) EXPECT_DOUBLE_EQ(m.Find("bound")->number, defs[i].bound);
  }
}

TEST(MetricDefs, MatchBenchmarkJson) {
  const dlpsim::JsonValue doc = LoadBenchmarkJson();
  ExpectSameMetrics(doc.Find("end_to_end"), EndToEndMetrics(), true);
  ExpectSameMetrics(doc.Find("per_layer"), PerLayerMetrics(), false);
}

TEST(MetricDefs, NamesAreUniqueAndWellFormed) {
  std::set<std::string_view> seen;
  for (const auto table : {EndToEndMetrics(), PerLayerMetrics()}) {
    for (const MetricDef& m : table) {
      EXPECT_TRUE(seen.insert(m.name).second) << m.name;
      EXPECT_LE(m.name.size(), 64u);
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(m.name[0])));
      for (const char c : m.name) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-')
            << m.name;
      }
      EXPECT_EQ(FindMetric(m.name), &m);
    }
  }
  for (const MetricDef& m : EndToEndMetrics()) {
    EXPECT_GT(m.bound, 0.0) << m.name;
    EXPECT_LE(m.bound, 0.25) << m.name;
  }
  EXPECT_NE(FindMetric("setup_s"), nullptr);
  EXPECT_EQ(FindMetric("no_such_metric"), nullptr);
}

}  // namespace
}  // namespace dlpbench
