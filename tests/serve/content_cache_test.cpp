// Content-addressed result cache: key composition (config hash x trace
// hash x binary version), invalidation on version bump, atomic store
// discipline, and CanonicalText sensitivity to every config layer.
#include "serve/content_cache.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/config.h"

namespace dlpsim::serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::path("cc_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

TEST(ContentKey, HasThreeComponentsAndIsStable) {
  const std::string k = ContentKey("cfg text", "trace ref");
  // 16 hex chars x 3, dash-joined.
  ASSERT_EQ(k.size(), 16u * 3 + 2);
  EXPECT_EQ(k[16], '-');
  EXPECT_EQ(k[33], '-');
  EXPECT_EQ(k, ContentKey("cfg text", "trace ref"));  // deterministic
}

TEST(ContentKey, EachComponentKeysIndependently) {
  const std::string base = ContentKey("cfg", "trace", "v1");
  const std::string cfg2 = ContentKey("cfg2", "trace", "v1");
  const std::string trace2 = ContentKey("cfg", "trace2", "v1");
  const std::string ver2 = ContentKey("cfg", "trace", "v2");

  // Changing one input changes exactly that component.
  EXPECT_NE(base.substr(0, 16), cfg2.substr(0, 16));
  EXPECT_EQ(base.substr(16), cfg2.substr(16));

  EXPECT_NE(base.substr(17, 16), trace2.substr(17, 16));
  EXPECT_EQ(base.substr(0, 16), trace2.substr(0, 16));

  EXPECT_NE(base.substr(34), ver2.substr(34));
  EXPECT_EQ(base.substr(0, 33), ver2.substr(0, 33));
}

TEST(ContentKey, BinaryVersionBumpInvalidates) {
  TempDir tmp;
  ContentCache cache(tmp.path());
  const std::string payload = "metrics\n---\nprofile\n";

  const std::string k_old = ContentKey("cfg", "trace", "dlpsim-serve-0");
  const std::string k_cur = ContentKey("cfg", "trace", BinaryVersion());
  EXPECT_NE(k_old, k_cur);

  ASSERT_TRUE(cache.Store(k_old, payload));
  // The entry stored under the old binary version is invisible at the
  // current version's key: a rebuilt server re-simulates.
  EXPECT_FALSE(cache.Load(k_cur).has_value());
  EXPECT_TRUE(cache.Load(k_old).has_value());
}

TEST(ContentCache, StoreThenLoadRoundTrips) {
  TempDir tmp;
  ContentCache cache(tmp.path());
  EXPECT_TRUE(cache.enabled());
  const std::string key = ContentKey("c", "t");
  const std::string payload = "a 1\nb 2\n---\nrdd 0 1\n";

  EXPECT_FALSE(cache.Load(key).has_value());
  ASSERT_TRUE(cache.Store(key, payload));
  const auto got = cache.Load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // footer stripped, payload byte-exact
}

TEST(ContentCache, TruncatedEntryIsAMiss) {
  TempDir tmp;
  ContentCache cache(tmp.path());
  const std::string key = ContentKey("c", "t");
  ASSERT_TRUE(cache.Store(key, "a 1\n---\nrdd 0 1\n"));

  // Simulate a writer killed mid-write: chop the entry anywhere. No
  // truncation point may yield a hit, because every complete entry ends
  // with the "#complete" footer line.
  const fs::path p = cache.PathFor(key);
  std::string text;
  {
    std::ifstream in(p, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (std::size_t len = 0; len < text.size(); ++len) {
    {
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out << text.substr(0, len);
    }
    EXPECT_FALSE(cache.Load(key).has_value()) << "truncated at " << len;
  }
}

TEST(ContentCache, StoreLeavesNoTempFiles) {
  TempDir tmp;
  ContentCache cache(tmp.path());
  ASSERT_TRUE(cache.Store(ContentKey("c", "t"), "payload\n"));
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.path())) {
    EXPECT_EQ(e.path(), cache.PathFor(ContentKey("c", "t")));
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ContentCache, DisabledWhenDirEmpty) {
  ContentCache cache{fs::path()};
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.Load(ContentKey("c", "t")).has_value());
  EXPECT_FALSE(cache.Store(ContentKey("c", "t"), "x"));
}

TEST(WorkloadTraceRefTest, EncodesAppAndScale) {
  const std::string a = WorkloadTraceRef("BFS", 1.0);
  EXPECT_NE(a, WorkloadTraceRef("NW", 1.0));
  EXPECT_NE(a, WorkloadTraceRef("BFS", 0.5));
  EXPECT_EQ(a, WorkloadTraceRef("BFS", 1.0));
  // Scales that print alike at 6 significant digits but build different
  // workloads (PVR runs 6 iterations at 0.0375, 5 at 0.03749999).
  EXPECT_NE(WorkloadTraceRef("PVR", 0.0375),
            WorkloadTraceRef("PVR", 0.03749999));
  // Short scales keep the text existing cache entries were keyed with.
  EXPECT_EQ(a, "app BFS scale 1");
  EXPECT_EQ(WorkloadTraceRef("BFS", 0.5), "app BFS scale 0.5");
  EXPECT_EQ(WorkloadTraceRef("BFS", 0.25), "app BFS scale 0.25");
  EXPECT_EQ(WorkloadTraceRef("BFS", 0.1), "app BFS scale 0.1");
  EXPECT_EQ(WorkloadTraceRef("BFS", 0.05), "app BFS scale 0.05");
  EXPECT_EQ(WorkloadTraceRef("BFS", 0.03), "app BFS scale 0.03");
  EXPECT_EQ(WorkloadTraceRef("BFS", 0.02), "app BFS scale 0.02");
}

TEST(Fnv1a64Test, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// CanonicalText must react to edits in every layer of SimConfig --
// otherwise two genuinely different configurations could share a cache
// entry. One representative field per sub-struct.
TEST(CanonicalTextTest, CoversEveryConfigLayer) {
  const SimConfig base;
  const std::string t0 = CanonicalText(base);
  EXPECT_EQ(t0.rfind("config_format v1\n", 0), 0u);
  EXPECT_EQ(t0, CanonicalText(base));  // pure function

  auto differs = [&](auto mutate, const char* what) {
    SimConfig c;
    mutate(c);
    EXPECT_NE(CanonicalText(c), t0) << "CanonicalText blind to " << what;
  };
  differs([](SimConfig& c) { c.num_cores += 1; }, "num_cores");
  differs([](SimConfig& c) { c.core.max_warps += 1; }, "core.*");
  differs([](SimConfig& c) { c.l1d.geom.ways *= 2; }, "l1d.geom.*");
  differs([](SimConfig& c) { c.l1d.mshr_entries += 1; }, "l1d mshr");
  differs([](SimConfig& c) { c.l1d.prot.pdpt_entries += 1; }, "l1d.prot.*");
  differs([](SimConfig& c) { c.l2.latency += 1; }, "l2.*");
  differs([](SimConfig& c) { c.dram.banks *= 2; }, "dram.*");
  differs([](SimConfig& c) { c.icnt.latency += 1; }, "icnt.*");
  differs([](SimConfig& c) { c.mem_mhz += 1; }, "clocks");
  differs([](SimConfig& c) { c.max_core_cycles += 1; }, "max_core_cycles");
}

}  // namespace
}  // namespace dlpsim::serve
