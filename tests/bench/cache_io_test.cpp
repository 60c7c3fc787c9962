// The bench result cache is serve::ContentCache under the server's key
// and payload: entry round trips, key composition, and bench::Run
// leaving an entry the server can serve. The store's own write
// discipline (temp file, footer, rename) is tested in tests/serve/.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "serve/content_cache.h"
#include "serve/request.h"

namespace dlpsim::bench {
namespace {

namespace fs = std::filesystem;

RunResult SampleResult() {
  RunResult r;
  r.metrics.core_cycles = 1234;
  r.metrics.committed_thread_insns = 99;
  r.metrics.l1d_load_hits = 42;
  r.profile.global.buckets = {1, 2, 3, 4};
  r.profile.reuse_accesses = 10;
  r.profile.reuse_misses = 5;
  r.profile.per_pc[7].buckets = {9, 8, 7, 6};
  return r;
}

// ctest runs every case as its own process, possibly in parallel, so
// each case owns a directory named after the test and its pid.
class CacheIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::path(::testing::TempDir()) /
           ("dlpsim_cache_io_" + test + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CacheIoTest, StoreLoadRoundTrip) {
  const serve::ContentCache cache(dir_);
  const std::string key = CellKey("SRK", "base", 1.0);
  const RunResult r = SampleResult();
  // The payload is the text dlpsim_server returns and stores.
  EXPECT_EQ(ToPayload(r), r.metrics.ToText() + "---\n" + r.profile.ToText());
  ASSERT_TRUE(cache.Store(key, ToPayload(r)));

  const auto payload = cache.Load(key);
  ASSERT_TRUE(payload.has_value());
  RunResult back;
  ASSERT_TRUE(FromPayload(*payload, &back));
  EXPECT_EQ(back.metrics.ToText(), r.metrics.ToText());
  EXPECT_EQ(back.profile.ToText(), r.profile.ToText());
}

TEST_F(CacheIoTest, MissingFileFails) {
  // An entry in the retired name-keyed format is not read either.
  std::ofstream(dir_ / "v2_SRK_base_s1.txt")
      << SampleResult().metrics.ToText() << "---\n"
      << SampleResult().profile.ToText() << "#complete\n";
  EXPECT_FALSE(
      serve::ContentCache(dir_).Load(CellKey("SRK", "base", 1.0)).has_value());
}

TEST_F(CacheIoTest, TruncatedEntryRejected) {
  const serve::ContentCache cache(dir_);
  const std::string key = CellKey("SRK", "base", 1.0);
  ASSERT_TRUE(cache.Store(key, ToPayload(SampleResult())));

  // Simulate a writer killed mid-write: chop the entry anywhere. No
  // truncation point may yield a usable result on the path bench::Run
  // reads, because every complete entry ends with the footer line.
  const fs::path path = cache.PathFor(key);
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (std::size_t len = 0; len < full.size(); len += 7) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << full.substr(0, len);
    const auto payload = cache.Load(key);
    RunResult out;
    EXPECT_FALSE(payload && FromPayload(*payload, &out))
        << "truncated at " << len;
  }
}

TEST_F(CacheIoTest, GarbageWithFooterRejected) {
  const serve::ContentCache cache(dir_);
  const std::string key = CellKey("SRK", "base", 1.0);
  std::ofstream(cache.PathFor(key))
      << "not a metrics block\n---\nnot a profile\n#complete\n";
  const auto payload = cache.Load(key);
  ASSERT_TRUE(payload.has_value());  // complete entry, unusable payload
  RunResult out;
  EXPECT_FALSE(FromPayload(*payload, &out));

  const RunResult r = SampleResult();
  EXPECT_FALSE(FromPayload(r.metrics.ToText(), &out));  // no separator
  EXPECT_FALSE(FromPayload(r.metrics.ToText() + "---\nnope\n", &out));
  EXPECT_FALSE(FromPayload("nope\n---\n" + r.profile.ToText(), &out));
}

TEST_F(CacheIoTest, PathIsScaleAware) {
  const serve::ContentCache cache(dir_);
  const fs::path a = cache.PathFor(CellKey("SRK", "base", 1.0));
  EXPECT_NE(a, cache.PathFor(CellKey("SRK", "base", 0.5)));
  EXPECT_NE(a, cache.PathFor(CellKey("SRK", "dlp", 1.0)));
  EXPECT_NE(a, cache.PathFor(CellKey("NW", "base", 1.0)));
  EXPECT_EQ(a, cache.PathFor(CellKey("SRK", "base", 1.0)));
  // Alike at 6 significant digits, different workloads.
  EXPECT_NE(cache.PathFor(CellKey("PVR", "base", 0.0375)),
            cache.PathFor(CellKey("PVR", "base", 0.03749999)));
  EXPECT_THROW(CellKey("SRK", "nope", 1.0), std::out_of_range);
}

TEST_F(CacheIoTest, CellKeyIsTheServerKey) {
  // The server keys a generated-workload request, as it arrives over the
  // wire, by canonical config text x workload ref x binary version.
  struct Cell {
    const char* app;
    const char* config;
    double scale;
  };
  const Cell cells[] = {{"NW", "dlp", 0.0375},
                       {"NW", "dlp", 0.03749999},
                       {"BFS", "base", 1.0},
                       {"SRK", "64kb", 0.03}};
  for (const Cell& c : cells) {
    serve::ExperimentRequest req;
    req.app = c.app;
    req.config = c.config;
    req.scale = c.scale;
    serve::ExperimentRequest got;
    ASSERT_TRUE(serve::ExperimentRequest::Parse(req.Serialize(), &got));
    const std::string server_key =
        serve::ContentKey(CanonicalText(ConfigFor(got.config)),
                          serve::WorkloadTraceRef(got.app, got.scale));
    EXPECT_EQ(CellKey(c.app, c.config, c.scale), server_key)
        << c.app << '/' << c.config << '@' << c.scale;
  }
  EXPECT_NE(CellKey("NW", "dlp", 0.0375), CellKey("NW", "dlp", 0.03749999));
}

TEST_F(CacheIoTest, RunStoresEntryUnderCellKey) {
  ASSERT_EQ(::setenv("DLPSIM_CACHE_DIR", dir_.c_str(), 1), 0);
  const RunResult r = bench::Run("NW", "dlp", 0.02);
  ::unsetenv("DLPSIM_CACHE_DIR");

  const serve::ContentCache cache(dir_);
  const auto entry = cache.Load(CellKey("NW", "dlp", 0.02));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(*entry, ToPayload(r));
  EXPECT_EQ(*entry, ToPayload(SimulateUncached("NW", "dlp", 0.02)));
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace dlpsim::bench
