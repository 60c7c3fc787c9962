// Content-hash tests: the trace ref is format independent (text and
// packed files of one record sequence share a ref), which is what lets
// the serve layer's content-addressed result cache coalesce the two
// forms onto one entry.
#include "trace/hash.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/content_cache.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "trace/record.h"
#include "trace/source.h"
#include "trace/writer.h"

namespace dlpsim::trace {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("dlpsim_trace_hash_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

std::vector<TraceAccess> SomeTrace(std::uint64_t seed, std::size_t n = 300) {
  Rng rng(seed);
  std::vector<TraceAccess> out;
  Addr a = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a += 1 + rng.Below(1u << 16);
    out.push_back({a, static_cast<Pc>(rng.Below(8)),
                   rng.Below(3) == 0 ? AccessType::kStore : AccessType::kLoad});
  }
  return out;
}

TEST(Hash, FormatIndependentFileRef) {
  TempDir tmp;
  const std::vector<TraceAccess> records = SomeTrace(1);

  {
    std::ofstream os(tmp.Path("a.trace"), std::ios::binary);
    WriteTextTrace(os, records);
  }
  {
    // Non-canonical block size and metadata: the ref must not care.
    std::ofstream os(tmp.Path("a.dlpt"), std::ios::binary);
    ASSERT_TRUE(WritePackedTrace(os, records, "app X\n", 7));
  }

  TraceParseError err;
  const std::string text_ref = TraceFileRef(tmp.Path("a.trace"), &err);
  ASSERT_FALSE(text_ref.empty()) << err.ToString();
  const std::string packed_ref = TraceFileRef(tmp.Path("a.dlpt"), &err);
  ASSERT_FALSE(packed_ref.empty()) << err.ToString();
  EXPECT_EQ(text_ref, packed_ref);
  EXPECT_EQ(text_ref.rfind("trace-", 0), 0u);
  EXPECT_EQ(text_ref.size(), 6u + 16u);  // "trace-" + 16 hex digits
}

TEST(Hash, DifferentTracesDifferentRefs) {
  const std::vector<TraceAccess> ta = SomeTrace(1);
  const std::vector<TraceAccess> tb = SomeTrace(2);
  VectorTraceSource a(ta);
  VectorTraceSource b(tb);
  std::uint64_t ha = 0;
  std::uint64_t hb = 0;
  TraceParseError err;
  ASSERT_TRUE(TraceContentHash(a, &ha, &err));
  ASSERT_TRUE(TraceContentHash(b, &hb, &err));
  EXPECT_NE(ha, hb);
}

TEST(Hash, SensitiveToEveryRecordField) {
  const std::vector<TraceAccess> base = SomeTrace(3, 50);
  auto hash_of = [](std::vector<TraceAccess> t) {
    VectorTraceSource src(t);
    std::uint64_t h = 0;
    TraceParseError err;
    EXPECT_TRUE(TraceContentHash(src, &h, &err));
    return h;
  };
  const std::uint64_t h0 = hash_of(base);

  std::vector<TraceAccess> mod = base;
  mod[10].addr ^= 1;
  EXPECT_NE(hash_of(mod), h0);
  mod = base;
  mod[10].pc += 1;
  EXPECT_NE(hash_of(mod), h0);
  mod = base;
  mod[10].type = mod[10].type == AccessType::kLoad ? AccessType::kStore
                                                   : AccessType::kLoad;
  EXPECT_NE(hash_of(mod), h0);
  mod = base;
  mod.pop_back();
  EXPECT_NE(hash_of(mod), h0);
}

TEST(Hash, EmptyTraceHashesAndIsStable) {
  std::vector<TraceAccess> empty;
  VectorTraceSource a(empty);
  VectorTraceSource b(empty);
  std::uint64_t ha = 0;
  std::uint64_t hb = 1;
  TraceParseError err;
  ASSERT_TRUE(TraceContentHash(a, &ha, &err));
  ASSERT_TRUE(TraceContentHash(b, &hb, &err));
  EXPECT_EQ(ha, hb);
}

TEST(Hash, FnvFoldsChunksLikeWhole) {
  // The content hash folds the canonical bytes through Fnv1a64 chunk by
  // chunk as the writer emits them; every split must equal one pass.
  const std::string_view s = "dlpsim content key";
  const std::uint64_t whole = Fnv1a64(s);
  for (std::size_t cut = 0; cut <= s.size(); ++cut) {
    EXPECT_EQ(Fnv1a64(s.substr(cut), Fnv1a64(s.substr(0, cut))), whole)
        << "cut at " << cut;
  }
}

TEST(Hash, UnreadableFileIsTypedError) {
  TraceParseError err;
  std::uint64_t h = 0;
  EXPECT_FALSE(TraceFileHash("/nonexistent/nope.dlpt", &h, &err));
  EXPECT_EQ(err.kind, TraceErrorKind::kIo);
  EXPECT_EQ(TraceFileRef("/nonexistent/nope.dlpt", &err), "");
}

TEST(Hash, ServeContentKeysCoalesceAcrossFormats) {
  TempDir tmp;
  const std::vector<TraceAccess> records = SomeTrace(4);
  {
    std::ofstream os(tmp.Path("w.trace"), std::ios::binary);
    WriteTextTrace(os, records);
  }
  {
    std::ofstream os(tmp.Path("w.dlpt"), std::ios::binary);
    ASSERT_TRUE(WritePackedTrace(os, records));
  }
  TraceParseError err;
  const std::string config_text = "policy dlp\nsets 32\n";
  const std::string key_text = serve::ContentKey(
      config_text, TraceFileRef(tmp.Path("w.trace"), &err));
  const std::string key_packed = serve::ContentKey(
      config_text, TraceFileRef(tmp.Path("w.dlpt"), &err));
  EXPECT_EQ(key_text, key_packed);
  // A different trace still keys differently.
  {
    std::ofstream os(tmp.Path("x.trace"), std::ios::binary);
    WriteTextTrace(os, SomeTrace(5));
  }
  EXPECT_NE(serve::ContentKey(config_text,
                              TraceFileRef(tmp.Path("x.trace"), &err)),
            key_text);
}

}  // namespace
}  // namespace dlpsim::trace
