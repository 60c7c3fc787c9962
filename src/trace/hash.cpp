#include "trace/hash.h"

#include <ostream>
#include <streambuf>

#include "sim/hash.h"
#include "trace/writer.h"

namespace dlpsim::trace {

namespace {

/// A write-only streambuf that folds every byte into an FNV-1a hash --
/// the canonical packed bytes are hashed as the writer produces them,
/// never stored.
class FnvStreambuf : public std::streambuf {
 public:
  std::uint64_t hash() const { return hash_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = traits_type::to_char_type(ch);
      hash_ = Fnv1a64(std::string_view(&c, 1), hash_);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hash_ = Fnv1a64(std::string_view(s, static_cast<std::size_t>(n)), hash_);
    return n;
  }

 private:
  std::uint64_t hash_ = kFnv1a64Offset;
};

}  // namespace

bool TraceContentHash(TraceSource& src, std::uint64_t* hash,
                      TraceParseError* error) {
  FnvStreambuf sink;
  std::ostream os(&sink);
  PackedTraceWriter w(os, /*meta=*/"", kCanonicalBlockRecords);
  TraceAccess a;
  while (src.Next(&a)) w.Append(a);
  if (!src.ok()) {
    if (error != nullptr) *error = src.error();
    return false;
  }
  if (!w.Finish()) {
    if (error != nullptr) *error = w.error();
    return false;
  }
  *hash = sink.hash();
  return true;
}

bool TraceFileHash(const std::string& path, std::uint64_t* hash,
                   TraceParseError* error) {
  auto src = OpenTraceFile(path, error);
  if (src == nullptr) return false;
  return TraceContentHash(*src, hash, error);
}

std::string TraceFileRef(const std::string& path, TraceParseError* error) {
  std::uint64_t hash = 0;
  if (!TraceFileHash(path, &hash, error)) return "";
  return "trace-" + Hex16(hash);
}

}  // namespace dlpsim::trace
