#include "serve/content_cache.h"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "serve/request.h"

namespace dlpsim::serve {

namespace {
// Appended as the last line of every entry; an entry without it was
// interrupted mid-write and is treated as a miss.
constexpr const char* kFooter = "#complete";
}  // namespace

std::string_view BinaryVersion() { return kBinaryVersion; }

std::string ContentKey(std::string_view config_text, std::string_view trace_ref,
                       std::string_view binary_version) {
  return Hex16(Fnv1a64(config_text)) + "-" + Hex16(Fnv1a64(trace_ref)) + "-" +
         Hex16(Fnv1a64(binary_version));
}

std::string WorkloadTraceRef(std::string_view app, double scale) {
  return "app " + std::string(app) + " scale " + ScaleText(scale);
}

ContentCache::ContentCache(std::filesystem::path dir) : dir_(std::move(dir)) {}

std::filesystem::path ContentCache::PathFor(std::string_view key) const {
  return dir_ / (std::string(key) + ".res");
}

std::optional<std::string> ContentCache::Load(std::string_view key) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(PathFor(key));
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  const std::string footer = std::string(kFooter) + "\n";
  if (text.size() < footer.size() ||
      text.compare(text.size() - footer.size(), footer.size(), footer) != 0) {
    return std::nullopt;  // truncated / foreign entry
  }
  text.resize(text.size() - footer.size());
  return text;
}

bool ContentCache::Store(std::string_view key, std::string_view payload) const {
  if (!enabled()) return false;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);

  const fs::path path = PathFor(key);
  // Unique temp name per process and thread: concurrent writers of the
  // same key never collide, and rename() is atomic in-directory.
  std::ostringstream tmp_name;
  tmp_name << path.filename().string() << ".tmp." << ::getpid() << '.'
           << std::this_thread::get_id();
  const fs::path tmp = dir_ / tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return false;
    out << payload << kFooter << '\n';
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace dlpsim::serve
