#include "spans.h"

#include "obs/json.h"

namespace dlpbench {

std::uint32_t SpanLog::ThreadIndex() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

std::uint64_t SpanLog::Begin(const std::string& name, std::uint64_t parent,
                             std::uint64_t request_id) {
  if (!enabled_) return 0;
  const double now = clock_.Seconds();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request_id = request_id;
  s.tid = ThreadIndex();
  s.start_s = now;
  s.end_s = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::End(std::uint64_t id) {
  if (id == 0) return;
  const double now = clock_.Seconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = now;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanLog::WriteChromeTrace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  dlpsim::JsonWriter w(os);
  w.BeginObject();
  w.KV("displayTimeUnit", "ms");
  w.Key("traceEvents").BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("cat", s.name.substr(0, s.name.find('.')));
    w.KV("ph", "X");
    w.KV("ts", s.start_s * 1e6);
    w.KV("dur", (s.end_s - s.start_s) * 1e6);
    w.KV("pid", std::uint64_t{1});
    w.KV("tid", std::uint64_t{s.tid});
    w.Key("args").BeginObject();
    w.KV("span_id", s.id);
    w.KV("parent", s.parent);
    if (s.request_id != 0) w.KV("request_id", s.request_id);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

}  // namespace dlpbench
