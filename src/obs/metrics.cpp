#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "obs/json.h"

namespace dlpsim::obs {

const char* ToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()), counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::logic_error("histogram bounds must be strictly increasing");
    }
  }
}

void Histogram::Observe(std::uint64_t v, std::uint64_t count) {
  // First bound >= v wins (Prometheus "le" semantics); above the last
  // bound lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      count, std::memory_order_relaxed);
  sum_.fetch_add(v * count, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    counts.push_back(c.load(std::memory_order_relaxed));
  }
  return counts;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {
std::string KeyOf(std::string_view scope, std::string_view name) {
  std::string key(scope);
  key += '\x1f';  // cannot collide with any printable scope/name pair
  key += name;
  return key;
}
}  // namespace

Registry::Entry* Registry::FindOrNull(const std::string& key) {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

Counter* Registry::GetCounter(std::string_view scope, std::string_view name,
                              std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = KeyOf(scope, name);
  if (Entry* e = FindOrNull(key); e != nullptr) {
    if (e->info.kind != MetricKind::kCounter) {
      throw std::logic_error("metric " + std::string(scope) + "." +
                             std::string(name) +
                             " already registered with a different kind");
    }
    return e->counter.get();
  }
  Entry& e = entries_[key];
  e.info = {std::string(scope), std::string(name), std::string(help),
            MetricKind::kCounter};
  e.counter = std::make_unique<Counter>();
  return e.counter.get();
}

Gauge* Registry::GetGauge(std::string_view scope, std::string_view name,
                          std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = KeyOf(scope, name);
  if (Entry* e = FindOrNull(key); e != nullptr) {
    if (e->info.kind != MetricKind::kGauge) {
      throw std::logic_error("metric " + std::string(scope) + "." +
                             std::string(name) +
                             " already registered with a different kind");
    }
    return e->gauge.get();
  }
  Entry& e = entries_[key];
  e.info = {std::string(scope), std::string(name), std::string(help),
            MetricKind::kGauge};
  e.gauge = std::make_unique<Gauge>();
  return e.gauge.get();
}

Histogram* Registry::GetHistogram(std::string_view scope,
                                  std::string_view name,
                                  std::span<const std::uint64_t> bounds,
                                  std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = KeyOf(scope, name);
  if (Entry* e = FindOrNull(key); e != nullptr) {
    if (e->info.kind != MetricKind::kHistogram ||
        !std::equal(bounds.begin(), bounds.end(),
                    e->histogram->bounds().begin(),
                    e->histogram->bounds().end())) {
      throw std::logic_error("metric " + std::string(scope) + "." +
                             std::string(name) +
                             " already registered with a different "
                             "kind/bounds");
    }
    return e->histogram.get();
  }
  Entry& e = entries_[key];
  e.info = {std::string(scope), std::string(name), std::string(help),
            MetricKind::kHistogram};
  e.histogram = std::make_unique<Histogram>(bounds);
  return e.histogram.get();
}

std::vector<MetricSample> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSample s;
    s.info = e.info;
    switch (e.info.kind) {
      case MetricKind::kCounter:
        s.counter = e.counter->Value();
        break;
      case MetricKind::kGauge:
        s.gauge = e.gauge->Value();
        break;
      case MetricKind::kHistogram:
        s.bounds = e.histogram->bounds();
        s.bucket_counts = e.histogram->BucketCounts();
        s.count = e.histogram->Count();
        s.sum = e.histogram->Sum();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    switch (e.info.kind) {
      case MetricKind::kCounter:
        e.counter->Reset();
        break;
      case MetricKind::kGauge:
        e.gauge->Reset();
        break;
      case MetricKind::kHistogram:
        e.histogram->Reset();
        break;
    }
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Registry& Registry::Global() {
  static Registry registry;
  return registry;
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

std::string PrometheusName(std::string_view scope, std::string_view name) {
  std::string out = "dlpsim_";
  const auto append = [&out](std::string_view part) {
    for (const char c : part) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out += ok ? c : '_';
    }
  };
  append(scope);
  out += '_';
  append(name);
  return out;
}

std::string PrometheusLabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void Registry::WriteText(std::ostream& os) const {
  for (const MetricSample& s : Snapshot()) {
    const std::string pname = PrometheusName(s.info.scope, s.info.name);
    if (!s.info.help.empty()) {
      // HELP text: escape backslash and newline per the exposition format.
      std::string help;
      for (const char c : s.info.help) {
        if (c == '\\') {
          help += "\\\\";
        } else if (c == '\n') {
          help += "\\n";
        } else {
          help += c;
        }
      }
      os << "# HELP " << pname << ' ' << help << '\n';
    }
    os << "# TYPE " << pname << ' ' << ToString(s.info.kind) << '\n';
    // Sanitizing can collapse distinct raw names; the raw identity rides
    // along as labels so nothing is lost.
    const std::string labels = "{scope=\"" +
                               PrometheusLabelEscape(s.info.scope) +
                               "\",name=\"" +
                               PrometheusLabelEscape(s.info.name) + "\"}";
    switch (s.info.kind) {
      case MetricKind::kCounter:
        os << pname << labels << ' ' << s.counter << '\n';
        break;
      case MetricKind::kGauge:
        os << pname << labels << ' ' << s.gauge << '\n';
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < s.bucket_counts.size(); ++b) {
          cumulative += s.bucket_counts[b];
          os << pname << "_bucket{scope=\""
             << PrometheusLabelEscape(s.info.scope) << "\",name=\""
             << PrometheusLabelEscape(s.info.name) << "\",le=\"";
          if (b < s.bounds.size()) {
            os << s.bounds[b];
          } else {
            os << "+Inf";
          }
          os << "\"} " << cumulative << '\n';
        }
        os << pname << "_sum" << labels << ' ' << s.sum << '\n';
        os << pname << "_count" << labels << ' ' << s.count << '\n';
        break;
      }
    }
  }
}

void Registry::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema", "dlpsim-metrics-v1");
  w.Key("metrics").BeginArray();
  for (const MetricSample& s : Snapshot()) {
    w.BeginObject();
    w.KV("scope", s.info.scope);
    w.KV("name", s.info.name);
    w.KV("kind", ToString(s.info.kind));
    if (!s.info.help.empty()) w.KV("help", s.info.help);
    switch (s.info.kind) {
      case MetricKind::kCounter:
        w.KV("value", s.counter);
        break;
      case MetricKind::kGauge:
        w.KV("value", std::int64_t{s.gauge});
        break;
      case MetricKind::kHistogram:
        w.Key("bounds").BeginArray();
        for (const std::uint64_t b : s.bounds) w.Value(b);
        w.EndArray();
        w.Key("buckets").BeginArray();
        for (const std::uint64_t c : s.bucket_counts) w.Value(c);
        w.EndArray();
        w.KV("count", s.count);
        w.KV("sum", s.sum);
        break;
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

}  // namespace dlpsim::obs
