#include "host_speed.h"

#include <algorithm>
#include <thread>

#include "stats.h"

namespace dlpbench {

namespace {

constexpr std::size_t kThreads = 4;  // the workloads' concurrency
constexpr std::uint32_t kSets = 1024;
constexpr std::uint32_t kWays = 8;
constexpr std::uint32_t kCounters = 1 << 16;
constexpr std::uint32_t kWarmAccesses = 200000;
constexpr std::uint32_t kAccesses = 1600000;

}  // namespace

/// One thread's cache model: tags and LRU stamps of a set-associative
/// cache, and a counter table.
struct HostSpeed::Model {
  std::vector<std::uint64_t> tags = std::vector<std::uint64_t>(kSets * kWays);
  std::vector<std::uint32_t> stamps = std::vector<std::uint32_t>(kSets * kWays);
  std::vector<std::uint32_t> counters = std::vector<std::uint32_t>(kCounters);

  /// `accesses` LRU lookups over a seeded address stream with a drifting
  /// hot region, from an empty cache: the table lookups, compares and
  /// branches of a cycle-level cache simulator, in a working set of a few
  /// hundred KiB.
  std::uint64_t Run(std::uint64_t seed, std::uint32_t accesses) {
    std::fill(tags.begin(), tags.end(), ~std::uint64_t{0});
    std::fill(stamps.begin(), stamps.end(), 0);
    std::fill(counters.begin(), counters.end(), 0);
    std::uint64_t x = 0x9e3779b97f4a7c15ull + seed;
    std::uint64_t hot = 0;
    std::uint64_t hits = 0;
    for (std::uint32_t i = 1; i <= accesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t line =
          (x & 7) < 5 ? hot + ((x >> 8) & 4095) : (x >> 12) & ((1 << 20) - 1);
      if ((i & 0xffff) == 0) hot += 512;
      const std::uint64_t set = (line ^ (line >> 10)) & (kSets - 1);
      std::uint64_t* tag = &tags[set * kWays];
      std::uint32_t* stamp = &stamps[set * kWays];
      std::uint32_t hit = kWays;
      std::uint32_t victim = 0;
      for (std::uint32_t w = 0; w < kWays; ++w) {
        if (tag[w] == line) hit = w;
        if (stamp[w] < stamp[victim]) victim = w;
      }
      if (hit < kWays) {
        ++hits;
        stamp[hit] = i;
      } else {
        tag[victim] = line;
        stamp[victim] = i;
      }
      ++counters[line & (kCounters - 1)];
    }
    return hits + counters[seed];
  }
};

HostSpeed::HostSpeed() : models_(kThreads) {}

HostSpeed::~HostSpeed() = default;

double HostSpeed::RunKernel() {
  std::vector<double> seconds(kThreads);
  std::vector<std::uint64_t> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &seconds, &results, t] {
      // The untimed warm-up wakes the thread's CPU and fills its caches,
      // so the sample measures the host's steady speed.
      results[t] = models_[t].Run(t, kWarmAccesses);
      const dlpsim::exec::Stopwatch clock;
      results[t] += models_[t].Run(t, kAccesses);
      seconds[t] = clock.Seconds();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t r : results) sink_ += r;
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / kThreads;
}

void HostSpeed::WarmUp(double seconds) {
  const dlpsim::exec::Stopwatch clock;
  while (clock.Seconds() < seconds) RunKernel();
}

void HostSpeed::Sample() {
  const double start = Now();
  const double seconds = RunKernel();
  samples_.push_back(Reading{start, Now(), seconds});
}

void HostSpeed::SampleEvery(double interval_s) {
  if (samples_.empty() || Now() - samples_.back().end >= interval_s) {
    Sample();
  }
}

double HostSpeed::FactorOver(double t0, double t1) const {
  const Reading* before = nullptr;
  const Reading* after = nullptr;
  for (const Reading& r : samples_) {
    if (r.end <= t0) before = &r;
    if (after == nullptr && r.start >= t1) after = &r;
  }
  if (before == nullptr && after == nullptr) return 1.0;
  const double seconds =
      before == nullptr  ? after->seconds
      : after == nullptr ? before->seconds
                         : (before->seconds + after->seconds) / 2.0;
  return seconds / kReferenceSeconds;
}

double HostSpeed::Factor() const {
  if (samples_.empty()) return 1.0;
  std::vector<double> seconds;
  for (const Reading& r : samples_) seconds.push_back(r.seconds);
  return Median(seconds) / kReferenceSeconds;
}

}  // namespace dlpbench
