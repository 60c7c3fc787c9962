// replay: cache-level trace replay from packed trace files.
//
// Set-up records the L1D access streams of four cache-insufficient apps
// on the baseline GPU and writes them as DLPT packed files. A timed pass
// opens every file and replays it through TraceReplayer under each L1D
// policy. All of that time is trace decode, L1D and policy code -- no SM,
// interconnect or memory model -- so this is the inverse of fig_cs: a
// cache, policy or decoder change shows here, an engine change must not.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_replay.h"
#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "harness.h"
#include "obs/profiler.h"
#include "stats.h"
#include "trace/recorder.h"
#include "trace/source.h"
#include "trace/writer.h"
#include "workload.h"
#include "workloads/registry.h"

namespace dlpbench {

namespace {

using dlpsim::ReplayResult;
using dlpsim::TraceAccess;
using dlpsim::TraceReplayer;
using dlpsim::exec::Stopwatch;

const std::vector<std::string> kApps = {"BFS", "MM", "SRK", "KM"};
const std::vector<std::string> kPolicies = {"base", "sb", "gp", "dlp"};
constexpr double kScale = 1.0;
// A policy sweep over recorded traces runs its replays side by side, like
// the figure grid; spreading a pass over every core also averages out
// one core's speed swings on a shared host.
constexpr std::size_t kJobs = 4;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMinPasses = 5;

struct Trace {
  std::string app;
  std::vector<TraceAccess> records;
  std::filesystem::path file;
  double record_s = 0.0;
  std::string error;
};

/// Every counter of a replay, one "name value" line each.
std::string ResultText(const ReplayResult& r) {
  std::ostringstream os;
  os << "cycles " << r.cycles << "\naccesses " << r.accesses
     << "\nstall_cycles " << r.stall_cycles << "\nloads " << r.cache.loads
     << "\nstores " << r.cache.stores << "\nload_hits " << r.cache.load_hits
     << "\nload_misses " << r.cache.load_misses << "\nstore_hits "
     << r.cache.store_hits << "\nmshr_merges " << r.cache.mshr_merges
     << "\nmisses_issued " << r.cache.misses_issued << "\nbypasses "
     << r.cache.bypasses << "\nreservation_fails "
     << r.cache.reservation_fails << "\nevictions " << r.cache.evictions
     << "\nwritebacks " << r.cache.writebacks << "\nfills " << r.cache.fills
     << '\n';
  return os.str();
}

/// Set-up: record every app's L1D stream (one app per thread) and write
/// it packed into `dir`. Later repetitions must record the same streams.
double Setup(Outcome& out, const ScratchDir& dir, std::vector<Trace>* traces,
             SpanLog& spans) {
  const Stopwatch clock;
  std::vector<Trace> got = dlpsim::exec::ParallelMap(
      kApps.size(),
      [&](std::size_t i) {
        Trace t;
        t.app = kApps[i];
        try {
          const Stopwatch record_clock;
          {
            const ScopedSpan span(spans, "trace.record");
            const dlpsim::Workload wl = dlpsim::MakeWorkload(t.app, kScale);
            dlpsim::GpuSimulator gpu(dlpsim::bench::ConfigFor("base"),
                                     wl.program.get(), wl.warps_per_sm);
            dlpsim::trace::TraceRecorder recorder(&t.records);
            gpu.AttachObserver(&recorder);
            gpu.Run();
          }
          t.record_s = record_clock.Seconds();
          const ScopedSpan span(spans, "trace.encode");
          t.file = dir.path() / (t.app + ".dlpt");
          std::ofstream os(t.file, std::ios::binary);
          if (!dlpsim::trace::WritePackedTrace(os, t.records,
                                               "app " + t.app + "\n") ||
              !os.flush()) {
            t.error = "cannot write " + t.file.string();
          }
        } catch (const std::exception& e) {
          t.error = e.what();
        }
        return t;
      },
      kApps.size());
  const double seconds = clock.Seconds();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same = traces->empty() || got[i].records == (*traces)[i].records;
    out.Op(got[i].error.empty() && !got[i].records.empty() && same,
           "record " + got[i].app + ": " +
               (got[i].error.empty() ? "stream differs between set-ups"
                                     : got[i].error));
  }
  *traces = std::move(got);
  return seconds;
}

std::size_t RecordCount(const std::vector<Trace>& traces) {
  std::size_t n = 0;
  for (const Trace& t : traces) n += t.records.size();
  return n;
}

/// One replay per (trace, policy), index = trace * policies + policy.
std::vector<ReplayResult> ReplayInMemory(const std::vector<Trace>& traces,
                                         dlpsim::obs::Profiler* profiler,
                                         SpanLog& spans,
                                         std::uint64_t parent) {
  std::vector<ReplayResult> results;
  for (const Trace& t : traces) {
    for (const std::string& policy : kPolicies) {
      const ScopedSpan span(spans, "analysis.replay", parent);
      TraceReplayer replayer(dlpsim::bench::ConfigFor(policy).l1d);
      replayer.cache().SetProfiler(profiler);
      results.push_back(replayer.Replay(t.records));
    }
  }
  return results;
}

/// One pass over every (trace, policy) from the packed files, submitted
/// in `order` to kJobs workers; each replay must equal the in-memory
/// reference.
void FilePass(Outcome& out, const std::vector<Trace>& traces,
              const std::vector<std::string>& reference,
              const std::vector<std::size_t>& order, SpanLog& spans,
              std::uint64_t parent) {
  // Per replay: "" when it equals the reference, else what went wrong.
  const std::vector<std::string> errors = dlpsim::exec::ParallelMap(
      order.size(),
      [&](std::size_t k) -> std::string {
        const std::size_t idx = order[k];
        const Trace& t = traces[idx / kPolicies.size()];
        const std::string& policy = kPolicies[idx % kPolicies.size()];
        const ScopedSpan span(spans, "analysis.replay", parent);
        dlpsim::TraceParseError perr;
        std::unique_ptr<dlpsim::trace::TraceSource> src;
        {
          const ScopedSpan open(spans, "trace.open", span.id());
          src = dlpsim::trace::OpenTraceFile(t.file.string(), &perr);
        }
        if (src == nullptr) return perr.ToString();
        TraceReplayer replayer(dlpsim::bench::ConfigFor(policy).l1d);
        const ReplayResult r = replayer.Replay(*src);
        if (!src->ok() || ResultText(r) != reference[idx]) {
          return "file replay differs from in-memory replay";
        }
        return "";
      },
      kJobs);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t idx = order[k];
    out.Op(errors[k].empty(),
           "replay " + traces[idx / kPolicies.size()].app + "/" +
               kPolicies[idx % kPolicies.size()] + ": " + errors[k]);
  }
}

Round TracedRound(Outcome& out, const std::vector<Trace>& traces,
                  const std::vector<std::string>& reference,
                  const std::vector<std::size_t>& order, SpanLog& spans) {
  Round round;
  SpanLog untraced(false);
  Stopwatch clock;
  FilePass(out, traces, reference, order, untraced, 0);
  const double plain_s = clock.Seconds();
  clock.Reset();
  {
    const ScopedSpan pass(spans, "replay.file_pass");
    FilePass(out, traces, reference, order, spans, pass.id());
  }
  const double traced_s = clock.Seconds();

  double decode_s = 0.0;
  double encode_s = 0.0;
  double packed_bytes = 0.0;
  for (const Trace& t : traces) {
    std::ifstream in(t.file, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    std::istringstream is(bytes.str());
    std::vector<TraceAccess> decoded;
    dlpsim::TraceParseError perr;
    clock.Reset();
    bool ok = false;
    {
      const ScopedSpan span(spans, "trace.decode");
      dlpsim::trace::PackedTraceSource src(is);
      ok = dlpsim::trace::ReadAllRecords(src, &decoded, &perr);
    }
    decode_s += clock.Seconds();
    out.Op(ok && decoded == t.records, "decode " + t.app);

    std::ostringstream os;
    clock.Reset();
    {
      const ScopedSpan span(spans, "trace.encode");
      ok = dlpsim::trace::WritePackedTrace(os, t.records, "app " + t.app + "\n");
    }
    encode_s += clock.Seconds();
    out.Op(ok && os.str() == bytes.str(), "encode " + t.app);
    packed_bytes += static_cast<double>(os.str().size());
  }

  const auto check = [&](const std::vector<ReplayResult>& results,
                         const char* what) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      out.Op(ResultText(results[i]) == reference[i],
             std::string(what) + " replay differs from the first one");
    }
  };
  clock.Reset();
  {
    const ScopedSpan pass(spans, "replay.memory_pass");
    check(ReplayInMemory(traces, nullptr, spans, pass.id()), "in-memory");
  }
  const double memory_s = clock.Seconds();
  dlpsim::obs::Profiler profiler;
  clock.Reset();
  {
    const ScopedSpan pass(spans, "replay.profiled_pass");
    check(ReplayInMemory(traces, &profiler, spans, pass.id()), "profiled");
  }
  const double profiled_s = clock.Seconds();

  AddPhaseStats(profiler.PhaseStats(), &round);

  const double records = static_cast<double>(RecordCount(traces));
  round.counts["trace.bytes_per_record"] = packed_bytes / records;
  round.times["trace.decode_records_per_s"] = records / decode_s;
  round.times["trace.encode_records_per_s"] = records / encode_s;
  round.times["analysis.replay_records_per_s"] =
      records * static_cast<double>(kPolicies.size()) / memory_s;
  round.times["obs.profiler_overhead_frac"] = profiled_s / memory_s - 1.0;
  round.times["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0;
  return round;
}

}  // namespace

Outcome RunReplay(const Options& opt, SpanLog& spans) {
  Outcome out;
  const ScratchDir dir("replay");
  std::vector<Trace> traces;
  std::vector<double> record_s;
  const std::vector<double> setups = TimeSetups(opt, kSetupReps, [&] {
    const double seconds = Setup(out, dir, &traces, spans);
    double s = 0.0;
    for (const Trace& t : traces) s += t.record_s;
    record_s.push_back(s);
    return seconds;
  });
  out.Set("setup_s", Median(setups), setups.size());
  out.Set("trace.record_s", Median(record_s), record_s.size());

  SpanLog untraced(false);
  const std::vector<ReplayResult> in_memory =
      ReplayInMemory(traces, nullptr, untraced, 0);
  std::vector<std::string> reference;
  for (const ReplayResult& r : in_memory) reference.push_back(ResultText(r));

  dlpsim::Rng rng(opt.seed);
  const std::size_t cells = traces.size() * kPolicies.size();
  if (!opt.trace) {
    PassLoop loop(opt.seconds, kMinPasses, opt.host);
    while (loop.More()) {
      const std::vector<std::size_t> order = Shuffled(cells, rng);
      const Stopwatch clock;
      FilePass(out, traces, reference, order, untraced, 0);
      loop.Record(clock.Seconds());
    }
    out.times.walls = loop.passes();
    out.times.host = loop.HostFactors();
    const double wall = ReportPassTimes(out);
    out.Set("events_per_s",
            static_cast<double>(RecordCount(traces) * kPolicies.size()) /
                wall,
            out.times.walls.size());
  } else {
    PassLoop loop(opt.seconds, 1);
    std::vector<Round> rounds;
    while (loop.More()) {
      const Stopwatch clock;
      rounds.push_back(
          TracedRound(out, traces, reference, Shuffled(cells, rng), spans));
      loop.Record(clock.Seconds());
    }
    ReportRounds(out, rounds);

    dlpsim::CacheStats t;
    for (const ReplayResult& r : in_memory) {
      t.accesses += r.cache.accesses;
      t.loads += r.cache.loads;
      t.load_hits += r.cache.load_hits;
      t.bypasses += r.cache.bypasses;
      t.reservation_fails += r.cache.reservation_fails;
    }
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    out.Set("core.l1d_accesses", static_cast<double>(t.accesses));
    out.Set("core.l1d_hit_rate",
            ratio(t.load_hits,
                  t.bypasses >= t.loads ? 0 : t.loads - t.bypasses));
    out.Set("core.bypass_frac", ratio(t.bypasses, t.accesses));
    out.Set("core.reservation_fail_frac",
            ratio(t.reservation_fails, t.accesses));
  }

  for (std::size_t i = 0; i < reference.size(); ++i) {
    out.digest_input += traces[i / kPolicies.size()].app + " " +
                        kPolicies[i % kPolicies.size()] + "\n" + reference[i];
  }
  return out;
}

}  // namespace dlpbench
