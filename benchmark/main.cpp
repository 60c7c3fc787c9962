// dlpsim_benchmark: the repository's end-to-end benchmark driver.
//
//   dlpsim_benchmark --workload fig_cs|fig_ci|serve|replay|all
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--out FILE] [--trace-out FILE]
//   dlpsim_benchmark --compare BASE.jsonl CANDIDATE.jsonl
//
// --trace 0 measures the end-to-end metrics, --trace 1 runs the traced
// passes and reports the per-layer metrics (see metric_defs.h). Stdout
// carries one "workload metric value unit n=N" line per metric and, last,
// one JSON object {correct, attempted, failed, metrics}. --out appends a
// fuller record (digest, host) as one JSON line; --compare reads two such
// files (two sets of runs) and prints, per workload and end-to-end
// metric, both medians and quartiles and the change against the bound.
//
// The command line is the whole recipe: jobs, scales, seeds and server
// flags are fixed in the workload sources, and the program refuses to run
// when a DLPSIM_* knob that changes what is simulated or adds
// instrumentation is set. Its scratch files live under its build tree.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metric_defs.h"
#include "obs/json.h"
#include "serve/content_cache.h"
#include "stats.h"
#include "workload.h"

extern char** environ;

namespace dlpbench {
namespace {

const std::vector<std::string> kWorkloads = {"fig_cs", "fig_ci", "serve",
                                             "replay"};
// Parallel work a timed workload runs first, so that its set-up is not
// timed on an idle guest's slow start (see HostSpeed::WarmUp).
constexpr double kHostWarmUpSeconds = 1.0;

struct Args {
  Options opt;
  std::string out;
  std::string trace_out;
  std::vector<std::string> compare;
};

int Usage() {
  std::cerr << "usage: dlpsim_benchmark --workload fig_cs|fig_ci|serve|"
               "replay|all [--seed N] [--seconds S]\n"
               "                        [--trace 0|1] [--out FILE] "
               "[--trace-out FILE]\n"
               "       dlpsim_benchmark --compare BASE.jsonl "
               "CANDIDATE.jsonl\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--compare") {
      if (i + 2 >= argc) return false;
      a->compare = {argv[i + 1], argv[i + 2]};
      i += 2;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a->opt.workload = value;
      } else if (flag == "--seed") {
        a->opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a->opt.seconds = std::stod(value);
        if (!(a->opt.seconds > 0.0)) return false;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        a->opt.trace = value == "1";
      } else if (flag == "--out") {
        a->out = value;
      } else if (flag == "--trace-out") {
        a->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (!a->compare.empty()) return true;
  return a->opt.workload == "all" ||
         std::find(kWorkloads.begin(), kWorkloads.end(), a->opt.workload) !=
             kWorkloads.end();
}

/// Names every DLPSIM_* knob in the environment that changes what is
/// simulated or adds instrumentation (the harness and server read them
/// behind the command line's back).
std::vector<std::string> RefusedKnobs() {
  static const std::vector<std::string> kRefused = {
      "DLPSIM_FAULTS",   "DLPSIM_PROFILE",  "DLPSIM_CHECK",
      "DLPSIM_WATCHDOG", "DLPSIM_METRICS",  "DLPSIM_PROGRESS",
      "DLPSIM_JOBS",     "DLPSIM_SERVER_NOCACHE", "DLPSIM_SERVER_CHAOS"};
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    if (name.rfind("DLPSIM_TRACE", 0) == 0 ||
        std::find(kRefused.begin(), kRefused.end(), name) != kRefused.end()) {
      found.push_back(name);
    }
  }
  return found;
}

/// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string Hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

Outcome RunWorkload(const std::string& name, const Options& opt,
                    SpanLog& spans) {
  try {
    if (name == "fig_cs") return RunFig(opt, false, spans);
    if (name == "fig_ci") return RunFig(opt, true, spans);
    if (name == "serve") return RunServe(opt, spans);
    return RunReplay(opt, spans);
  } catch (const std::exception& e) {
    Outcome out;
    out.Op(false, name + ": " + e.what());
    return out;
  }
}

/// The reported metrics of one run: every metric of the mode's table,
/// per-layer ones a workload never touched as 0.
std::map<std::string, MetricValue> Reported(Outcome& out, bool trace) {
  std::map<std::string, MetricValue> shown;
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const std::string name(def.name);
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end()) {
      if (!trace) out.Op(false, "end-to-end metric " + name + " not measured");
      shown[name] = MetricValue{0.0, 0};
    } else {
      if (!std::isfinite(it->second.value)) {
        out.Op(false, name + " is not finite");
      }
      shown[name] = it->second;
    }
  }
  return shown;
}

void AppendRecord(const std::string& path, const std::string& workload,
                  const Args& a, const Outcome& out,
                  const std::map<std::string, MetricValue>& shown,
                  const std::string& digest, const HostSpeed& host) {
  std::ofstream os(path, std::ios::app);
  dlpsim::JsonWriter w(os);
  w.BeginObject();
  w.KV("workload", workload);
  w.KV("seed", a.opt.seed);
  w.KV("seconds", a.opt.seconds);
  w.KV("trace", std::uint64_t{a.opt.trace ? 1u : 0u});
  w.KV("correct", out.failed == 0);
  w.KV("attempted", out.attempted);
  w.KV("failed", out.failed);
  w.KV("digest", digest);
  w.Key("host").BeginObject();
  w.KV("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  w.KV("build_type", BENCH_BUILD_TYPE);
  w.KV("compiler", BENCH_COMPILER);
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : shown) {
    w.Key(name).BeginObject();
    w.KV("value", m.value);
    w.KV("unit", FindMetric(name)->unit);
    w.KV("n", m.n);
    w.EndObject();
  }
  w.EndObject();
  w.KV("host_factor", host.Factor());
  w.Key("pass_walls_s").BeginArray();
  for (const double s : out.times.walls) w.Value(s);
  w.EndArray();
  w.Key("pass_host_factors").BeginArray();
  for (const double f : out.times.host) w.Value(f);
  w.EndArray();
  w.EndObject();
  os << '\n';
}

int RunBenchmark(const Args& a) {
  const std::vector<std::string> refused = RefusedKnobs();
  if (!refused.empty()) {
    for (const std::string& k : refused) {
      std::cerr << "dlpsim_benchmark: " << k
                << " is set; unset it: it changes what is simulated or adds "
                   "instrumentation\n";
    }
    return 2;
  }
  const std::vector<std::string> workloads =
      a.opt.workload == "all" ? kWorkloads
                              : std::vector<std::string>{a.opt.workload};
  std::cout << "# dlpsim_benchmark workload=" << a.opt.workload
            << " seed=" << a.opt.seed << " seconds=" << a.opt.seconds
            << " trace=" << a.opt.trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " build=" << BENCH_BUILD_TYPE << " compiler=" << BENCH_COMPILER
            << '\n';

  SpanLog spans(a.opt.trace);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::ostringstream json_metrics;
  for (const std::string& w : workloads) {
    HostSpeed host;
    Options opt = a.opt;
    opt.host = &host;
    if (!opt.trace) host.WarmUp(kHostWarmUpSeconds);
    Outcome out = RunWorkload(w, opt, spans);
    if (!opt.trace) out.Set("peak_rss_mb", PeakRssMb());
    const std::map<std::string, MetricValue> shown =
        Reported(out, a.opt.trace);
    const std::string digest = Hex(dlpsim::serve::Fnv1a64(out.digest_input));
    for (const auto& [name, m] : shown) {
      std::cout << w << ' ' << name << ' ' << Num(m.value) << ' '
                << FindMetric(name)->unit << " n=" << m.n << '\n';
    }
    if (!opt.trace) {
      std::cout << w << " host_factor " << Num(host.Factor())
                << " n=" << host.samples() << '\n';
    }
    std::cout << w << " digest " << digest << '\n'
              << w << " ops_attempted " << out.attempted << " ops_failed "
              << out.failed << '\n';
    for (const std::string& e : out.errors) {
      std::cerr << "dlpsim_benchmark: " << w << ": FAILED " << e << '\n';
    }
    if (!a.out.empty()) AppendRecord(a.out, w, a, out, shown, digest, host);
    attempted += out.attempted;
    failed += out.failed;
    for (const auto& [name, m] : shown) {
      const std::string key = workloads.size() == 1 ? name : w + "." + name;
      json_metrics << (json_metrics.tellp() > 0 ? ", " : "") << '"' << key
                   << "\": {\"value\": "
                   << Num(std::isfinite(m.value) ? m.value : 0.0)
                   << ", \"unit\": \"" << FindMetric(name)->unit << "\"}";
    }
  }

  if (a.opt.trace && !a.trace_out.empty()) {
    std::ofstream os(a.trace_out);
    spans.WriteChromeTrace(os);
    std::cerr << "dlpsim_benchmark: " << spans.size() << " spans -> "
              << a.trace_out << '\n';
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << json_metrics.str() << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

/// workload -> metric -> the values of every --trace 0 run in `path`.
using RunSet = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool LoadRunSet(const std::string& path, RunSet* set) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dlpsim_benchmark: cannot read " << path << '\n';
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    bool ok = false;
    const dlpsim::JsonValue rec = dlpsim::ParseJson(line, &ok);
    const dlpsim::JsonValue* workload = rec.Find("workload");
    const dlpsim::JsonValue* metrics = rec.Find("metrics");
    if (!ok || workload == nullptr || metrics == nullptr) {
      std::cerr << "dlpsim_benchmark: " << path << ": not a run record\n";
      return false;
    }
    if (rec.U64("trace") != 0) continue;
    for (const auto& [name, m] : metrics->object) {
      if (const dlpsim::JsonValue* v = m.Find("value")) {
        (*set)[workload->string][name].push_back(v->number);
      }
    }
  }
  return true;
}

int RunCompare(const std::string& base_path, const std::string& cand_path) {
  RunSet base;
  RunSet cand;
  if (!LoadRunSet(base_path, &base) || !LoadRunSet(cand_path, &cand)) {
    return 2;
  }
  const auto cell = [](const std::vector<double>& v) {
    const Quartiles q = QuartilesOf(v);
    std::ostringstream os;
    os << std::setprecision(5) << Median(v) << " [" << q.q1 << ", " << q.q3
       << "] " << std::setprecision(2) << std::fixed << 100.0 * Spread(v)
       << '%';
    return os.str();
  };
  std::cout << std::left << std::setw(9) << "workload" << std::setw(16)
            << "metric" << std::setw(4) << "n" << std::setw(42)
            << "base: median [q1, q3] spread" << std::setw(42)
            << "candidate: median [q1, q3] spread" << std::setw(10)
            << "change" << std::setw(7) << "bound"
            << "verdict\n";
  bool regressed = false;
  for (const auto& [workload, metrics] : base) {
    const auto c = cand.find(workload);
    if (c == cand.end()) continue;
    for (const MetricDef& def : EndToEndMetrics()) {
      const std::string name(def.name);
      const auto bv = metrics.find(name);
      const auto cv = c->second.find(name);
      if (bv == metrics.end() || cv == c->second.end()) continue;
      const Verdict v = Compare(bv->second, cv->second, def.better, def.bound);
      regressed = regressed || v == Verdict::kRegressed;
      std::ostringstream change;
      change << std::showpos << std::fixed << std::setprecision(2)
             << 100.0 * Worsening(Median(bv->second), Median(cv->second),
                                  def.better)
             << '%';
      std::ostringstream bound;
      bound << std::fixed << std::setprecision(0) << 100.0 * def.bound << '%';
      std::cout << std::left << std::setw(9) << workload << std::setw(16)
                << name << std::setw(4)
                << std::min(bv->second.size(), cv->second.size())
                << std::setw(42) << cell(bv->second) << std::setw(42)
                << cell(cv->second) << std::setw(10) << change.str()
                << std::setw(7) << bound.str() << ToString(v) << '\n';
    }
  }
  std::cout << "change = worsening of the candidate's median (negative = "
               "better)\n";
  return regressed ? 1 : 0;
}

}  // namespace
}  // namespace dlpbench

int main(int argc, char** argv) {
  dlpbench::Args args;
  if (!dlpbench::ParseArgs(argc, argv, &args)) return dlpbench::Usage();
  if (!args.compare.empty()) {
    return dlpbench::RunCompare(args.compare[0], args.compare[1]);
  }
  return dlpbench::RunBenchmark(args);
}
