// serve: round trips through a spawned dlpsim_server.
//
// The only workload that exercises serve/ and its content-addressed
// result cache. Every pass starts a server on a fresh cache directory;
// a cold phase requests each of the 108 (app x config) cells once, so
// every request misses and is simulated by a worker, then a warm phase
// re-requests seed-sampled cells, so every request hits. Load is closed
// loop (each client waits for its reply before sending the next
// request), like dlpsim_client and sweep scripts, from kClients
// connections in this one process.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/run_grid.h"
#include "harness.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/content_cache.h"
#include "sim/config.h"
#include "stats.h"
#include "workload.h"
#include "workloads/registry.h"

extern char** environ;

namespace dlpbench {

namespace {

using dlpsim::exec::Stopwatch;
using dlpsim::serve::Client;
using dlpsim::serve::ExperimentRequest;
using dlpsim::serve::ExperimentResponse;

constexpr std::size_t kClients = 4;
constexpr std::size_t kWorkers = 2;
constexpr double kScale = 0.03;
constexpr std::size_t kWarmRequests = 96000;
constexpr std::size_t kMinPasses = 2;
constexpr std::size_t kExtraSetups = 6;
constexpr int kCallTimeoutMs = 120000;
constexpr int kRejectRetries = 200;
constexpr int kPings = 1000;
constexpr int kCacheLoadsPerKey = 10;

/// One grid cell and the payload an in-process SimulateUncached gives.
struct Cell {
  std::string app;
  std::string config;
  std::string payload;
  double seconds = 0.0;  // in-process simulation wall
  std::string error;
};

std::vector<Cell> ReferenceCells(Outcome& out) {
  const std::vector<dlpsim::exec::Job> grid = dlpsim::exec::Grid(
      dlpsim::AllAppAbbrs(), dlpsim::bench::ConfigNames());
  // Same concurrency as the server's worker pool, so the in-process
  // cell time is comparable with a miss.
  std::vector<Cell> cells = dlpsim::exec::RunJobs(
      grid,
      [](const dlpsim::exec::Job& j) {
        Cell c;
        c.app = j.app;
        c.config = j.config;
        const Stopwatch clock;
        try {
          const dlpsim::bench::RunResult r =
              dlpsim::bench::SimulateUncached(j.app, j.config, kScale, {});
          c.payload = r.metrics.ToText() + "---\n" + r.profile.ToText();
        } catch (const std::exception& e) {
          c.error = e.what();
        }
        c.seconds = clock.Seconds();
        return c;
      },
      kWorkers);
  for (const Cell& c : cells) {
    out.Op(c.error.empty(), "in-process " + c.app + "/" + c.config + ": " +
                               c.error);
  }
  return cells;
}

/// A dlpsim_server child on a fresh cache directory, plus kClients
/// connections to it. Destruction stops the server (SIGTERM: graceful
/// drain), reaps it and removes the directory.
class Session {
 public:
  Session() : dir_("serve"), clients_(kClients) {
    // AF_UNIX paths are short; the relative form keeps deep checkouts
    // usable (client and server share this working directory).
    const std::filesystem::path sock = dir_.path() / "s.sock";
    socket_ = std::filesystem::relative(sock).string();
    if (socket_.size() > sock.string().size()) socket_ = sock.string();
  }

  ~Session() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Stopwatch clock;
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (clock.Seconds() > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawns the server, waits until it answers a Ping (that span is the
  /// set-up time) and connects the other clients.
  bool Start(std::string* err) {
    const Stopwatch clock;
    std::vector<std::string> args = {
        DLPSIM_SERVER_EXE, "--socket",      socket_,
        "--workers",       std::to_string(kWorkers),
        "--cache-dir",     (dir_.path() / "cache").string(),
        "--queue",         "64",
        "--retries",       "3",
        "--backoff-ms",    "10",
        "--deadline-ms",   "120000"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The server logs to stderr; its stdout joins it so this program's
    // stdout stays the result channel.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, DLPSIM_SERVER_EXE, &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      *err = std::string("spawn dlpsim_server: ") + std::strerror(rc);
      return false;
    }
    while (!clients_[0].Connect(socket_, err) || !clients_[0].Ping(err)) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        *err = "dlpsim_server exited before answering a ping";
        return false;
      }
      if (clock.Seconds() > 30.0) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    setup_s_ = clock.Seconds();
    for (Client& c : clients_) {
      if (!c.connected() && !c.Connect(socket_, err)) return false;
    }
    return true;
  }

  double setup_s() const { return setup_s_; }
  std::vector<Client>& clients() { return clients_; }

 private:
  ScratchDir dir_;
  std::string socket_;
  std::vector<Client> clients_;
  pid_t pid_ = -1;
  double setup_s_ = 0.0;
};

/// What the client threads saw in one phase.
struct CallLog {
  std::vector<double> seconds;  // per request index; -1 = failed
  std::vector<std::string> failures;
  std::uint64_t ok = 0;
  std::uint64_t reject_retries = 0;
};

/// Sends request 0..n-1 (built by `make`) over every client, closed loop:
/// each client takes the next request once its previous reply arrived.
/// `check` returns "" for a correct response, else why it is wrong.
CallLog Drive(std::vector<Client>& clients, std::size_t n,
              const std::function<ExperimentRequest(std::size_t)>& make,
              const std::function<std::string(std::size_t,
                                              const ExperimentResponse&)>&
                  check,
              SpanLog& spans, std::uint64_t parent) {
  CallLog log;
  log.seconds.assign(n, -1.0);  // each thread writes only its own indices
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (Client& client : clients) {
    threads.emplace_back([&, c = &client] {
      CallLog local;
      for (std::size_t k = next++; k < n; k = next++) {
        const ExperimentRequest req = make(k);
        ExperimentResponse resp;
        std::string err;
        const Stopwatch clock;
        bool sent = false;
        {
          const ScopedSpan span(spans, "serve.call", parent, req.id);
          sent = c->CallWithRetry(req, &resp, kRejectRetries, &err,
                                  kCallTimeoutMs, &local.reject_retries);
        }
        const double s = clock.Seconds();
        const std::string wrong =
            !sent ? "transport: " + err
                  : !resp.ok() ? "error: " + resp.detail : check(k, resp);
        if (wrong.empty()) {
          ++local.ok;
          log.seconds[k] = s;
        } else {
          local.failures.push_back(req.app + "/" + req.config + ": " + wrong);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      log.failures.insert(log.failures.end(), local.failures.begin(),
                          local.failures.end());
      log.ok += local.ok;
      log.reject_retries += local.reject_retries;
    });
  }
  for (std::thread& t : threads) t.join();
  return log;
}

void Count(Outcome& out, const CallLog& log) {
  for (std::uint64_t i = 0; i < log.ok; ++i) out.Op(true, "");
  for (const std::string& f : log.failures) out.Op(false, f);
}

/// Counter `name` or histogram p50 upper bound from a FetchMetrics("json")
/// document; -1 when absent.
double ServerMetric(const dlpsim::JsonValue& doc, const std::string& scope,
                    const std::string& name) {
  const dlpsim::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) return -1.0;
  for (const dlpsim::JsonValue& m : metrics->array) {
    const dlpsim::JsonValue* s = m.Find("scope");
    const dlpsim::JsonValue* n = m.Find("name");
    if (s == nullptr || n == nullptr || s->string != scope ||
        n->string != name) {
      continue;
    }
    if (const dlpsim::JsonValue* v = m.Find("value")) return v->number;
    const dlpsim::JsonValue* bounds = m.Find("bounds");
    const dlpsim::JsonValue* buckets = m.Find("buckets");
    if (bounds == nullptr || buckets == nullptr || bounds->array.empty()) {
      return -1.0;
    }
    const double half = static_cast<double>(m.U64("count")) / 2.0;
    double seen = 0.0;
    for (std::size_t b = 0; b < buckets->array.size(); ++b) {
      seen += buckets->array[b].number;
      if (seen >= half) {
        return bounds->array[std::min(b, bounds->array.size() - 1)].number;
      }
    }
  }
  return -1.0;
}

struct PassResult {
  double setup_s = 0.0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  CallLog cold;
  CallLog warm;
  double ping_us_p50 = 0.0;
  dlpsim::JsonValue server_metrics;
};

/// One pass: spawn, cold phase, warm phase, stop. With `per_layer` it
/// also pings and fetches the server's metrics.
PassResult RunPass(Outcome& out, const std::vector<Cell>& cells,
                   dlpsim::Rng& rng, bool per_layer, SpanLog& spans) {
  PassResult pass;
  Session session;
  std::string err;
  {
    const ScopedSpan span(spans, "serve.spawn");
    if (!session.Start(&err)) {
      out.Op(false, "server did not start: " + err);
      return pass;
    }
  }
  pass.setup_s = session.setup_s();
  std::vector<Client>& clients = session.clients();

  if (per_layer) {
    std::vector<double> pings;
    for (int i = 0; i < kPings; ++i) {
      const Stopwatch clock;
      const bool ok = clients[0].Ping(&err);
      pings.push_back(clock.Seconds() * 1e6);
      if (!ok) out.Op(false, "ping: " + err);
    }
    pass.ping_us_p50 = Median(pings);
  }

  const std::size_t n = cells.size();
  const std::vector<std::size_t> cold_order = Shuffled(n, rng);
  std::vector<std::size_t> warm_picks(kWarmRequests);
  for (std::size_t& p : warm_picks) p = rng.Below(n);
  const auto request = [&cells](std::size_t cell, std::uint64_t id) {
    ExperimentRequest req;
    req.id = id;
    req.app = cells[cell].app;
    req.config = cells[cell].config;
    req.scale = kScale;
    return req;
  };

  std::vector<std::string> cold_payload(n);
  Stopwatch clock;
  {
    const ScopedSpan phase(spans, "serve.cold_phase");
    pass.cold = Drive(
        clients, n,
        [&](std::size_t k) { return request(cold_order[k], k + 1); },
        [&](std::size_t k, const ExperimentResponse& resp) -> std::string {
          const std::size_t cell = cold_order[k];
          cold_payload[cell] = resp.result;
          if (resp.cached) return "cold request served from the cache";
          if (resp.result != cells[cell].payload) {
            return "payload differs from in-process SimulateUncached";
          }
          return "";
        },
        spans, phase.id());
  }
  pass.cold_s = clock.Seconds();

  clock.Reset();
  {
    const ScopedSpan phase(spans, "serve.warm_phase");
    pass.warm = Drive(
        clients, kWarmRequests,
        [&](std::size_t k) { return request(warm_picks[k], n + k + 1); },
        [&](std::size_t k, const ExperimentResponse& resp) -> std::string {
          if (!resp.cached) return "warm request missed the cache";
          if (resp.result != cold_payload[warm_picks[k]]) {
            return "warm payload differs from the cold one";
          }
          return "";
        },
        spans, phase.id());
  }
  pass.warm_s = clock.Seconds();
  Count(out, pass.cold);
  Count(out, pass.warm);

  if (per_layer) {
    std::string json;
    bool parsed = false;
    if (clients[0].FetchMetrics("json", &json, &err)) {
      pass.server_metrics = dlpsim::ParseJson(json, &parsed);
    }
    out.Op(parsed, "FetchMetrics: " + err);
  }
  return pass;
}

/// ContentCache::Store and ::Load called in-process on every cell.
void CacheLayer(Outcome& out, const std::vector<Cell>& cells, Round* round) {
  const ScratchDir dir("serve-cache");
  const dlpsim::serve::ContentCache cache(dir.path());
  std::vector<std::string> keys;
  std::vector<double> store_us;
  for (const Cell& c : cells) {
    keys.push_back(dlpsim::serve::ContentKey(
        dlpsim::CanonicalText(dlpsim::bench::ConfigFor(c.config)),
        dlpsim::serve::WorkloadTraceRef(c.app, kScale)));
    const Stopwatch clock;
    const bool stored = cache.Store(keys.back(), c.payload);
    store_us.push_back(clock.Seconds() * 1e6);
    out.Op(stored, "ContentCache::Store " + c.app + "/" + c.config);
  }
  std::vector<double> load_us;
  for (int rep = 0; rep < kCacheLoadsPerKey; ++rep) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Stopwatch clock;
      const std::optional<std::string> got = cache.Load(keys[i]);
      load_us.push_back(clock.Seconds() * 1e6);
      if (!got || *got != cells[i].payload) {
        out.Op(false, "ContentCache::Load " + cells[i].app + "/" +
                          cells[i].config);
      }
    }
  }
  round->times["serve.cache_store_us_p50"] = Median(store_us);
  round->times["serve.cache_load_us_p50"] = Median(load_us);
}

}  // namespace

Outcome RunServe(const Options& opt, SpanLog& spans) {
  Outcome out;
  const std::vector<Cell> cells = ReferenceCells(out);
  dlpsim::Rng rng(opt.seed);
  SpanLog untraced(false);

  if (!opt.trace) {
    // Server start-up takes milliseconds, so it is sampled more often
    // than the passes alone would.
    std::vector<double> setups = TimeSetups(opt, kExtraSetups, [&] {
      Session session;
      std::string err;
      const bool started = session.Start(&err);
      out.Op(started, "server did not start: " + err);
      return session.setup_s();
    });
    PassLoop loop(opt.seconds, kMinPasses, opt.host);
    std::vector<double> pass_setups;
    std::vector<double> warm_s;
    while (loop.More()) {
      const Stopwatch clock;
      const PassResult pass = RunPass(out, cells, rng, false, untraced);
      loop.Record(clock.Seconds());
      if (pass.warm_s == 0.0) break;  // the server never came up
      pass_setups.push_back(pass.setup_s);
      out.times.walls.push_back(pass.cold_s);
      warm_s.push_back(pass.warm_s);
    }
    out.times.host = loop.HostFactors();
    out.times.host.resize(out.times.walls.size());
    std::vector<double> warm_rates;
    for (std::size_t p = 0; p < warm_s.size(); ++p) {
      setups.push_back(pass_setups[p] / out.times.host[p]);
      warm_rates.push_back(static_cast<double>(kWarmRequests) /
                           (warm_s[p] / out.times.host[p]));
    }
    out.Set("setup_s", Median(setups), setups.size());
    ReportPassTimes(out);
    out.Set("events_per_s", Median(warm_rates), warm_rates.size());
  } else {
    std::vector<double> in_process_ms;
    for (const Cell& c : cells) in_process_ms.push_back(c.seconds * 1e3);
    PassLoop loop(opt.seconds, 1);
    std::vector<Round> rounds;
    while (loop.More()) {
      const Stopwatch clock;
      Round round;
      const PassResult plain = RunPass(out, cells, rng, false, untraced);
      const PassResult pass = RunPass(out, cells, rng, true, spans);
      CacheLayer(out, cells, &round);
      loop.Record(clock.Seconds());
      if (plain.warm_s == 0.0 || pass.warm_s == 0.0) break;

      const dlpsim::JsonValue& m = pass.server_metrics;
      const double runs = ServerMetric(m, "serve", "runs_executed");
      const double restarts = ServerMetric(m, "serve", "worker_restarts");
      out.Op(runs == static_cast<double>(cells.size()),
             "server ran " + std::to_string(runs) + " simulations, not " +
                 std::to_string(cells.size()));
      out.Op(restarts == 0.0, "server restarted a worker");
      round.counts["serve.runs_executed"] = runs;
      round.counts["serve.worker_restarts"] = restarts;
      round.counts["serve.cache_hits"] =
          ServerMetric(m, "serve", "cache_hits");
      round.counts["serve.reject_retries"] = static_cast<double>(
          pass.cold.reject_retries + pass.warm.reject_retries);

      std::vector<double> hit_us;
      for (const double s : pass.warm.seconds) {
        if (s >= 0.0) hit_us.push_back(s * 1e6);
      }
      std::vector<double> miss_ms;
      for (const double s : pass.cold.seconds) {
        if (s >= 0.0) miss_ms.push_back(s * 1e3);
      }
      round.times["serve.ping_us_p50"] = pass.ping_us_p50;
      round.times["serve.hit_p50_us"] = Median(hit_us);
      round.times["serve.hit_p99_us"] = Percentile(hit_us, 99.0);
      // 108 misses leave ten beyond the nearest-rank p90; a pass that
      // lost requests may not.
      out.Op(TailPercentile(miss_ms.size()) >= 90.0,
             "under 100 misses timed, so p90 is not a tail");
      round.times["serve.miss_p50_ms"] = Median(miss_ms);
      round.times["serve.miss_p90_ms"] = Percentile(miss_ms, 90.0);
      round.times["serve.miss_overhead_ms"] =
          Median(miss_ms) - Median(in_process_ms);
      round.times["serve.queue_wait_us_p50"] =
          ServerMetric(m, "serve_wall", "queue_wait_us");
      round.times["obs.trace_overhead_frac"] =
          (pass.cold_s + pass.warm_s) / (plain.cold_s + plain.warm_s) - 1.0;
      rounds.push_back(std::move(round));
    }
    if (!rounds.empty()) ReportRounds(out, rounds);
  }

  for (const Cell& c : cells) {
    out.digest_input += c.app + " " + c.config + "\n" + c.payload;
  }
  return out;
}

}  // namespace dlpbench
