// dlpsim-as-a-service daemon.
//
// One binary, two roles:
//
//   dlpsim_server [flags]              -- the server: listens on an
//       AF_UNIX socket, admits experiment requests into a bounded queue
//       and schedules them across fork/exec'd worker processes (fault
//       domains: a crashing or wedged simulation can never take the
//       daemon down). SIGTERM/SIGINT (or a client kShutdown frame)
//       begins a graceful drain: everything already admitted is served,
//       then the process exits 0.
//
//   dlpsim_server --worker-fd N ...    -- a worker: spawned by the
//       server with one end of a socketpair on fd N; loops reading
//       requests and writing responses. With --stub it answers from
//       serve::StubRunner (protocol/chaos testing without simulations);
//       otherwise each request runs a real simulation via
//       bench::SimulateUncached with explicit per-request overrides
//       (fault spec, watchdog) -- never by mutating the environment.
//
// Environment knobs (flags override; all reads go through dlpsim::env):
//   DLPSIM_SERVER_SOCKET      - listen socket path (default dlpsim.sock)
//   DLPSIM_SERVER_WORKERS     - worker processes / fault domains (4)
//   DLPSIM_SERVER_QUEUE       - admission queue capacity (64)
//   DLPSIM_SERVER_RETRIES     - max attempts per request (3)
//   DLPSIM_SERVER_BACKOFF_MS  - base retry backoff, doubled per attempt (10)
//   DLPSIM_SERVER_DEADLINE_MS - default per-request deadline (30000)
//   DLPSIM_SERVER_CACHE_DIR   - content-addressed result cache directory
//                               (default .dlpsim_serve_cache)
//   DLPSIM_SERVER_NOCACHE     - set to disable the result cache
//   DLPSIM_SERVER_CHAOS       - set to make workers honor request chaos
//                               directives (crash/exit/spin injection)
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_replay.h"
#include "harness.h"
#include "robust/error.h"
#include "serve/content_cache.h"
#include "serve/server.h"
#include "serve/worker.h"
#include "sim/config.h"
#include "sim/env.h"
#include "sim/parse.h"
#include "trace/hash.h"
#include "trace/source.h"

namespace {

using namespace dlpsim;

int g_sigpipe_wr = -1;

void OnSignal(int) {
  // Async-signal-safe: one byte down the self-pipe.
  const char b = 1;
  [[maybe_unused]] ssize_t n = ::write(g_sigpipe_wr, &b, 1);
}

/// argv[0] as an exec-able path for respawning ourselves as a worker.
std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// Trace-replay requests (req.trace non-empty): pull the recorded trace
/// -- text or DLPT packed, sniffed from the file -- through the
/// cache-level TraceReplayer under req.config's L1D. The result text is
/// integer counters only (no float formatting), so it is byte-identical
/// for a given trace content regardless of the on-disk format.
serve::WorkerResult TraceReplayRunner(const serve::ExperimentRequest& req) {
  TraceParseError perr;
  auto src = trace::OpenTraceFile(req.trace, &perr);
  if (src == nullptr) {
    throw robust::RunErrorException(robust::RunError::kRunFailed,
                                    req.trace + ": " + perr.ToString());
  }
  TraceReplayer replayer(bench::ConfigFor(req.config).l1d);
  const ReplayResult r = replayer.Replay(*src);
  if (!src->ok()) {
    // A malformed tail is a typed failure, never a silent prefix replay.
    throw robust::RunErrorException(robust::RunError::kRunFailed,
                                    req.trace + ": " + src->error().ToString());
  }
  std::ostringstream os;
  os << "accesses " << r.accesses << '\n'
     << "cycles " << r.cycles << '\n'
     << "stall_cycles " << r.stall_cycles << '\n'
     << "loads " << r.cache.loads << '\n'
     << "load_hits " << r.cache.load_hits << '\n'
     << "load_misses " << r.cache.load_misses << '\n'
     << "stores " << r.cache.stores << '\n'
     << "bypasses " << r.cache.bypasses << '\n'
     << "evictions " << r.cache.evictions << '\n'
     << "writebacks " << r.cache.writebacks << '\n'
     << "---\n"
     << "trace replay config " << req.config << '\n';
  serve::WorkerResult out;
  out.result = os.str();
  return out;
}

/// Real runner: one simulation per request, resilience hooks passed
/// explicitly so worker state never leaks across requests.
serve::WorkerResult BenchRunner(const serve::ExperimentRequest& req) {
  if (!req.trace.empty()) return TraceReplayRunner(req);
  bench::RunOverrides ov;
  ov.fault_spec = req.faults;
  ov.watchdog_cycles = req.watchdog_cycles;
  // Throws propagate: WorkerLoop maps RunErrorException to its typed
  // kind and anything else to kRunFailed.
  serve::WorkerResult out;
  out.result = bench::ToPayload(
      bench::SimulateUncached(req.app, req.config, req.scale, ov));
  return out;
}

/// Content key for real experiments: canonicalized configuration text
/// (so "dlp" keys identically however it was spelled into a SimConfig)
/// x workload trace ref x binary version. Generated workloads key through
/// bench::CellKey, so the figure benches' DLPSIM_CACHE_DIR entries are
/// this server's entries and vice versa. Requests with resilience
/// hooks are never cached -- faulty results must not be served to clean
/// requests, mirroring the DLPSIM_FAULTS/DLPSIM_NOCACHE coupling of the
/// bench harness. Trace-replay requests key on the trace file's *content
/// hash* over canonical packed bytes (trace/hash.h), not its path or
/// on-disk format: a text trace and its packed copy coalesce onto one
/// cache entry, and rewriting a file with different bytes for the same
/// records never invalidates its results.
std::string BenchKeyFn(const serve::ExperimentRequest& req) {
  if (!req.faults.empty() || !req.chaos.empty() || req.watchdog_cycles != 0) {
    return "";
  }
  std::string config_text;
  try {
    if (req.trace.empty()) {
      return bench::CellKey(req.app, req.config, req.scale);
    }
    config_text = CanonicalText(bench::ConfigFor(req.config));
  } catch (const std::exception&) {
    return "";  // unknown config: let the worker produce the typed error
  }
  TraceParseError perr;
  const std::string ref = trace::TraceFileRef(req.trace, &perr);
  // Unreadable/corrupt trace: uncached; the worker reports the typed
  // parse error and a later fixed file is not shadowed by a bad entry.
  if (ref.empty()) return "";
  return serve::ContentKey(config_text, ref);
}

struct Flags {
  bool worker = false;
  int worker_fd = -1;
  bool stub = false;
  bool chaos = false;
  bool nocache = false;
  std::string socket_path;
  std::string cache_dir;
  std::size_t workers = 0;
  std::size_t queue = 0;
  int retries = 0;
  std::uint64_t backoff_ms = 0;
  std::uint64_t deadline_ms = 0;
};

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--socket PATH] [--workers N] [--queue N] [--retries N]\n"
         "       [--backoff-ms N] [--deadline-ms N] [--cache-dir DIR]\n"
         "       [--nocache] [--chaos] [--stub]\n"
         "worker mode (spawned by the server): --worker-fd N [--stub] "
         "[--chaos]\n";
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << what << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    // Reads the flag's value into `dst`; false when it is not a decimal
    // number that `dst` can hold.
    auto number = [&](const char* what, auto* dst) {
      const char* v = next(what);
      if (v == nullptr) return false;
      if (ParseUnsigned(v, dst)) return true;
      std::cerr << what << ": bad value '" << v << "'\n";
      return false;
    };
    if (a == "--worker-fd") {
      if (!number("--worker-fd", &f->worker_fd)) return false;
      f->worker = true;
    } else if (a == "--stub") {
      f->stub = true;
    } else if (a == "--chaos") {
      f->chaos = true;
    } else if (a == "--nocache") {
      f->nocache = true;
    } else if (a == "--socket") {
      const char* v = next("--socket");
      if (v == nullptr) return false;
      f->socket_path = v;
    } else if (a == "--cache-dir") {
      const char* v = next("--cache-dir");
      if (v == nullptr) return false;
      f->cache_dir = v;
    } else if (a == "--workers") {
      if (!number("--workers", &f->workers)) return false;
    } else if (a == "--queue") {
      if (!number("--queue", &f->queue)) return false;
    } else if (a == "--retries") {
      if (!number("--retries", &f->retries)) return false;
    } else if (a == "--backoff-ms") {
      if (!number("--backoff-ms", &f->backoff_ms)) return false;
    } else if (a == "--deadline-ms") {
      if (!number("--deadline-ms", &f->deadline_ms)) return false;
    } else {
      std::cerr << "unknown flag: " << a << '\n';
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) return Usage(argv[0]);

  if (f.worker) {
    // Chaos is armed by the spawning server (flag propagated through
    // WorkerSpec::argv), or directly via DLPSIM_SERVER_CHAOS.
    const bool chaos = f.chaos || env::Flag("DLPSIM_SERVER_CHAOS");
    const serve::Runner runner =
        f.stub ? serve::Runner(serve::StubRunner) : serve::Runner(BenchRunner);
    return serve::WorkerLoop(f.worker_fd, runner, chaos);
  }

  serve::ServerOptions opts;
  opts.socket_path = !f.socket_path.empty()
                         ? f.socket_path
                         : env::Str("DLPSIM_SERVER_SOCKET", "dlpsim.sock");
  opts.workers = f.workers != 0
                     ? f.workers
                     : static_cast<std::size_t>(
                           env::U64("DLPSIM_SERVER_WORKERS", 4));
  opts.queue_capacity =
      f.queue != 0 ? f.queue
                   : static_cast<std::size_t>(
                         env::U64("DLPSIM_SERVER_QUEUE", 64));
  opts.budget.max_attempts =
      f.retries != 0 ? f.retries
                     : static_cast<int>(env::U64("DLPSIM_SERVER_RETRIES", 3));
  opts.budget.backoff_ms =
      f.backoff_ms != 0 ? f.backoff_ms
                        : env::U64("DLPSIM_SERVER_BACKOFF_MS", 10);
  opts.budget.deadline_ms =
      f.deadline_ms != 0 ? f.deadline_ms
                         : env::U64("DLPSIM_SERVER_DEADLINE_MS", 30000);
  const bool nocache = f.nocache || env::IsSet("DLPSIM_SERVER_NOCACHE");
  if (!nocache) {
    opts.cache_dir = !f.cache_dir.empty()
                         ? f.cache_dir
                         : env::Str("DLPSIM_SERVER_CACHE_DIR",
                                    ".dlpsim_serve_cache");
  }
  opts.key_fn = f.stub ? serve::KeyFn(serve::DefaultKeyFn)
                       : serve::KeyFn(BenchKeyFn);

  const bool chaos = f.chaos || env::Flag("DLPSIM_SERVER_CHAOS");
  opts.worker.argv = {SelfExe(argv[0])};
  if (f.stub) opts.worker.argv.push_back("--stub");
  if (chaos) opts.worker.argv.push_back("--chaos");

  // Drain on SIGTERM/SIGINT via self-pipe (the handler only writes a
  // byte; all teardown happens on the main thread).
  int sigpipe[2];
  if (::pipe(sigpipe) != 0) {
    std::cerr << "pipe: " << std::strerror(errno) << '\n';
    return 1;
  }
  g_sigpipe_wr = sigpipe[1];
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::size_t workers = opts.workers;
  serve::Server server(std::move(opts));
  std::string err;
  if (!server.Start(&err)) {
    std::cerr << "dlpsim_server: " << err << '\n';
    return 1;
  }
  std::cerr << "dlpsim_server: listening on " << server.socket_path()
            << " (workers=" << workers << (f.stub ? ", stub" : "")
            << (chaos ? ", chaos" : "") << ")\n";

  // Wait for a signal or a client-initiated drain (kShutdown frame).
  for (;;) {
    pollfd pfd = {sigpipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0 && errno != EINTR) break;
    if (rc > 0 && (pfd.revents & POLLIN) != 0) break;
    if (server.draining()) break;
  }

  std::cerr << "dlpsim_server: draining\n";
  server.Stop();
  std::cerr << "dlpsim_server: drained, exiting\n";
  ::close(sigpipe[0]);
  ::close(sigpipe[1]);
  return 0;
}
