// Client / load generator for dlpsim-as-a-service.
//
// Modes (all speak the serve/ frame protocol over AF_UNIX):
//
//   single request (default):
//     dlpsim_client --app BFS --config dlp [--scale S] [--deadline-ms N]
//                   [--faults SPEC] [--watchdog CYCLES] [--chaos DIR]
//                   [--nocache]
//     Prints the response header to stderr and the result payload to
//     stdout; exits 0 iff the request was served (error == none).
//
//   load generator:
//     dlpsim_client --replay N [--concurrency C] [--seed S]
//                   [--chaos-pct P] [--deadline-ms N]
//     Replays N deterministic requests (see serve/client.h) over C
//     connections and prints an accounting summary. Exits 0 iff every
//     request ended as served-or-typed-failure with no transport
//     errors (nothing lost).
//
//   admin:
//     dlpsim_client --metrics [deterministic|prom|json]
//     dlpsim_client --shutdown      (graceful drain)
//     dlpsim_client --ping
//
// The socket defaults to DLPSIM_SERVER_SOCKET (same knob the server
// reads), overridable with --socket.
#include <cstdlib>
#include <iostream>
#include <string>

#include "robust/error.h"
#include "serve/client.h"
#include "sim/env.h"
#include "sim/parse.h"
#include "workloads/registry.h"

namespace {

using namespace dlpsim;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--socket PATH] (--app A --config C [...] | --trace FILE "
               "--config C | --replay N [...] | --metrics [KIND] | "
               "--shutdown | --ping)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = env::Str("DLPSIM_SERVER_SOCKET", "dlpsim.sock");
  serve::ExperimentRequest req;
  serve::LoadGenOptions load;
  bool replay = false;
  bool metrics = false;
  bool shutdown = false;
  bool ping = false;
  std::string metrics_kind = "prom";
  int reject_retries = 200;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << what << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Reads the flag's value into `dst`; false when it is not a decimal
    // number that `dst` can hold.
    auto number = [&](const char* what, auto* dst) {
      const char* v = next(what);
      if (ParseUnsigned(v, dst)) return true;
      std::cerr << what << ": bad value '" << v << "'\n";
      return false;
    };
    if (a == "--socket") {
      socket_path = next("--socket");
    } else if (a == "--app") {
      req.app = next("--app");
    } else if (a == "--config") {
      req.config = next("--config");
    } else if (a == "--trace") {
      // Replay a recorded trace (text or packed) through the requested
      // config's L1D instead of simulating an app; the server caches by
      // the trace's content ref, so both formats share one entry.
      req.trace = next("--trace");
      req.app = "trace";
    } else if (a == "--scale") {
      const char* v = next("--scale");
      if (!ParseScale(v, &req.scale)) {
        std::cerr << "--scale: bad value '" << v << "'\n";
        return Usage(argv[0]);
      }
    } else if (a == "--deadline-ms") {
      if (!number("--deadline-ms", &req.deadline_ms)) return Usage(argv[0]);
      load.deadline_ms = req.deadline_ms;
    } else if (a == "--faults") {
      req.faults = next("--faults");
    } else if (a == "--watchdog") {
      if (!number("--watchdog", &req.watchdog_cycles)) return Usage(argv[0]);
    } else if (a == "--chaos") {
      req.chaos = next("--chaos");
    } else if (a == "--nocache") {
      req.nocache = true;
    } else if (a == "--retries") {
      if (!number("--retries", &reject_retries)) return Usage(argv[0]);
    } else if (a == "--replay") {
      replay = true;
      if (!number("--replay", &load.requests)) return Usage(argv[0]);
    } else if (a == "--concurrency") {
      if (!number("--concurrency", &load.concurrency)) return Usage(argv[0]);
    } else if (a == "--seed") {
      if (!number("--seed", &load.seed)) return Usage(argv[0]);
    } else if (a == "--chaos-pct") {
      if (!number("--chaos-pct", &load.chaos_pct)) return Usage(argv[0]);
    } else if (a == "--metrics") {
      metrics = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_kind = argv[++i];
    } else if (a == "--shutdown") {
      shutdown = true;
    } else if (a == "--ping") {
      ping = true;
    } else {
      std::cerr << "unknown flag: " << a << '\n';
      return Usage(argv[0]);
    }
  }

  std::string err;
  if (replay) {
    load.socket_path = socket_path;
    load.reject_retries = reject_retries;
    serve::LoadGenStats stats;
    if (!serve::RunLoadGen(load, &stats, &err)) {
      std::cerr << "dlpsim_client: " << err << '\n';
      return 1;
    }
    std::cout << "sent " << stats.sent << "\nok " << stats.ok << "\nfailed "
              << stats.failed << "\ncached " << stats.cached
              << "\ntransport_errors " << stats.transport_errors
              << "\nreject_retries " << stats.reject_retries << '\n';
    for (const auto& [kind, n] : stats.failures_by_kind) {
      std::cout << "failure[" << kind << "] " << n << '\n';
    }
    std::cout << "accounted "
              << (stats.accounted() ? "true" : "false") << '\n';
    return stats.accounted() && stats.transport_errors == 0 ? 0 : 1;
  }

  serve::Client client;
  if (!client.Connect(socket_path, &err)) {
    std::cerr << "dlpsim_client: " << err << '\n';
    return 1;
  }

  if (metrics) {
    std::string text;
    if (!client.FetchMetrics(metrics_kind, &text, &err)) {
      std::cerr << "dlpsim_client: " << err << '\n';
      return 1;
    }
    std::cout << text;
    return 0;
  }
  if (shutdown) {
    if (!client.Shutdown(&err)) {
      std::cerr << "dlpsim_client: " << err << '\n';
      return 1;
    }
    std::cerr << "dlpsim_client: server acknowledged drain\n";
    return 0;
  }
  if (ping) {
    if (!client.Ping(&err)) {
      std::cerr << "dlpsim_client: " << err << '\n';
      return 1;
    }
    std::cerr << "dlpsim_client: pong\n";
    return 0;
  }

  if (req.app.empty() || req.config.empty()) return Usage(argv[0]);
  req.id = 1;
  serve::ExperimentResponse resp;
  if (!client.CallWithRetry(req, &resp, reject_retries, &err)) {
    std::cerr << "dlpsim_client: " << err << '\n';
    return 1;
  }
  std::cerr << "error " << robust::ToString(resp.error) << "\nattempts "
            << resp.attempts << "\nworker_crashes " << resp.worker_crashes
            << "\ncached " << (resp.cached ? "true" : "false") << '\n';
  if (!resp.detail.empty()) std::cerr << "detail " << resp.detail << '\n';
  if (!resp.result.empty()) std::cout << resp.result;
  return resp.ok() ? 0 : 1;
}
