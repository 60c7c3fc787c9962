// verify_fuzz: differential-oracle fuzzing driver (CI entry point).
//
// Modes (composable; all selected checks must pass for exit code 0):
//   --traces N        differential fuzz: N seeded random traces per
//                     selected policy against the verify/ oracle
//   --parser-fuzz N   N seeded malformed inputs through both trace parsers
//   --packed-fuzz N   N seeded corrupted DLPT packed streams through
//                     PackedTraceSource (typed-error contract)
//   --neutrality N    N metamorphic Baseline-vs-neutralized-DLP runs
//   --determinism N   N seeds fuzzed serially and on --jobs workers,
//                     outcomes compared
//   --replay FILE     re-run a saved reproducer artifact (text or packed;
//                     the format is sniffed) and report
//
// Options:
//   --policy base|sb|gp|dlp|all   policies to fuzz (default all)
//   --seed S                      first seed (default 1)
//   --jobs N                      worker threads (default DLPSIM_JOBS /
//                                 hardware concurrency)
//   --out DIR                     where reproducer artifacts are written
//                                 (default .)
//   --artifact-format packed|text reproducer format (default: the
//                                 DLPSIM_TRACE_ARTIFACTS knob, else packed)
//   --no-shrink                   keep full traces in artifacts
//   --bug NAME                    plant a deliberate oracle bug
//                                 (self-test): pd-decrease-off-by-one,
//                                 pd-increase-no-clamp,
//                                 skip-decay-on-stores, vta-keep-on-hit
//
// Exit codes: 0 all checks clean, 1 divergence/violation found, 2 usage.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/run_grid.h"
#include "sim/env.h"
#include "sim/parse.h"
#include "verify/artifact.h"
#include "verify/differential.h"
#include "verify/fuzzer.h"
#include "verify/metamorphic.h"

namespace {

using namespace dlpsim;
using namespace dlpsim::verify;

struct Options {
  std::uint64_t traces = 0;
  std::uint64_t parser_fuzz = 0;
  std::uint64_t packed_fuzz = 0;
  std::uint64_t neutrality = 0;
  std::uint64_t determinism = 0;
  std::string replay;
  std::string policy = "all";
  std::uint64_t seed = 1;
  std::size_t jobs = 0;  // 0 = DefaultJobs()
  std::string out_dir = ".";
  // Reproducer format: "packed" (default) keeps large pre-shrink traces
  // small on disk; "text" writes the historical commented trace files.
  std::string artifact_format = env::Str("DLPSIM_TRACE_ARTIFACTS", "packed");
  bool shrink = true;
  OracleBug bug = OracleBug::kNone;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--traces N] [--parser-fuzz N] [--packed-fuzz N]\n"
               "          [--neutrality N] [--determinism N] [--replay FILE]\n"
               "          [--policy P] [--seed S] [--jobs N] [--out DIR]\n"
               "          [--artifact-format packed|text] [--no-shrink]\n"
               "          [--bug NAME]\n",
               argv0);
  return 2;
}

bool ParsePolicies(const std::string& name, std::vector<PolicyKind>* out) {
  if (name == "all") {
    *out = {PolicyKind::kBaseline, PolicyKind::kStallBypass,
            PolicyKind::kGlobalProtection, PolicyKind::kDlp};
  } else if (name == "base") {
    *out = {PolicyKind::kBaseline};
  } else if (name == "sb") {
    *out = {PolicyKind::kStallBypass};
  } else if (name == "gp") {
    *out = {PolicyKind::kGlobalProtection};
  } else if (name == "dlp") {
    *out = {PolicyKind::kDlp};
  } else {
    return false;
  }
  return true;
}

bool ParseBug(const std::string& name, OracleBug* out) {
  if (name == "none") *out = OracleBug::kNone;
  else if (name == "pd-decrease-off-by-one") *out = OracleBug::kPdDecreaseOffByOne;
  else if (name == "pd-increase-no-clamp") *out = OracleBug::kPdIncreaseNoClamp;
  else if (name == "skip-decay-on-stores") *out = OracleBug::kSkipDecayOnStores;
  else if (name == "vta-keep-on-hit") *out = OracleBug::kVtaKeepOnHit;
  else return false;
  return true;
}

const char* PolicyFlag(PolicyKind k) {
  switch (k) {
    case PolicyKind::kBaseline: return "base";
    case PolicyKind::kStallBypass: return "sb";
    case PolicyKind::kGlobalProtection: return "gp";
    case PolicyKind::kDlp: return "dlp";
  }
  return "base";
}

/// Differential fuzz over one policy; returns the number of divergences
/// (each one written to an artifact file).
std::uint64_t FuzzPolicy(const Options& opt, PolicyKind policy,
                         std::size_t jobs) {
  const std::size_t n = static_cast<std::size_t>(opt.traces);
  const std::vector<FuzzOutcome> outcomes = exec::ParallelMap(
      n,
      [&](std::size_t i) {
        return FuzzOneSeed(opt.seed + i, policy, opt.bug, opt.shrink);
      },
      jobs);

  std::uint64_t diverged = 0;
  for (const FuzzOutcome& o : outcomes) {
    if (!o.diverged) continue;
    ++diverged;
    const bool packed = opt.artifact_format != "text";
    const std::string path = opt.out_dir + "/verify_fuzz_" +
                             PolicyFlag(policy) + "_seed" +
                             std::to_string(o.seed) +
                             (packed ? ".dlpt" : ".trace");
    std::string error;
    const bool wrote =
        packed ? WriteArtifactPackedFile(path, o.reproducer, &error)
               : WriteArtifactFile(path, o.reproducer, &error);
    if (wrote) {
      std::fprintf(stderr,
                   "[verify_fuzz] %s seed %llu DIVERGED: %s\n"
                   "              reproducer (%zu accesses, %zu shrink "
                   "steps): %s\n",
                   ToString(policy),
                   static_cast<unsigned long long>(o.seed),
                   o.first.ToString().c_str(), o.reproducer.trace.size(),
                   o.shrink_steps, path.c_str());
    } else {
      std::fprintf(stderr,
                   "[verify_fuzz] %s seed %llu DIVERGED: %s\n"
                   "              (artifact write failed: %s)\n",
                   ToString(policy),
                   static_cast<unsigned long long>(o.seed),
                   o.first.ToString().c_str(), error.c_str());
    }
  }
  std::printf("[verify_fuzz] policy %-17s: %zu traces, %llu divergences\n",
              ToString(policy), n,
              static_cast<unsigned long long>(diverged));
  return diverged;
}

int Replay(const Options& opt) {
  Artifact artifact;
  std::string error;
  if (!ReadArtifactAuto(opt.replay, &artifact, &error)) {
    std::fprintf(stderr, "[verify_fuzz] cannot replay '%s': %s\n",
                 opt.replay.c_str(), error.c_str());
    return 2;
  }
  std::printf("[verify_fuzz] replaying %s: policy %s, %zu accesses\n",
              opt.replay.c_str(), ToString(artifact.config.policy),
              artifact.trace.size());
  if (!artifact.divergence.empty()) {
    std::printf("[verify_fuzz] recorded divergence: %s\n",
                artifact.divergence.c_str());
  }
  const std::optional<Divergence> d = RunDifferential(
      artifact.config, artifact.trace, artifact.params, opt.bug);
  if (d.has_value()) {
    std::printf("[verify_fuzz] REPRODUCED: %s\n", d->ToString().c_str());
    return 1;
  }
  std::printf("[verify_fuzz] no divergence (fixed, or bug not planted)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool any_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--traces" && (value = next())) {
      if (!ParseU64(value, &opt.traces)) return Usage(argv[0]);
      any_mode = true;
    } else if (arg == "--parser-fuzz" && (value = next())) {
      if (!ParseU64(value, &opt.parser_fuzz)) return Usage(argv[0]);
      any_mode = true;
    } else if (arg == "--packed-fuzz" && (value = next())) {
      if (!ParseU64(value, &opt.packed_fuzz)) return Usage(argv[0]);
      any_mode = true;
    } else if (arg == "--neutrality" && (value = next())) {
      if (!ParseU64(value, &opt.neutrality)) return Usage(argv[0]);
      any_mode = true;
    } else if (arg == "--determinism" && (value = next())) {
      if (!ParseU64(value, &opt.determinism)) return Usage(argv[0]);
      any_mode = true;
    } else if (arg == "--replay" && (value = next())) {
      opt.replay = value;
      any_mode = true;
    } else if (arg == "--policy" && (value = next())) {
      opt.policy = value;
    } else if (arg == "--seed" && (value = next())) {
      if (!ParseU64(value, &opt.seed)) return Usage(argv[0]);
    } else if (arg == "--jobs" && (value = next())) {
      if (!ParseUnsigned(value, &opt.jobs)) return Usage(argv[0]);
    } else if (arg == "--out" && (value = next())) {
      opt.out_dir = value;
    } else if (arg == "--artifact-format" && (value = next())) {
      opt.artifact_format = value;
      if (opt.artifact_format != "packed" && opt.artifact_format != "text") {
        return Usage(argv[0]);
      }
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--bug" && (value = next())) {
      if (!ParseBug(value, &opt.bug)) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (!any_mode) {
    // Bare invocation: a useful default for local runs.
    opt.traces = 100;
    opt.parser_fuzz = 200;
    opt.packed_fuzz = 200;
    opt.neutrality = 20;
  }

  std::vector<PolicyKind> policies;
  if (!ParsePolicies(opt.policy, &policies)) return Usage(argv[0]);
  const std::size_t jobs = opt.jobs == 0 ? exec::DefaultJobs() : opt.jobs;

  if (!opt.replay.empty()) return Replay(opt);

  std::uint64_t failures = 0;

  if (opt.traces > 0) {
    for (PolicyKind policy : policies) {
      failures += FuzzPolicy(opt, policy, jobs);
    }
  }

  if (opt.parser_fuzz > 0) {
    const std::string violation =
        FuzzTraceParsers(opt.seed, static_cast<std::size_t>(opt.parser_fuzz));
    if (!violation.empty()) {
      std::fprintf(stderr, "[verify_fuzz] parser fuzz VIOLATION: %s\n",
                   violation.c_str());
      ++failures;
    } else {
      std::printf("[verify_fuzz] parser fuzz: %llu inputs, no violations\n",
                  static_cast<unsigned long long>(opt.parser_fuzz));
    }
  }

  if (opt.packed_fuzz > 0) {
    const std::string violation =
        FuzzPackedTraces(opt.seed, static_cast<std::size_t>(opt.packed_fuzz));
    if (!violation.empty()) {
      std::fprintf(stderr, "[verify_fuzz] packed fuzz VIOLATION: %s\n",
                   violation.c_str());
      ++failures;
    } else {
      std::printf("[verify_fuzz] packed fuzz: %llu corrupted streams, all "
                  "typed errors\n",
                  static_cast<unsigned long long>(opt.packed_fuzz));
    }
  }

  if (opt.neutrality > 0) {
    const std::vector<std::string> results = exec::ParallelMap(
        static_cast<std::size_t>(opt.neutrality),
        [&](std::size_t i) { return CheckProtectionNeutrality(opt.seed + i); },
        jobs);
    std::uint64_t bad = 0;
    for (const std::string& r : results) {
      if (r.empty()) continue;
      ++bad;
      std::fprintf(stderr, "[verify_fuzz] neutrality VIOLATION: %s\n",
                   r.c_str());
    }
    failures += bad;
    if (bad == 0) {
      std::printf("[verify_fuzz] neutrality: %llu runs, no violations\n",
                  static_cast<unsigned long long>(opt.neutrality));
    }
  }

  if (opt.determinism > 0) {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < opt.determinism; ++i) {
      seeds.push_back(opt.seed + i);
    }
    for (PolicyKind policy : policies) {
      const std::string violation =
          CheckFuzzDeterminism(seeds, policy, jobs < 2 ? 4 : jobs);
      if (!violation.empty()) {
        std::fprintf(stderr, "[verify_fuzz] determinism VIOLATION (%s): %s\n",
                     ToString(policy), violation.c_str());
        ++failures;
      }
    }
    if (failures == 0) {
      std::printf("[verify_fuzz] determinism: %llu seeds x %zu policies, "
                  "schedule-independent\n",
                  static_cast<unsigned long long>(opt.determinism),
                  policies.size());
    }
  }

  return failures == 0 ? 0 : 1;
}
