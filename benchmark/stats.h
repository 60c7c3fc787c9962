// Order statistics and regression bounds for the benchmark driver.
//
// Two conventions on purpose:
//   - Percentile() is nearest-rank: it always returns an observed sample,
//     which is what a latency percentile should be.
//   - Median() and Quartiles() interpolate exactly like Python's
//     statistics.median / statistics.quantiles(values, n=4) (the default
//     "exclusive" method), so the run-to-run spread this program prints
//     for a set of runs is the number an external script computes.
#pragma once

#include <cstddef>
#include <vector>

namespace dlpbench {

/// Nearest-rank percentile, p in [0, 100]: the sample at rank
/// ceil(p/100 * n) (clamped to [1, n]) of the sorted values. 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Highest percentile whose nearest-rank sample has at least ten samples
/// beyond it: 100 * (n - 10) / n. Returns 0 when n <= 10 (no such tail).
double TailPercentile(std::size_t n);

/// Median; the mean of the two middle samples when n is even. 0 when empty.
double Median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(values, n=4) (exclusive method). Needs n >= 2;
/// with one value all three quartiles are that value, with none all 0.
Quartiles QuartilesOf(std::vector<double> values);

/// (q3 - q1) / median: the run-to-run spread of a set of runs, as a
/// share of their median. 0 when the median is 0.
double Spread(const std::vector<double>& values);

enum class Better { kLower, kHigher };

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when it is better). 0 when base is 0.
double Worsening(double base, double candidate, Better better);

/// True when `candidate` is not worse than `base` by more than `bound`
/// (a share of `base`, e.g. 0.1 = 10%).
bool WithinBound(double base, double candidate, Better better, double bound);

/// Verdict for one (workload, metric) across two sets of runs, following
/// the no-regression rule: a spread wider than the bound on either side
/// makes the comparison unresolved unless every candidate run reads
/// better than every base run.
enum class Verdict { kOk, kRegressed, kUnresolved, kAllBetter };

const char* ToString(Verdict v);

Verdict Compare(const std::vector<double>& base,
                const std::vector<double>& candidate, Better better,
                double bound);

}  // namespace dlpbench
