#include "stats.h"

#include <algorithm>
#include <cmath>

namespace dlpbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps p = 100 * k / n on rank k despite rounding in p.
  const double exact = std::clamp(p, 0.0, 100.0) / 100.0 * n;
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double TailPercentile(std::size_t n) {
  if (n <= 10) return 0.0;
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  if (values.size() < 2) {
    const double v = values.empty() ? 0.0 : values[0];
    return {v, v, v};
  }
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

double Spread(const std::vector<double>& values) {
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  const Quartiles q = QuartilesOf(values);
  return (q.q3 - q.q1) / std::fabs(median);
}

double Worsening(double base, double candidate, Better better) {
  if (base == 0.0) return 0.0;
  const double change = (candidate - base) / std::fabs(base);
  return better == Better::kLower ? change : -change;
}

bool WithinBound(double base, double candidate, Better better, double bound) {
  return Worsening(base, candidate, better) <= bound;
}

const char* ToString(Verdict v) {
  switch (v) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kRegressed:
      return "REGRESSED";
    case Verdict::kUnresolved:
      return "unresolved";
    case Verdict::kAllBetter:
      return "better";
  }
  return "?";
}

Verdict Compare(const std::vector<double>& base,
                const std::vector<double>& candidate, Better better,
                double bound) {
  const auto worst_of = [better](const std::vector<double>& v) {
    return better == Better::kLower ? *std::max_element(v.begin(), v.end())
                                    : *std::min_element(v.begin(), v.end());
  };
  const auto best_of = [better](const std::vector<double>& v) {
    return better == Better::kLower ? *std::min_element(v.begin(), v.end())
                                    : *std::max_element(v.begin(), v.end());
  };
  if (base.empty() || candidate.empty()) return Verdict::kUnresolved;
  if (Worsening(best_of(base), worst_of(candidate), better) < 0.0) {
    return Verdict::kAllBetter;
  }
  if (Spread(base) > bound || Spread(candidate) > bound) {
    return Verdict::kUnresolved;
  }
  return WithinBound(Median(base), Median(candidate), better, bound)
             ? Verdict::kOk
             : Verdict::kRegressed;
}

}  // namespace dlpbench
