// The two-sample Kolmogorov-Smirnov test the backtester uses (significance
// 0.05) to reject repairs that distort the traffic distribution over end
// hosts (backtest::compare), with delivered packets as samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mp {

// Critical value for the two-sample KS test at significance alpha.
// c(0.05) = 1.358; threshold = c * sqrt((n+m)/(n*m)).
double ks_critical(size_t n, size_t m, double alpha = 0.05);

// Approximate p-value for the two-sample KS statistic (asymptotic
// Kolmogorov distribution).
double ks_pvalue(double d, size_t n, size_t m);

struct KsResult {
  double statistic = 0.0;   // D
  double critical = 0.0;    // threshold at alpha
  double pvalue = 1.0;
  bool significant = false; // true => distributions differ => reject repair
};

// KS test between two count vectors over the same ordered categories (a
// shorter vector counts 0 past its end). D is the largest difference of
// the cumulative shares; the sample sizes are the totals, so the critical
// value reflects evidence volume. This mirrors the paper's use: a repair
// that shifts a noticeable share of traffic between hosts yields a large D.
KsResult ks_test(std::span<const uint64_t> a, std::span<const uint64_t> b,
                 double alpha = 0.05);

}  // namespace mp
