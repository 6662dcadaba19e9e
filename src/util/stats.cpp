#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace mp {

double ks_critical(size_t n, size_t m, double alpha) {
  if (n == 0 || m == 0) return 1.0;
  // c(alpha) = sqrt(-ln(alpha/2) / 2); c(0.05) ~= 1.3581.
  const double c = std::sqrt(-std::log(alpha / 2.0) / 2.0);
  const double nn = static_cast<double>(n), mm = static_cast<double>(m);
  return c * std::sqrt((nn + mm) / (nn * mm));
}

double ks_pvalue(double d, size_t n, size_t m) {
  if (n == 0 || m == 0) return 1.0;
  const double nn = static_cast<double>(n), mm = static_cast<double>(m);
  const double en = std::sqrt(nn * mm / (nn + mm));
  // Asymptotic Kolmogorov distribution with the Stephens correction.
  const double lambda = (en + 0.12 + 0.11 / en) * d;
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term =
        2.0 * std::pow(-1.0, k - 1) * std::exp(-2.0 * lambda * lambda * k * k);
    sum += term;
    if (std::fabs(term) < 1e-12) break;
  }
  return std::clamp(sum, 0.0, 1.0);
}

KsResult ks_test(std::span<const uint64_t> a, std::span<const uint64_t> b,
                 double alpha) {
  uint64_t na = 0, nb = 0;
  for (const uint64_t x : a) na += x;
  for (const uint64_t x : b) nb += x;
  // Whole-number totals below 2^53 are exact in a double.
  const double ta = std::max(static_cast<double>(na), 1.0);
  const double tb = std::max(static_cast<double>(nb), 1.0);
  double cum_a = 0.0, cum_b = 0.0, d = 0.0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    // A category empty on both sides adds 0.0 to both sums and leaves D.
    if (i < a.size()) cum_a += static_cast<double>(a[i]) / ta;
    if (i < b.size()) cum_b += static_cast<double>(b[i]) / tb;
    d = std::max(d, std::fabs(cum_a - cum_b));
  }
  KsResult r;
  r.statistic = d;
  const size_t n = std::max<size_t>(1, na);
  const size_t m = std::max<size_t>(1, nb);
  r.critical = ks_critical(n, m, alpha);
  r.pvalue = ks_pvalue(r.statistic, n, m);
  r.significant = r.statistic > r.critical;
  return r;
}

}  // namespace mp
