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

void CountDistribution::add(const std::string& key, double amount) {
  counts_[key] += amount;
}

double CountDistribution::total() const {
  double t = 0.0;
  for (const auto& [k, v] : counts_) t += v;
  return t;
}

std::pair<std::vector<double>, std::vector<double>>
CountDistribution::aligned_fractions(const CountDistribution& a,
                                     const CountDistribution& b) {
  const double ta = std::max(a.total(), 1.0);
  const double tb = std::max(b.total(), 1.0);
  std::vector<double> va, vb;
  auto ia = a.counts_.begin();
  auto ib = b.counts_.begin();
  while (ia != a.counts_.end() || ib != b.counts_.end()) {
    if (ib == b.counts_.end() || (ia != a.counts_.end() && ia->first < ib->first)) {
      va.push_back(ia->second / ta);
      vb.push_back(0.0);
      ++ia;
    } else if (ia == a.counts_.end() || ib->first < ia->first) {
      va.push_back(0.0);
      vb.push_back(ib->second / tb);
      ++ib;
    } else {
      va.push_back(ia->second / ta);
      vb.push_back(ib->second / tb);
      ++ia;
      ++ib;
    }
  }
  return {std::move(va), std::move(vb)};
}

KsResult ks_test(const CountDistribution& a, const CountDistribution& b,
                 double alpha) {
  auto [va, vb] = CountDistribution::aligned_fractions(a, b);
  // Two-sample KS over the per-host traffic distribution: hosts are the
  // (ordered) categories, samples are delivered packets, and D is the
  // maximum cumulative-share difference. Sample sizes are the packet
  // counts, so the critical value reflects evidence volume.
  KsResult r;
  double cum_a = 0.0, cum_b = 0.0, d = 0.0;
  for (size_t i = 0; i < va.size(); ++i) {
    cum_a += va[i];
    cum_b += vb[i];
    d = std::max(d, std::fabs(cum_a - cum_b));
  }
  r.statistic = d;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(a.total()));
  const size_t m = std::max<size_t>(1, static_cast<size_t>(b.total()));
  r.critical = ks_critical(n, m, alpha);
  r.pvalue = ks_pvalue(r.statistic, n, m);
  r.significant = r.statistic > r.critical;
  return r;
}

}  // namespace mp
