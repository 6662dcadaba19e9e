// Statistics used by the backtester: per-key count distributions and the
// two-sample Kolmogorov-Smirnov test the paper uses (significance 0.05)
// to reject repairs that distort the network-wide traffic distribution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

// Distribution of a counter keyed by host/name. Used for "traffic
// distribution at end hosts" (Section 4.3).
class CountDistribution {
 public:
  void add(const std::string& key, double amount = 1.0);
  double total() const;
  // Values aligned on the union of keys of *this and other (missing = 0),
  // normalised to fractions of the total so KS compares shapes.
  static std::pair<std::vector<double>, std::vector<double>> aligned_fractions(
      const CountDistribution& a, const CountDistribution& b);
  const std::map<std::string, double>& counts() const { return counts_; }
  double get(const std::string& key) const {
    auto it = counts_.find(key);
    return it == counts_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> counts_;
};

// KS test between two keyed distributions: compares the per-key traffic
// shares. This mirrors the paper's use: a repair that shifts a noticeable
// share of traffic between hosts yields a large D.
KsResult ks_test(const CountDistribution& a, const CountDistribution& b,
                 double alpha = 0.05);

}  // namespace mp
