// The reference KS test the backtester's integer one is pinned against:
// string-keyed count distributions, aligned on the union of their keys in
// std::map order, as the library scored outcomes before it tallied
// deliveries as integers over a host numbering. Shared by ks_oracle_test
// and the suites that compare delivery tallies across worlds.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sdn/network.h"
#include "util/stats.h"

namespace mp::oracle {

// Distribution of a counter keyed by host name (or "host:dpt").
class CountDistribution {
 public:
  void add(const std::string& key, double amount = 1.0) {
    counts_[key] += amount;
  }
  double total() const {
    double t = 0.0;
    for (const auto& [k, v] : counts_) t += v;
    return t;
  }
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  std::map<std::string, double> counts_;
};

// Values aligned on the union of keys of `a` and `b` (missing = 0),
// normalised to fractions of each side's total.
inline std::pair<std::vector<double>, std::vector<double>> aligned_fractions(
    const CountDistribution& a, const CountDistribution& b) {
  const double ta = std::max(a.total(), 1.0);
  const double tb = std::max(b.total(), 1.0);
  std::vector<double> va, vb;
  auto ia = a.counts().begin();
  auto ib = b.counts().begin();
  while (ia != a.counts().end() || ib != b.counts().end()) {
    if (ib == b.counts().end() ||
        (ia != a.counts().end() && ia->first < ib->first)) {
      va.push_back(ia->second / ta);
      vb.push_back(0.0);
      ++ia;
    } else if (ia == a.counts().end() || ib->first < ia->first) {
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

inline KsResult ks_test(const CountDistribution& a, const CountDistribution& b,
                        double alpha = 0.05) {
  auto [va, vb] = aligned_fractions(a, b);
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

// The string-keyed distributions a DeliveryStats' tallies stand for: host
// name -> packets and "host:dpt" -> packets, over the nonzero tallies.
inline CountDistribution per_host(const sdn::DeliveryStats& st) {
  CountDistribution out;
  for (size_t h = 0; h < st.per_host.size(); ++h) {
    if (st.per_host[h] != 0) {
      out.add(st.hosts->name(static_cast<uint32_t>(h)),
              static_cast<double>(st.per_host[h]));
    }
  }
  return out;
}

inline CountDistribution per_host_port(const sdn::DeliveryStats& st) {
  CountDistribution out;
  for (const sdn::PortTally& t : st.per_host_port) {
    if (t.packets != 0) {
      out.add(st.hosts->name(t.host) + ":" + std::to_string(t.dpt),
              static_cast<double>(t.packets));
    }
  }
  return out;
}

}  // namespace mp::oracle
