#include "backtest/metrics.h"

#include <stdexcept>

namespace mp::backtest {

ReplayOutcome outcome_from_stats(const sdn::DeliveryStats& stats) {
  ReplayOutcome o;
  static_cast<sdn::DeliveryStats&>(o) = stats;
  return o;
}

KsResult compare(const ReplayOutcome& baseline, const ReplayOutcome& repaired,
                 double alpha) {
  // Worlds on one base share a numbering; worlds built apart on equal
  // topologies number their hosts alike.
  if (!baseline.per_host.empty() && !repaired.per_host.empty() &&
      baseline.hosts != repaired.hosts &&
      !(*baseline.hosts == *repaired.hosts)) {
    throw std::invalid_argument("compare: outcomes number their hosts apart");
  }
  return ks_test(baseline.per_host, repaired.per_host, alpha);
}

bool side_effect_free(const ReplayOutcome& baseline,
                      const ReplayOutcome& repaired, const KsResult& ks) {
  return !ks.significant &&
         repaired.packet_ins <= baseline.packet_ins * 2 + 16;
}

}  // namespace mp::backtest
