#include "backtest/metrics.h"

namespace mp::backtest {

ReplayOutcome outcome_from_stats(const sdn::DeliveryStats& stats) {
  ReplayOutcome o;
  o.per_host = stats.per_host;
  o.per_host_port = stats.per_host_port;
  o.delivered = stats.delivered;
  o.dropped = stats.dropped;
  o.packet_ins = stats.packet_ins;
  return o;
}

KsResult compare(const ReplayOutcome& baseline, const ReplayOutcome& repaired,
                 double alpha) {
  return ks_test(baseline.per_host, repaired.per_host, alpha);
}

bool side_effect_free(const ReplayOutcome& baseline,
                      const ReplayOutcome& repaired, const KsResult& ks) {
  return !ks.significant &&
         repaired.packet_ins <= baseline.packet_ins * 2 + 16;
}

}  // namespace mp::backtest
