// Backtest metrics (Section 4.3): per-host traffic distributions, the
// integer tallies of sdn::DeliveryStats, act as the "test suite". A
// candidate repair must (a) fix the symptom and (b) leave the rest of the
// distribution statistically unchanged (two-sample KS test at alpha =
// 0.05 against the pre-repair run).
#pragma once

#include "sdn/network.h"
#include "util/stats.h"

namespace mp::backtest {

struct ReplayOutcome : sdn::DeliveryStats {
  bool symptom_fixed = false;
  double seconds = 0.0;  // never set in src/; e2ebench's harness fills it
  bool valid = true;  // false if the candidate program failed to apply
};

ReplayOutcome outcome_from_stats(const sdn::DeliveryStats& stats);

// KS comparison of two outcomes' per-host tallies in host-name order. An
// outcome without tallies counts as no deliveries; tallies over host
// numberings with different names throw std::invalid_argument.
KsResult compare(const ReplayOutcome& baseline, const ReplayOutcome& repaired,
                 double alpha = 0.05);

// The backtest acceptance rule for an effective candidate: no side
// effects the tests can see. `ks` is compare(baseline, repaired): the
// per-host distribution must not differ significantly. The control-plane
// load must stay within twice the baseline's PacketIns plus slack:
// repairs that flood the controller (e.g. retargeting a FlowMod-producing
// rule, Q4) are side effects the per-host KS cannot see. The Backtester
// and the Table 3 runner (src/langs) both gate on this.
bool side_effect_free(const ReplayOutcome& baseline,
                      const ReplayOutcome& repaired, const KsResult& ks);

}  // namespace mp::backtest
