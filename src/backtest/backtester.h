// The backtester (Sections 4.3-4.4): filters and ranks repair candidates.
// A candidate is *effective* if the scenario's symptom predicate holds
// after replay; it is *accepted* if, additionally, the per-host traffic
// distribution is statistically indistinguishable from the pre-repair
// baseline (two-sample KS test, alpha = 0.05). Survivors are ranked by
// (KS statistic, cost): least side effects first, as in Table 2.
#pragma once

#include "backtest/replay.h"

namespace mp::backtest {

struct BacktestConfig {
  double alpha = 0.05;
  bool use_multiquery = false;
  // Worker threads for sequential candidate replays (each candidate's
  // replay builds its own network + engine, so replays are independent).
  // Takes effect when > 1, multiquery is off and the harness reports
  // concurrent_replays(); outcomes are identical to the sequential loop,
  // in the same candidate order. Tag-mode multiquery replay is already
  // one joint run and is never parallelized here.
  size_t shards = 1;
};

struct BacktestEntry {
  repair::RepairCandidate candidate;
  ReplayOutcome outcome;
  KsResult ks;
  bool effective = false;
  bool accepted = false;
};

struct BacktestReport {
  std::vector<BacktestEntry> entries;  // in candidate order
  size_t effective_count = 0;
  size_t accepted_count = 0;

  // Accepted candidates, ranked by least disturbance then cost.
  std::vector<const BacktestEntry*> ranked_accepted() const;
};

class Backtester {
 public:
  explicit Backtester(BacktestConfig cfg = {}) : cfg_(cfg) {}

  // Takes the candidates by value: each one moves into its entry.
  BacktestReport run(ReplayHarness& harness,
                     std::vector<repair::RepairCandidate> candidates) const;

 private:
  BacktestConfig cfg_;
};

}  // namespace mp::backtest
