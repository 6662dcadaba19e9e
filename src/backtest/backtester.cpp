#include "backtest/backtester.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/span.h"
#include "util/threads.h"

namespace mp::backtest {

std::vector<const BacktestEntry*> BacktestReport::ranked_accepted() const {
  std::vector<const BacktestEntry*> out;
  for (const auto& e : entries) {
    if (e.accepted) out.push_back(&e);
  }
  std::sort(out.begin(), out.end(),
            [](const BacktestEntry* a, const BacktestEntry* b) {
              if (a->ks.statistic != b->ks.statistic) {
                return a->ks.statistic < b->ks.statistic;
              }
              return a->candidate.cost < b->candidate.cost;
            });
  return out;
}

BacktestReport Backtester::run(
    ReplayHarness& harness,
    std::vector<repair::RepairCandidate> candidates) const {
  static const obs::TracedPhase kPhaseBacktest("repair.backtest");
  const obs::Scope scope(kPhaseBacktest);
  BacktestReport report;
  const ReplayOutcome baseline = harness.replay_baseline();

  std::vector<ReplayOutcome> outcomes;
  if (cfg_.use_multiquery) {
    // One joint replay per slice of at most kMaxTags candidates: a joint
    // world carries one tag bit per candidate.
    outcomes.reserve(candidates.size());
    for (size_t lo = 0; lo < candidates.size(); lo += eval::kMaxTags) {
      const size_t hi = std::min(candidates.size(), lo + eval::kMaxTags);
      std::vector<ReplayOutcome> part =
          lo == 0 && hi == candidates.size()
              ? harness.replay_joint(candidates)
              : harness.replay_joint(
                    {candidates.begin() + static_cast<long>(lo),
                     candidates.begin() + static_cast<long>(hi)});
      for (ReplayOutcome& o : part) outcomes.push_back(std::move(o));
    }
  } else if (cfg_.shards > 1 && candidates.size() > 1 &&
             harness.concurrent_replays()) {
    // Candidate replays on the worker pool: each replay is independent
    // (own network + engine; the baseline above is already cached), so
    // workers just claim the next candidate index. Outcomes land at their
    // candidate's slot — identical results and order to the loop below.
    outcomes.assign(candidates.size(), ReplayOutcome{});
    std::atomic<size_t> next{0};
    std::function<void()> work = [&] {
      for (size_t i; (i = next.fetch_add(1)) < candidates.size();) {
        outcomes[i] = harness.replay(candidates[i]);
      }
    };
    run_thunks_parallel(std::vector<std::function<void()>>(
        std::min(cfg_.shards, candidates.size()), work));
  } else {
    outcomes.reserve(candidates.size());
    for (const auto& c : candidates) outcomes.push_back(harness.replay(c));
  }

  for (size_t i = 0; i < candidates.size(); ++i) {
    BacktestEntry e;
    e.candidate = std::move(candidates[i]);
    e.outcome = std::move(outcomes[i]);
    e.effective = e.outcome.valid && e.outcome.symptom_fixed;
    e.ks = compare(baseline, e.outcome, cfg_.alpha);
    e.accepted = e.effective && side_effect_free(baseline, e.outcome, e.ks);
    if (e.effective) ++report.effective_count;
    if (e.accepted) ++report.accepted_count;
    report.entries.push_back(std::move(e));
  }
  return report;
}

}  // namespace mp::backtest
