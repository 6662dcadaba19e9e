// The end-to-end pipeline: run the buggy scenario while recording,
// generate repair candidates from the meta provenance, then backtest them
// (sequentially or jointly via multi-query evaluation) and rank the
// survivors. This is the programmatic equivalent of the paper's prototype
// debugger and is what the examples and benches call.
#pragma once

#include <optional>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "scenarios/scenario.h"
#include "util/timer.h"

namespace mp::scenario {

// One concrete simulation of a scenario under a given program: a world on
// a static base of the scenario (build_base) with its own engine and
// controller. Every controller install, config insertions' included, goes
// to the world's dynamic layer and marks its switch dirty (sdn::WorldBase).
class ScenarioRun {
 public:
  ScenarioRun(const Scenario& s, std::shared_ptr<const sdn::WorldBase> base,
              const ndlog::Program& program, eval::EngineOptions eopts = {});

  // Extra tagged base tuples (candidate insertions) + tagged config.
  void insert_config(
      const std::vector<std::pair<eval::Tuple, eval::TagMask>>& extra = {});
  void set_rule_restrictions(
      const std::map<std::string, eval::TagMask>& restrict);
  void set_tag_mode(eval::TagMask active);
  // Replays `workload`, walking every packet. This is the memo-free
  // reference the memoized replays below must equal.
  void replay(const std::vector<sdn::Injection>& workload);
  // replay(workload) that also fills `memo` with the workload's static
  // paths (the recorded incident).
  void record(const std::vector<sdn::Injection>& workload, sdn::PathMemo& memo);
  // replay(workload) that books memoized packets from `memo`, which is
  // used only when a world on this world's base filled it.
  void replay(const std::vector<sdn::Injection>& workload,
              const sdn::PathMemo& memo);

  sdn::Network& net() { return *net_; }
  eval::Engine& engine() { return *engine_; }

 private:
  const Scenario& scenario_;
  std::unique_ptr<sdn::Network> net_;
  std::unique_ptr<eval::Engine> engine_;
  std::unique_ptr<sdn::NdlogController> controller_;
  bool config_inserted_ = false;
};

// ReplayHarness over a scenario; caches the static base, the workload, the
// baseline and the workload's static-path memo. The recorded world and
// every candidate world run on the one base. Candidate worlds replay
// through the memo (sdn::Network::replay_batch), so a packet whose
// recorded walk met only static rules is booked instead of walked wherever
// its path avoids the world's dirty switches.
class ScenarioHarness : public backtest::ReplayHarness {
 public:
  // Builds the base and synthesizes the workload on it.
  explicit ScenarioHarness(const Scenario& s);

  backtest::ReplayOutcome replay_baseline() override;
  // Ordering: replay() first calls replay_baseline(), which records the
  // incident and fills the memo, and only then builds its world. Once
  // replay_baseline() has returned, the memo and the baseline are
  // read-only, so concurrent replay() calls share them without locks.
  backtest::ReplayOutcome replay(const repair::RepairCandidate& cand) override;
  std::vector<backtest::ReplayOutcome> replay_joint(
      const std::vector<repair::RepairCandidate>& cands) override;
  // Candidate replays build a private ScenarioRun each and only read the
  // shared scenario, base and workload (plus the baseline and memo filled
  // by the first replay_baseline() call), so the Backtester may run them
  // on its pool.
  bool concurrent_replays() const override { return true; }

  // The world replay(cand) scores, built and configured but not replayed;
  // nullopt when the candidate's program does not apply.
  std::optional<ScenarioRun> candidate_world(
      const repair::RepairCandidate& cand) const;
  // The tag-mode world replay_joint scores for `combined`, one tag per
  // candidate, built and configured but not replayed.
  ScenarioRun joint_world(const backtest::CombinedProgram& combined) const;
  // Scores a replayed candidate world as replay() does.
  backtest::ReplayOutcome score(ScenarioRun& run);
  // Scores a replayed joint world as replay_joint does.
  std::vector<backtest::ReplayOutcome> score_joint(
      ScenarioRun& run, const backtest::CombinedProgram& combined,
      size_t candidates);

  const std::shared_ptr<const sdn::WorldBase>& base() const { return base_; }
  const std::vector<sdn::Injection>& workload() const { return workload_; }
  // Filled by buggy_run().
  const sdn::PathMemo& memo() const { return memo_; }
  // The recorded buggy run (history source for repair generation).
  ScenarioRun& buggy_run();

 private:
  // The cached baseline, recorded on first use.
  const backtest::ReplayOutcome& baseline();

  const Scenario& scenario_;
  std::shared_ptr<const sdn::WorldBase> base_;
  std::vector<sdn::Injection> workload_;
  sdn::PathMemo memo_;
  std::unique_ptr<ScenarioRun> buggy_;
  std::unique_ptr<backtest::ReplayOutcome> baseline_;
};

struct PipelineResult {
  repair::GenerationReport generation;   // candidates + phase breakdown
  backtest::BacktestReport backtest;
  PhaseClock phases;                     // generation phases + "replay"
  size_t candidates = 0;
  size_t effective = 0;
  size_t accepted = 0;
  double total_seconds = 0.0;
};

struct PipelineOptions {
  bool multiquery = true;
  size_t max_backtested = 16;  // candidates sent to backtesting
  // Worker threads for sequential candidate backtests (multiquery off);
  // forwarded to BacktestConfig::shards.
  size_t backtest_shards = 1;
};

PipelineResult run_pipeline(const Scenario& s, const PipelineOptions& opt = {});

}  // namespace mp::scenario
