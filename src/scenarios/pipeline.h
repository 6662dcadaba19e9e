// The end-to-end pipeline: run the buggy scenario while recording,
// generate repair candidates from the meta provenance, then backtest them
// (sequentially or jointly via multi-query evaluation) and rank the
// survivors. This is the programmatic equivalent of the paper's prototype
// debugger and is what the examples and benches call.
#pragma once

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "scenarios/scenario.h"
#include "util/timer.h"

namespace mp::scenario {

// One concrete simulation of a scenario under a given program.
class ScenarioRun {
 public:
  ScenarioRun(const Scenario& s, const ndlog::Program& program,
              eval::EngineOptions eopts = {});

  // Extra tagged base tuples (candidate insertions) + tagged config.
  void insert_config(
      const std::vector<std::pair<eval::Tuple, eval::TagMask>>& extra = {});
  void set_rule_restrictions(
      const std::map<std::string, eval::TagMask>& restrict);
  void set_tag_mode(eval::TagMask active);
  // Replays `workload`; `record` keeps the network's ingress log, which
  // only the recorded incident needs.
  void replay(const std::vector<sdn::Injection>& workload, bool record = true);

  sdn::Network& net() { return *net_; }
  eval::Engine& engine() { return *engine_; }
  const sdn::Campus& campus() const { return campus_; }

 private:
  const Scenario& scenario_;
  std::unique_ptr<sdn::Network> net_;
  std::unique_ptr<eval::Engine> engine_;
  std::unique_ptr<sdn::NdlogController> controller_;
  sdn::Campus campus_;
  bool config_inserted_ = false;
};

// ReplayHarness over a scenario; caches the workload and baseline.
class ScenarioHarness : public backtest::ReplayHarness {
 public:
  explicit ScenarioHarness(const Scenario& s);

  backtest::ReplayOutcome replay_baseline() override;
  backtest::ReplayOutcome replay(const repair::RepairCandidate& cand) override;
  std::vector<backtest::ReplayOutcome> replay_joint(
      const std::vector<repair::RepairCandidate>& cands) override;
  // Candidate replays build a private ScenarioRun each and only read the
  // shared scenario/workload (plus the baseline cached by the first
  // replay_baseline() call), so the Backtester may run them on its pool.
  bool concurrent_replays() const override { return true; }

  const std::vector<sdn::Injection>& workload() const { return workload_; }
  // The recorded buggy run (history source for repair generation).
  ScenarioRun& buggy_run();

 private:
  const Scenario& scenario_;
  std::vector<sdn::Injection> workload_;
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
