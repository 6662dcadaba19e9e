// The end-to-end pipeline: run the buggy scenario while recording,
// generate repair candidates from the meta provenance, then backtest them
// (sequentially or jointly via multi-query evaluation) and rank the
// survivors. This is the programmatic equivalent of the paper's prototype
// debugger and is what the examples and benches call.
#pragma once

#include <map>
#include <optional>
#include <span>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "scenarios/scenario.h"
#include "util/timer.h"

namespace mp::scenario {

// A base tuple and the tags it is inserted under.
using BaseTuple = std::pair<eval::Tuple, eval::TagMask>;

// One concrete simulation of a scenario under a given program: a world on
// a static base of the scenario (build_base) with its own engine and
// controller. A world is ready to replay once constructed: construction
// builds the engine, restricts its rules to their tags, sets the network's
// tag mode and inserts the base tuples, in that order. Only
// ScenarioHarness's world builders construct one. Every controller
// install, config insertions' included, goes to the world's dynamic layer
// and marks its switch dirty (sdn::WorldBase).
class ScenarioRun {
 public:
  sdn::Network& net() { return *net_; }
  eval::Engine& engine() { return *engine_; }

 private:
  friend class ScenarioHarness;
  // `active` is the network's tag set; it is used only when
  // eopts.tag_mode is on.
  ScenarioRun(const Scenario& s, std::shared_ptr<const sdn::WorldBase> base,
              const ndlog::Program& program, eval::EngineOptions eopts,
              const std::map<std::string, eval::TagMask>& rule_restrict,
              eval::TagMask active, std::span<const BaseTuple> base_tuples);

  std::unique_ptr<sdn::Network> net_;
  std::unique_ptr<eval::Engine> engine_;
  std::unique_ptr<sdn::NdlogController> controller_;
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

  // The three world builders. Each returns a world that is built and
  // configured but not replayed. Its base tuples are the config tuples in
  // config_tuples order, then the candidate insertions.
  //
  // The world the incident is recorded in: the scenario's program with
  // provenance on and the config tuples.
  ScenarioRun recorded_world() const;
  // The world replay(cand) scores; a config tuple the candidate deletes is
  // withheld. nullopt when the candidate's program does not apply.
  std::optional<ScenarioRun> candidate_world(
      const repair::RepairCandidate& cand) const;
  // The tag-mode world replay_joint scores for `combined`, one tag per
  // candidate. Each config tuple is inserted under the tags that keep it
  // (CombinedProgram::config_mask) and withheld when no tag does.
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
  // The recorded buggy run (history source for repair generation):
  // recorded_world() with the workload recorded into it and the memo.
  ScenarioRun& buggy_run();

 private:
  // The cached baseline, recorded on first use.
  const backtest::ReplayOutcome& baseline();
  // One tag's outcome: read from `stats`, marked `valid`, and checked for
  // the symptom under `tag` when valid.
  backtest::ReplayOutcome score_tag(ScenarioRun& run,
                                    const sdn::DeliveryStats& stats,
                                    bool valid, eval::TagMask tag);

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
