#include "scenarios/pipeline.h"

#include <algorithm>
#include <set>

#include "obs/span.h"

namespace mp::scenario {

namespace {

// Every world's base tuples, in the one order every world inserts them:
// the config tuples in config_tuples order, each under config_mask(t), then
// `insertions`. A config tuple whose mask is empty is withheld: no tag of
// the world keeps it.
template <typename ConfigMask>
std::vector<BaseTuple> base_tuples(const Scenario& s, ConfigMask config_mask,
                                   std::span<const BaseTuple> insertions) {
  std::vector<BaseTuple> out;
  out.reserve(s.config_tuples.size() + insertions.size());
  for (const eval::Tuple& t : s.config_tuples) {
    const eval::TagMask mask = config_mask(t);
    if (mask != 0) out.emplace_back(t, mask);
  }
  out.insert(out.end(), insertions.begin(), insertions.end());
  return out;
}

}  // namespace

ScenarioRun::ScenarioRun(
    const Scenario& s, std::shared_ptr<const sdn::WorldBase> base,
    const ndlog::Program& program, eval::EngineOptions eopts,
    const std::map<std::string, eval::TagMask>& rule_restrict,
    eval::TagMask active, std::span<const BaseTuple> base_tuples) {
  net_ = std::make_unique<sdn::Network>(std::move(base));
  engine_ = std::make_unique<eval::Engine>(program, eopts);
  controller_ = std::make_unique<sdn::NdlogController>(*net_, *engine_,
                                                       s.make_bindings());
  net_->set_controller(controller_.get());
  for (const auto& [rule, mask] : rule_restrict) {
    engine_->set_rule_restrict(rule, mask);
  }
  if (eopts.tag_mode) net_->set_tag_mode(true, active);
  engine_->insert_batch(base_tuples);
}

ScenarioHarness::ScenarioHarness(const Scenario& s)
    : scenario_(s),
      base_(build_base(s)),
      workload_(s.make_workload(base_->net())),
      memo_(workload_.size()) {}

ScenarioRun ScenarioHarness::recorded_world() const {
  const std::vector<BaseTuple> tuples = base_tuples(
      scenario_, [](const eval::Tuple&) { return eval::kAllTags; }, {});
  return ScenarioRun(scenario_, base_, scenario_.program, {}, {},
                     eval::kAllTags, tuples);
}

ScenarioRun& ScenarioHarness::buggy_run() {
  if (!buggy_) {
    buggy_ = std::make_unique<ScenarioRun>(recorded_world());
    buggy_->net().record_batch(workload_, memo_);
  }
  return *buggy_;
}

const backtest::ReplayOutcome& ScenarioHarness::baseline() {
  if (!baseline_) {
    ScenarioRun& run = buggy_run();
    auto out = backtest::outcome_from_stats(run.net().stats());
    out.symptom_fixed = false;
    baseline_ = std::make_unique<backtest::ReplayOutcome>(std::move(out));
  }
  return *baseline_;
}

backtest::ReplayOutcome ScenarioHarness::replay_baseline() {
  return baseline();
}

std::optional<ScenarioRun> ScenarioHarness::candidate_world(
    const repair::RepairCandidate& cand) const {
  auto program = repair::apply_candidate(scenario_.program, cand);
  if (!program) return std::nullopt;
  std::vector<BaseTuple> inserts;
  for (const eval::Tuple& t : repair::candidate_insertions(cand)) {
    inserts.emplace_back(t, eval::kAllTags);
  }
  const std::vector<eval::Tuple> deletions = repair::candidate_deletions(cand);
  const std::vector<BaseTuple> tuples = base_tuples(
      scenario_,
      [&](const eval::Tuple& t) {
        return std::find(deletions.begin(), deletions.end(), t) ==
                       deletions.end()
                   ? eval::kAllTags
                   : eval::TagMask{0};
      },
      inserts);
  // Provenance recording is off during backtests: we only need metrics.
  eval::EngineOptions eopts;
  eopts.record_provenance = false;
  return ScenarioRun(scenario_, base_, *program, eopts, {}, eval::kAllTags,
                     tuples);
}

ScenarioRun ScenarioHarness::joint_world(
    const backtest::CombinedProgram& combined) const {
  const std::vector<BaseTuple> tuples = base_tuples(
      scenario_,
      [&](const eval::Tuple& t) { return combined.config_mask(t); },
      combined.insertions);
  eval::EngineOptions eopts;
  eopts.record_provenance = false;
  eopts.tag_mode = true;
  const eval::TagMask active =
      combined.candidate_count >= eval::kMaxTags
          ? eval::kAllTags
          : (eval::TagMask{1} << combined.candidate_count) - 1;
  return ScenarioRun(scenario_, base_, combined.program, eopts,
                     combined.rule_restrict, active, tuples);
}

backtest::ReplayOutcome ScenarioHarness::score_tag(
    ScenarioRun& run, const sdn::DeliveryStats& stats, bool valid,
    eval::TagMask tag) {
  const backtest::ReplayOutcome& base = baseline();
  backtest::ReplayOutcome out = backtest::outcome_from_stats(stats);
  out.valid = valid;
  out.symptom_fixed =
      valid && scenario_.symptom_fixed
          ? scenario_.symptom_fixed(out, base, run.engine(), tag)
          : false;
  return out;
}

backtest::ReplayOutcome ScenarioHarness::score(ScenarioRun& run) {
  return score_tag(run, run.net().stats(), true, eval::kAllTags);
}

std::vector<backtest::ReplayOutcome> ScenarioHarness::score_joint(
    ScenarioRun& run, const backtest::CombinedProgram& combined,
    size_t candidates) {
  std::vector<backtest::ReplayOutcome> outs(candidates);
  for (size_t i = 0; i < candidates && i < combined.candidate_count; ++i) {
    const bool valid =
        std::find(combined.invalid.begin(), combined.invalid.end(), i) ==
        combined.invalid.end();
    outs[i] = score_tag(run, run.net().tag_stats(i), valid,
                        eval::TagMask{1} << i);
  }
  return outs;
}

backtest::ReplayOutcome ScenarioHarness::replay(
    const repair::RepairCandidate& cand) {
  // Records the incident and fills memo_ before any world exists.
  baseline();
  std::optional<ScenarioRun> run = candidate_world(cand);
  if (!run) {
    backtest::ReplayOutcome out;
    out.valid = false;
    return out;
  }
  run->net().replay_batch(workload_, memo_);
  return score(*run);
}

std::vector<backtest::ReplayOutcome> ScenarioHarness::replay_joint(
    const std::vector<repair::RepairCandidate>& cands) {
  if (cands.empty()) return {};
  baseline();
  const backtest::CombinedProgram combined =
      backtest::build_backtest_program(scenario_.program, cands);
  ScenarioRun run = joint_world(combined);
  run.net().replay_batch(workload_, memo_);
  return score_joint(run, combined, cands.size());
}

PipelineResult run_pipeline(const Scenario& s, const PipelineOptions& opt) {
  static const obs::TracedPhase kPhasePipeline("scenario.pipeline");
  static const obs::PhaseId kPhaseReplay = obs::phase_id("replay");
  const obs::Scope scope(kPhasePipeline);
  PipelineResult result;
  ScenarioHarness harness(s);
  ScenarioRun& buggy = harness.buggy_run();

  // Repair generation over all symptoms (merged, deduplicated).
  repair::RepairGenerator generator(buggy.engine(), s.space);
  std::set<std::string> seen;
  for (const auto& symptom : s.symptoms) {
    repair::GenerationReport rep = generator.generate(symptom);
    result.generation.phases.merge(rep.phases);
    result.generation.stats.trees_forked += rep.stats.trees_forked;
    result.generation.stats.goals_expanded += rep.stats.goals_expanded;
    result.generation.stats.history_tuples_scanned +=
        rep.stats.history_tuples_scanned;
    result.generation.stats.solver.calls += rep.stats.solver.calls;
    for (auto& cand : rep.candidates) {
      if (seen.insert(cand.description).second) {
        result.generation.candidates.push_back(std::move(cand));
      }
    }
  }
  std::sort(result.generation.candidates.begin(),
            result.generation.candidates.end(),
            [](const repair::RepairCandidate& a,
               const repair::RepairCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.description < b.description;
            });
  if (result.generation.candidates.size() > opt.max_backtested) {
    result.generation.candidates.resize(opt.max_backtested);
  }
  result.candidates = result.generation.candidates.size();

  // Backtest.
  {
    const obs::Scope replay(kPhaseReplay, &result.phases);
    backtest::BacktestConfig bcfg;
    bcfg.use_multiquery = opt.multiquery;
    bcfg.shards = opt.backtest_shards;
    backtest::Backtester tester(bcfg);
    result.backtest = tester.run(harness, result.generation.candidates);
  }
  result.phases.merge(result.generation.phases);
  result.effective = result.backtest.effective_count;
  result.accepted = result.backtest.accepted_count;
  result.total_seconds = scope.seconds();
  return result;
}

}  // namespace mp::scenario
