#include "scenarios/pipeline.h"

#include <algorithm>
#include <set>

#include "obs/span.h"

namespace mp::scenario {

ScenarioRun::ScenarioRun(const Scenario& s,
                         std::shared_ptr<const sdn::WorldBase> base,
                         const ndlog::Program& program,
                         eval::EngineOptions eopts)
    : scenario_(s) {
  net_ = std::make_unique<sdn::Network>(std::move(base));
  engine_ = std::make_unique<eval::Engine>(program, eopts);
  controller_ = std::make_unique<sdn::NdlogController>(*net_, *engine_,
                                                       s.make_bindings());
  net_->set_controller(controller_.get());
}

void ScenarioRun::insert_config(
    const std::vector<std::pair<eval::Tuple, eval::TagMask>>& extra) {
  if (!config_inserted_) {
    config_inserted_ = true;
    engine_->insert_batch(scenario_.config_tuples);
  }
  engine_->insert_batch(extra);
}

void ScenarioRun::set_rule_restrictions(
    const std::map<std::string, eval::TagMask>& restrict_map) {
  for (const auto& [rule, mask] : restrict_map) {
    engine_->set_rule_restrict(rule, mask);
  }
}

void ScenarioRun::set_tag_mode(eval::TagMask active) {
  net_->set_tag_mode(true, active);
}

void ScenarioRun::replay(const std::vector<sdn::Injection>& workload) {
  sdn::replay(*net_, workload);
}

void ScenarioRun::record(const std::vector<sdn::Injection>& workload,
                         sdn::PathMemo& memo) {
  net_->record_batch(workload, memo);
}

void ScenarioRun::replay(const std::vector<sdn::Injection>& workload,
                         const sdn::PathMemo& memo) {
  net_->replay_batch(workload, memo);
}

ScenarioHarness::ScenarioHarness(const Scenario& s)
    : scenario_(s),
      base_(build_base(s)),
      workload_(s.make_workload(base_->net())),
      memo_(workload_.size()) {}

ScenarioRun& ScenarioHarness::buggy_run() {
  if (!buggy_) {
    buggy_ = std::make_unique<ScenarioRun>(scenario_, base_, scenario_.program);
    buggy_->insert_config();
    buggy_->record(workload_, memo_);
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
  // Provenance recording is off during backtests: we only need metrics.
  eval::EngineOptions eopts;
  eopts.record_provenance = false;
  std::optional<ScenarioRun> run(std::in_place, scenario_, base_, *program,
                                 eopts);

  std::vector<std::pair<eval::Tuple, eval::TagMask>> inserts;
  for (const eval::Tuple& t : repair::candidate_insertions(cand)) {
    inserts.emplace_back(t, eval::kAllTags);
  }
  const auto deletions = repair::candidate_deletions(cand);
  if (deletions.empty()) {
    run->insert_config(inserts);
    return run;
  }
  // Config insertion honouring deletions: withheld tuples never enter.
  for (const eval::Tuple& t : scenario_.config_tuples) {
    if (std::find(deletions.begin(), deletions.end(), t) == deletions.end())
      inserts.emplace_back(t, eval::kAllTags);
  }
  run->engine().insert_batch(inserts);
  return run;
}

backtest::ReplayOutcome ScenarioHarness::score(ScenarioRun& run) {
  const backtest::ReplayOutcome& base = baseline();
  backtest::ReplayOutcome out = backtest::outcome_from_stats(run.net().stats());
  out.symptom_fixed =
      scenario_.symptom_fixed
          ? scenario_.symptom_fixed(out, base, run.engine(), eval::kAllTags)
          : false;
  return out;
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
  run->replay(workload_, memo_);
  return score(*run);
}

ScenarioRun ScenarioHarness::joint_world(
    const backtest::CombinedProgram& combined) const {
  eval::EngineOptions eopts;
  eopts.record_provenance = false;
  eopts.tag_mode = true;
  ScenarioRun run(scenario_, base_, combined.program, eopts);
  run.set_rule_restrictions(combined.rule_restrict);
  const eval::TagMask active =
      combined.candidate_count >= eval::kMaxTags
          ? eval::kAllTags
          : (eval::TagMask{1} << combined.candidate_count) - 1;
  run.set_tag_mode(active);

  // Config tuples with deletion masks, then candidate insertions.
  std::vector<std::pair<eval::Tuple, eval::TagMask>> inserts;
  for (const eval::Tuple& t : scenario_.config_tuples) {
    inserts.emplace_back(t, combined.config_mask(t));
  }
  for (const auto& [t, mask] : combined.insertions) {
    inserts.emplace_back(t, mask);
  }
  // Bypass the untagged config path: insert everything explicitly.
  run.engine().insert_batch(inserts);
  return run;
}

std::vector<backtest::ReplayOutcome> ScenarioHarness::score_joint(
    ScenarioRun& run, const backtest::CombinedProgram& combined,
    size_t candidates) {
  const backtest::ReplayOutcome& base = baseline();
  std::vector<backtest::ReplayOutcome> outs(candidates);
  for (size_t i = 0; i < candidates && i < combined.candidate_count; ++i) {
    backtest::ReplayOutcome& o = outs[i];
    o = backtest::outcome_from_stats(run.net().tag_stats(i));
    o.valid = std::find(combined.invalid.begin(), combined.invalid.end(), i) ==
              combined.invalid.end();
    const eval::TagMask bit = eval::TagMask{1} << i;
    o.symptom_fixed =
        o.valid && scenario_.symptom_fixed
            ? scenario_.symptom_fixed(o, base, run.engine(), bit)
            : false;
  }
  return outs;
}

std::vector<backtest::ReplayOutcome> ScenarioHarness::replay_joint(
    const std::vector<repair::RepairCandidate>& cands) {
  if (cands.empty()) return {};
  baseline();
  const backtest::CombinedProgram combined =
      backtest::build_backtest_program(scenario_.program, cands);
  ScenarioRun run = joint_world(combined);
  run.replay(workload_, memo_);
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
    result.generation.stats.trees_completed += rep.stats.trees_completed;
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
