// Shared by the static-path memo tests (sdn_test, pipeline_test,
// backtest_pool_test): equality checks for everything a replay exposes,
// and the memo-free reference harness the shipped ScenarioHarness must
// equal. See src/sdn/README.md, "Static-path memo".
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "scenarios/pipeline.h"
#include "sdn/network.h"

namespace mp::memo_test {

// Every counter, per_host and per_host_port.
inline void expect_same_stats(const sdn::DeliveryStats& got,
                              const sdn::DeliveryStats& want,
                              const std::string& where) {
  EXPECT_EQ(got.delivered, want.delivered) << where;
  EXPECT_EQ(got.dropped, want.dropped) << where;
  EXPECT_EQ(got.external, want.external) << where;
  EXPECT_EQ(got.packet_ins, want.packet_ins) << where;
  EXPECT_EQ(got.flow_mods, want.flow_mods) << where;
  EXPECT_EQ(got.packet_outs, want.packet_outs) << where;
  EXPECT_EQ(got.hops, want.hops) << where;
  EXPECT_EQ(got.per_host.counts(), want.per_host.counts()) << where;
  EXPECT_EQ(got.per_host_port.counts(), want.per_host_port.counts()) << where;
}

// The control log: every PacketIn, FlowMod and PacketOut with its switch
// and clock value, in order.
inline void expect_same_ctrl(const sdn::Recorder& got,
                             const sdn::Recorder& want,
                             const std::string& where) {
  ASSERT_EQ(got.ctrl().size(), want.ctrl().size()) << where;
  for (size_t i = 0; i < want.ctrl().size(); ++i) {
    const sdn::CtrlMsg& a = got.ctrl()[i];
    const sdn::CtrlMsg& b = want.ctrl()[i];
    ASSERT_TRUE(a.kind == b.kind && a.sw == b.sw && a.time == b.time)
        << where << ": control message " << i << " differs";
  }
}

// Aggregate stats, then the per-tag stats of tags [0, tags).
inline void expect_same_world(const sdn::Network& got,
                              const sdn::Network& want, size_t tags,
                              const std::string& where) {
  expect_same_stats(got.stats(), want.stats(), where);
  for (size_t t = 0; t < tags; ++t) {
    expect_same_stats(got.tag_stats(t), want.tag_stats(t),
                      where + " tag " + std::to_string(t));
  }
  expect_same_ctrl(got.recorder(), want.recorder(), where);
  EXPECT_EQ(got.now(), want.now()) << where;
}

// Everything a BacktestReport holds except replay times, as text (doubles
// printed exactly).
inline std::string report_text(const backtest::BacktestReport& report) {
  std::string out;
  char buf[160];
  for (const backtest::BacktestEntry& e : report.entries) {
    const backtest::ReplayOutcome& o = e.outcome;
    std::snprintf(buf, sizeof buf,
                  "%s cost=%a valid=%d fixed=%d del=%zu drop=%zu pin=%zu "
                  "ks=%a crit=%a p=%a eff=%d acc=%d\n",
                  e.candidate.description.c_str(), e.candidate.cost, o.valid,
                  o.symptom_fixed, o.delivered, o.dropped, o.packet_ins,
                  e.ks.statistic, e.ks.critical, e.ks.pvalue, e.effective,
                  e.accepted);
    out += buf;
    for (const auto* dist : {&o.per_host, &o.per_host_port}) {
      for (const auto& [key, n] : dist->counts()) {
        std::snprintf(buf, sizeof buf, "  %s=%a\n", key.c_str(), n);
        out += buf;
      }
    }
  }
  std::snprintf(buf, sizeof buf, "effective=%zu accepted=%zu\n",
                report.effective_count, report.accepted_count);
  return out + buf;
}

// The memo-free reference: ScenarioHarness's worlds and scoring, with
// every packet of every candidate world walked.
class WalkingHarness : public backtest::ReplayHarness {
 public:
  explicit WalkingHarness(const scenario::Scenario& s) : s_(s), h_(s) {}

  backtest::ReplayOutcome replay_baseline() override {
    return h_.replay_baseline();
  }
  backtest::ReplayOutcome replay(const repair::RepairCandidate& c) override {
    std::optional<scenario::ScenarioRun> run = h_.candidate_world(c);
    if (!run) {
      backtest::ReplayOutcome invalid;
      invalid.valid = false;
      return invalid;
    }
    sdn::replay(run->net(), h_.workload());
    return h_.score(*run);
  }
  std::vector<backtest::ReplayOutcome> replay_joint(
      const std::vector<repair::RepairCandidate>& cands) override {
    if (cands.empty()) return {};
    const backtest::CombinedProgram combined =
        backtest::build_backtest_program(s_.program, cands);
    scenario::ScenarioRun run = h_.joint_world(combined);
    sdn::replay(run.net(), h_.workload());
    return h_.score_joint(run, combined, cands.size());
  }
  bool concurrent_replays() const override { return true; }

 private:
  const scenario::Scenario& s_;
  scenario::ScenarioHarness h_;
};

}  // namespace mp::memo_test
