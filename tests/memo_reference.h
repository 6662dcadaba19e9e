// Shared by the static-path memo tests (sdn_test, pipeline_test,
// backtest_pool_test): equality checks for everything a replay exposes,
// and the memo-free reference harness the shipped ScenarioHarness must
// equal. See src/sdn/README.md, "Static-path memo".
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "scenarios/pipeline.h"
#include "sdn/network.h"

namespace mp::memo_test {

// The per-host tallies of `st` over `hosts` numbers (a world that has not
// delivered yet holds none).
inline std::vector<uint64_t> host_tallies(const sdn::DeliveryStats& st,
                                          size_t hosts) {
  std::vector<uint64_t> out = st.per_host;
  out.resize(std::max(hosts, out.size()), 0);
  return out;
}

// The nonzero (host number, dpt) tallies of `st`, whatever the order in
// which its world first delivered to them.
inline std::map<std::pair<uint32_t, int64_t>, uint64_t> port_tallies(
    const sdn::DeliveryStats& st) {
  std::map<std::pair<uint32_t, int64_t>, uint64_t> out;
  for (const sdn::PortTally& t : st.per_host_port) {
    if (t.packets != 0) out[{t.host, t.dpt}] += t.packets;
  }
  return out;
}

// Equal host numberings (by name, so a self-built world compares with a
// world on a base), then equal per-host and per-(host, dpt) tallies.
inline void expect_same_tallies(const sdn::DeliveryStats& got,
                                const sdn::DeliveryStats& want,
                                const std::string& where) {
  if (got.hosts != nullptr && want.hosts != nullptr) {
    EXPECT_TRUE(*got.hosts == *want.hosts)
        << where << ": host numberings differ";
  }
  const size_t hosts = std::max(got.per_host.size(), want.per_host.size());
  EXPECT_EQ(host_tallies(got, hosts), host_tallies(want, hosts)) << where;
  EXPECT_EQ(port_tallies(got), port_tallies(want)) << where;
}

// Every counter and every delivery tally.
inline void expect_same_stats(const sdn::DeliveryStats& got,
                              const sdn::DeliveryStats& want,
                              const std::string& where) {
  EXPECT_EQ(got.delivered(), want.delivered()) << where;
  EXPECT_EQ(got.dropped, want.dropped) << where;
  EXPECT_EQ(got.external, want.external) << where;
  EXPECT_EQ(got.packet_ins, want.packet_ins) << where;
  EXPECT_EQ(got.flow_mods, want.flow_mods) << where;
  EXPECT_EQ(got.packet_outs, want.packet_outs) << where;
  EXPECT_EQ(got.hops, want.hops) << where;
  expect_same_tallies(got, want, where);
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
                  "%s cost=%a valid=%d fixed=%d del=%llu drop=%zu pin=%zu "
                  "ks=%a crit=%a p=%a eff=%d acc=%d\n",
                  e.candidate.description.c_str(), e.candidate.cost, o.valid,
                  o.symptom_fixed,
                  static_cast<unsigned long long>(o.delivered()), o.dropped,
                  o.packet_ins,
                  e.ks.statistic, e.ks.critical, e.ks.pvalue, e.effective,
                  e.accepted);
    out += buf;
    for (size_t h = 0; h < o.per_host.size(); ++h) {
      if (o.per_host[h] == 0) continue;
      std::snprintf(buf, sizeof buf, "  %s=%llu\n",
                    o.hosts->name(static_cast<uint32_t>(h)).c_str(),
                    static_cast<unsigned long long>(o.per_host[h]));
      out += buf;
    }
    for (const auto& [key, n] : port_tallies(o)) {
      std::snprintf(buf, sizeof buf, "  %s:%lld=%llu\n",
                    o.hosts->name(key.first).c_str(),
                    static_cast<long long>(key.second),
                    static_cast<unsigned long long>(n));
      out += buf;
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
