// The Backtester's candidate-replay pool (BacktestConfig::shards) and the
// fork/join primitive under it (util/threads.h): pooled replays must match
// the sequential run entry for entry, on a counting harness and on a real
// scenario pipeline, and a throwing thunk must still join every peer.
// Labelled `concurrency`: tools/check.sh CHECK_TSAN=1 reruns exactly this
// suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backtest/backtester.h"
#include "scenarios/pipeline.h"
#include "scenarios/scenario.h"
#include "tests/memo_reference.h"
#include "util/threads.h"

namespace mp {
namespace {

// An outcome with 100 packets delivered to one host.
backtest::ReplayOutcome hundred_delivered() {
  static const auto names = std::make_shared<const sdn::HostNames>(
      std::vector<sdn::Host>{{1, "H", 0, 0, 0, 0}});
  backtest::ReplayOutcome o;
  o.hosts = names;
  o.per_host = {100};
  return o;
}

class CountingHarness : public backtest::ReplayHarness {
 public:
  backtest::ReplayOutcome replay_baseline() override {
    return hundred_delivered();
  }
  backtest::ReplayOutcome replay(const repair::RepairCandidate& c) override {
    replays.fetch_add(1);
    backtest::ReplayOutcome o = hundred_delivered();
    o.symptom_fixed = c.cost < 2.0;  // outcome depends only on the candidate
    return o;
  }
  bool concurrent_replays() const override { return true; }
  std::atomic<size_t> replays{0};
};

TEST(BacktesterPool, ParallelReplaysMatchSequential) {
  std::vector<repair::RepairCandidate> cands(9);
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i].cost = static_cast<double>(i) * 0.5;
    cands[i].description = "cand-" + std::to_string(i);
  }
  backtest::BacktestConfig seq_cfg;
  CountingHarness seq_harness;
  const backtest::BacktestReport seq =
      backtest::Backtester(seq_cfg).run(seq_harness, cands);

  backtest::BacktestConfig pool_cfg;
  pool_cfg.shards = 4;
  CountingHarness pool_harness;
  const backtest::BacktestReport pool =
      backtest::Backtester(pool_cfg).run(pool_harness, cands);

  EXPECT_EQ(pool_harness.replays.load(), cands.size());
  ASSERT_EQ(pool.entries.size(), seq.entries.size());
  EXPECT_EQ(pool.effective_count, seq.effective_count);
  EXPECT_EQ(pool.accepted_count, seq.accepted_count);
  for (size_t i = 0; i < seq.entries.size(); ++i) {
    EXPECT_EQ(pool.entries[i].candidate.description,
              seq.entries[i].candidate.description);
    EXPECT_EQ(pool.entries[i].effective, seq.entries[i].effective);
    EXPECT_EQ(pool.entries[i].accepted, seq.entries[i].accepted);
  }
}

// The real ScenarioHarness opted into concurrent replays: drive an actual
// scenario pipeline (generation + sequential candidate backtests) through
// the pool and require results identical to the single-threaded run. This
// is the test that puts the opt-in's thread-safety claim under the TSan
// gate (CHECK_TSAN=1 reruns this suite).
TEST(BacktesterPool, ScenarioBacktestsOnThePoolMatchSequential) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  auto run = [&](size_t shards) {
    scenario::PipelineOptions opt;
    opt.multiquery = false;
    opt.max_backtested = 6;
    opt.backtest_shards = shards;
    return scenario::run_pipeline(s, opt);
  };
  const scenario::PipelineResult seq = run(1);
  const scenario::PipelineResult pool = run(4);
  EXPECT_GT(seq.candidates, 1u);
  EXPECT_EQ(pool.candidates, seq.candidates);
  EXPECT_EQ(pool.effective, seq.effective);
  EXPECT_EQ(pool.accepted, seq.accepted);
  ASSERT_EQ(pool.backtest.entries.size(), seq.backtest.entries.size());
  for (size_t i = 0; i < seq.backtest.entries.size(); ++i) {
    const backtest::BacktestEntry& a = seq.backtest.entries[i];
    const backtest::BacktestEntry& b = pool.backtest.entries[i];
    EXPECT_EQ(b.candidate.description, a.candidate.description);
    EXPECT_EQ(b.effective, a.effective);
    EXPECT_EQ(b.accepted, a.accepted);
    EXPECT_EQ(b.ks.statistic, a.ks.statistic);
    EXPECT_EQ(b.outcome.delivered(), a.outcome.delivered());
  }
}

// Pooled sequential replays share the harness's static-path memo
// read-only: ScenarioHarness::replay fills it through replay_baseline()
// before building a world, and Backtester::run calls replay_baseline()
// before the pool starts. Pooled runs must equal the single-threaded run
// and the memo-free reference, which walks every packet of every world.
TEST(BacktesterPool, MemoizedReplaysOnThePoolMatchSequentialAndWalk) {
  for (const scenario::Scenario& s :
       {scenario::q1_copy_paste({}), scenario::q5_mac_learning({})}) {
    scenario::PipelineOptions opt;
    opt.multiquery = false;
    opt.max_backtested = 8;
    const std::vector<repair::RepairCandidate> cands =
        scenario::run_pipeline(s, opt).generation.candidates;
    ASSERT_GT(cands.size(), 1u) << s.id;
    auto report = [&](backtest::ReplayHarness& harness, size_t shards) {
      backtest::BacktestConfig cfg;
      cfg.shards = shards;
      return memo_test::report_text(
          backtest::Backtester(cfg).run(harness, cands));
    };
    scenario::ScenarioHarness single(s);
    scenario::ScenarioHarness pooled(s);
    memo_test::WalkingHarness walking(s);
    const std::string want = report(walking, 1);
    EXPECT_EQ(report(single, 1), want) << s.id;
    EXPECT_EQ(report(pooled, 4), want) << s.id;
    EXPECT_GT(pooled.memo().entries(), 0u) << s.id;
  }
}

// Every sequential candidate world is built on the harness's one
// WorldBase, which the pool's workers read at once: pooled replays must
// equal the single-threaded run entry for entry, and leave the base's
// rules as they were. Under CHECK_TSAN=1 this is the race check of the
// shared const base.
TEST(BacktesterPool, PooledWorldsOnOneSharedBaseMatchSingleThreaded) {
  const scenario::Scenario s = scenario::q2_forwarding({});
  scenario::PipelineOptions opt;
  opt.multiquery = false;
  opt.max_backtested = 8;
  const std::vector<repair::RepairCandidate> cands =
      scenario::run_pipeline(s, opt).generation.candidates;
  ASSERT_GT(cands.size(), 1u);
  auto static_rules = [](const sdn::Network& net) {
    size_t n = 0;
    for (int64_t id : net.switch_ids())
      n += net.find_switch(id)->table().size();
    return n;
  };
  scenario::ScenarioHarness single(s);
  scenario::ScenarioHarness pooled(s);
  const size_t rules = static_rules(pooled.base()->net());
  for (const repair::RepairCandidate& c : cands) {
    std::optional<scenario::ScenarioRun> world = pooled.candidate_world(c);
    if (world) {
      EXPECT_EQ(world->net().base(), pooled.base());
    }
  }
  auto report = [&](scenario::ScenarioHarness& harness, size_t shards) {
    backtest::BacktestConfig cfg;
    cfg.shards = shards;
    return memo_test::report_text(
        backtest::Backtester(cfg).run(harness, cands));
  };
  EXPECT_EQ(report(pooled, 4), report(single, 1));
  EXPECT_EQ(static_rules(pooled.base()->net()), rules);
}

// The fork/join primitive under the candidate-replay pool
// (util/threads.h): a thunk throwing while its peers are still mid-flight
// must not leak a joinable thread or lose the exception — every peer runs
// to completion, all threads join, and exactly one exception (the first
// captured) resurfaces on the calling thread.
TEST(RunThunksParallel, ThrowingThunkStillJoinsAllPeersAndRethrows) {
  constexpr size_t kThunks = 4;
  std::atomic<size_t> started{0};
  std::atomic<size_t> finished{0};
  std::vector<std::function<void()>> thunks;
  for (size_t i = 0; i < kThunks; ++i) {
    thunks.push_back([&started, &finished, i] {
      started.fetch_add(1);
      // Everyone waits for everyone: the throw below provably happens
      // while all peers are live, not before they were spawned.
      while (started.load() < kThunks) std::this_thread::yield();
      if (i == 1) throw std::runtime_error("boom from thunk 1");
      finished.fetch_add(1);
    });
  }
  try {
    run_thunks_parallel(std::move(thunks));
    FAIL() << "the thunk's exception must resurface on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from thunk 1");
  }
  // Reaching here at all proves every worker joined (an unjoined
  // std::thread would have aborted the process); the non-throwing peers
  // all ran to completion despite the failure.
  EXPECT_EQ(finished.load(), kThunks - 1);

  // Several thunks throwing concurrently: exactly one exception
  // surfaces and the call still returns (joins) cleanly.
  std::vector<std::function<void()>> all_throw;
  for (size_t i = 0; i < kThunks; ++i) {
    all_throw.push_back([] { throw std::runtime_error("many"); });
  }
  EXPECT_THROW(run_thunks_parallel(std::move(all_throw)), std::runtime_error);
}

}  // namespace
}  // namespace mp
