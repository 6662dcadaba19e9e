// The backtester's KS test (backtest::compare: integer per-host tallies
// walked in host-number order) pinned bit for bit against the
// string-keyed reference in ks_oracle.h: statistic, critical value,
// p-value and verdict. Pinned on every candidate outcome of the five
// scenarios, sequential and joint, and on seeded random pairs with ties,
// zero tallies, hosts on one side only and empty sides. Labelled
// `oracle`: tools/check.sh runs that label explicitly.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backtest/metrics.h"
#include "scenarios/pipeline.h"
#include "scenarios/scenario.h"
#include "tests/ks_oracle.h"
#include "util/rng.h"

namespace mp {
namespace {

using backtest::ReplayOutcome;

void expect_bitwise(const KsResult& got, const KsResult& want,
                    const std::string& where) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.statistic),
            std::bit_cast<uint64_t>(want.statistic))
      << where << ": D " << got.statistic << " vs " << want.statistic;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.critical),
            std::bit_cast<uint64_t>(want.critical))
      << where << ": critical";
  EXPECT_EQ(std::bit_cast<uint64_t>(got.pvalue),
            std::bit_cast<uint64_t>(want.pvalue))
      << where << ": p-value";
  EXPECT_EQ(got.significant, want.significant) << where << ": verdict";
}

// compare(a, b) against the reference over the outcomes' name-keyed
// distributions, both ways round.
void expect_pinned(const ReplayOutcome& a, const ReplayOutcome& b,
                   const std::string& where) {
  const oracle::CountDistribution da = oracle::per_host(a);
  const oracle::CountDistribution db = oracle::per_host(b);
  expect_bitwise(backtest::compare(a, b), oracle::ks_test(da, db), where);
  expect_bitwise(backtest::compare(b, a), oracle::ks_test(db, da),
                 where + " (swapped)");
}

TEST(KsOracle, EveryCandidateOutcomeOfTheFiveScenarios) {
  size_t pins = 0;
  for (const scenario::Scenario& s : scenario::all_scenarios()) {
    scenario::PipelineOptions opt;
    opt.multiquery = false;
    const std::vector<repair::RepairCandidate> cands =
        scenario::run_pipeline(s, opt).generation.candidates;
    ASSERT_FALSE(cands.empty()) << s.id;
    scenario::ScenarioHarness h(s);
    const ReplayOutcome baseline = h.replay_baseline();
    ASSERT_GT(baseline.delivered(), 0u) << s.id;
    const std::vector<ReplayOutcome> joint = h.replay_joint(cands);
    ASSERT_EQ(joint.size(), cands.size()) << s.id;
    for (size_t i = 0; i < cands.size(); ++i) {
      const std::string where = s.id + " " + cands[i].description;
      const ReplayOutcome seq = h.replay(cands[i]);
      expect_pinned(baseline, seq, where + " sequential");
      expect_pinned(baseline, joint[i], where + " joint");
      expect_pinned(seq, joint[i], where + " sequential vs joint");
      pins += 3;
    }
    expect_pinned(baseline, baseline, s.id + " baseline");
  }
  EXPECT_GE(pins, 5u * 3u * 8u);
}

// A random host list: names from a small pool, so some repeat, in an
// add order that is not name order.
std::vector<sdn::Host> random_hosts(Rng& rng) {
  static const char* const kNames[] = {"E100", "E1000", "E101", "E99",
                                       "H2",   "H20",   "H20b", "H17",
                                       "DNS",  "G",     "A",    "b",
                                       "B",    "h1",    "h10",  "h9"};
  const size_t n = rng.chance(0.05) ? 0 : 1 + rng.below(24);
  std::vector<sdn::Host> hosts;
  for (size_t i = 0; i < n; ++i) {
    sdn::Host h;
    h.id = static_cast<int64_t>(i) + 1;
    h.name = kNames[rng.below(std::size(kNames))];
    if (rng.chance(0.5)) h.name += std::to_string(rng.below(300));
    hosts.push_back(h);
  }
  return hosts;
}

// Per-host packet counts with ties and zeros; `silent` hosts deliver
// nothing on this side.
std::vector<uint64_t> random_counts(Rng& rng, size_t hosts, double silent) {
  static const uint64_t kValues[] = {1, 2, 5, 5, 40, 100, 100, 1000};
  std::vector<uint64_t> counts(hosts, 0);
  for (uint64_t& c : counts) {
    if (rng.chance(silent)) continue;
    c = rng.chance(0.5) ? kValues[rng.below(std::size(kValues))]
                        : rng.below(2000000);
  }
  return counts;
}

// The same counts two ways: an outcome tallied over `names`, and the
// name-keyed reference distribution built host by host (zeros never
// enter it, as no delivery adds a key).
struct Side {
  ReplayOutcome outcome;
  oracle::CountDistribution reference;
};

Side make_side(const std::vector<sdn::Host>& hosts,
               const std::shared_ptr<const sdn::HostNames>& names,
               const std::vector<uint64_t>& counts, bool untallied) {
  Side side;
  if (!untallied) {
    side.outcome.hosts = names;
    side.outcome.per_host.assign(names->size(), 0);
  }
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (counts[i] == 0) continue;
    side.outcome.per_host[names->number(hosts[i].name)] += counts[i];
    side.reference.add(hosts[i].name, static_cast<double>(counts[i]));
  }
  return side;
}

TEST(KsOracle, SeededRandomPairs) {
  constexpr uint64_t kSeeds = 1200;
  size_t significant = 0, empty_sides = 0, one_sided = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    const std::vector<sdn::Host> hosts = random_hosts(rng);
    const auto names = std::make_shared<const sdn::HostNames>(hosts);
    // Half the pairs number their sides apart, as e2ebench's separately
    // built worlds do: equal names, different tables.
    const auto other = rng.chance(0.5)
                           ? std::make_shared<const sdn::HostNames>(hosts)
                           : names;
    std::vector<uint64_t> a = random_counts(rng, hosts.size(), 0.3);
    std::vector<uint64_t> b = rng.chance(0.3)
                                  ? a
                                  : random_counts(rng, hosts.size(), 0.3);
    // Nudge a few hosts so near-equal pairs land on both sides of the
    // critical value.
    for (size_t i = 0; i < b.size(); ++i) {
      if (rng.chance(0.1)) b[i] += rng.below(50);
    }
    bool untallied_a = false, untallied_b = false;
    if (rng.chance(0.08)) {
      a.assign(hosts.size(), 0);
      untallied_a = rng.chance(0.5);
    }
    if (rng.chance(0.08)) {
      b.assign(hosts.size(), 0);
      untallied_b = rng.chance(0.5);
    }
    const Side sa = make_side(hosts, names, a, untallied_a);
    const Side sb = make_side(hosts, other, b, untallied_b);
    const std::string where = "seed " + std::to_string(seed);
    const KsResult want = oracle::ks_test(sa.reference, sb.reference);
    expect_bitwise(backtest::compare(sa.outcome, sb.outcome), want, where);
    expect_bitwise(backtest::compare(sb.outcome, sa.outcome),
                   oracle::ks_test(sb.reference, sa.reference),
                   where + " (swapped)");
    significant += want.significant;
    empty_sides += sa.reference.counts().empty() ||
                   sb.reference.counts().empty();
    for (size_t i = 0; i < hosts.size(); ++i) {
      if ((a[i] == 0) != (b[i] == 0)) {
        ++one_sided;
        break;
      }
    }
  }
  // The pairs reach every case the pin is about.
  EXPECT_GT(significant, kSeeds / 10);
  EXPECT_LT(significant, kSeeds - kSeeds / 10);
  EXPECT_GT(empty_sides, kSeeds / 20);
  EXPECT_GT(one_sided, kSeeds / 2);
}

TEST(KsOracle, DifferentHostNamesAreRejected) {
  const auto names = std::make_shared<const sdn::HostNames>(
      std::vector<sdn::Host>{{1, "A", 0, 0, 0, 0}, {2, "B", 0, 0, 0, 0}});
  const auto renamed = std::make_shared<const sdn::HostNames>(
      std::vector<sdn::Host>{{1, "A", 0, 0, 0, 0}, {2, "C", 0, 0, 0, 0}});
  ReplayOutcome a, b, none;
  a.hosts = names;
  a.per_host = {3, 4};
  b.hosts = renamed;
  b.per_host = {3, 4};
  EXPECT_THROW(backtest::compare(a, b), std::invalid_argument);
  // An outcome with no tallies (an invalid candidate's) is no deliveries.
  expect_bitwise(backtest::compare(a, none),
                 oracle::ks_test(oracle::per_host(a), {}), "untallied");
}

}  // namespace
}  // namespace mp
