// Tests for the SDN simulator substrate and the backtest machinery.
#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "ndlog/parser.h"
#include "sdn/controller.h"
#include "sdn/topology.h"
#include "sdn/traffic.h"

namespace mp::sdn {
namespace {

TEST(FlowTable, WildcardAndPriority) {
  FlowTable ft;
  FlowEntry coarse;
  coarse.match = {{Field::Dpt, Value(80)}, {Field::Sip, Value::wildcard()}};
  coarse.priority = 0;
  coarse.action = Action::output(1);
  ft.add(coarse);
  FlowEntry fine;
  fine.match = {{Field::Dpt, Value(80)}, {Field::Sip, Value(7)}};
  fine.priority = 5;
  fine.action = Action::output(2);
  ft.add(fine);

  Packet p;
  p.dpt = 80;
  p.sip = 7;
  const FlowRule* hit = ft.lookup(p, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // higher priority wins
  p.sip = 9;
  hit = ft.lookup(p, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);  // wildcard entry
  p.dpt = 53;
  EXPECT_EQ(ft.lookup(p, 0), nullptr);
}

TEST(FlowTable, TieBreaksToFirstInstalled) {
  FlowTable ft;
  FlowEntry a, b;
  a.action = Action::output(1);
  b.action = Action::output(2);
  ft.add(a);
  ft.add(b);
  Packet p;
  EXPECT_EQ(ft.lookup(p, 0)->action.port, 1);
}

TEST(FlowTable, TagVisibility) {
  FlowTable ft;
  FlowEntry e;
  e.action = Action::output(1);
  e.tags = 0b10;
  ft.add(e);
  Packet p;
  EXPECT_EQ(ft.lookup(p, 0, 0b01), nullptr);
  EXPECT_NE(ft.lookup(p, 0, 0b10), nullptr);
}

TEST(Network, DeliversAlongStaticRoutes) {
  Network net;
  net.add_switch(1);
  net.add_switch(2);
  net.link(1, 5, 2, 5);
  net.add_host({1, "H", 42, 0, 2, 1});
  FlowEntry e;
  e.match = {{Field::Dip, Value(42)}};
  e.priority = -1;
  e.action = Action::output(5);
  net.find_switch(1)->table().add(e);
  FlowEntry e2 = e;
  e2.action = Action::output(1);
  net.find_switch(2)->table().add(e2);

  Packet p;
  p.dip = 42;
  net.inject(1, 9, p);
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.stats().per_host.get("H"), 1.0);
}

TEST(Network, MissWithoutControllerDrops) {
  Network net;
  net.add_switch(1);
  Packet p;
  net.inject(1, 1, p);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().packet_ins, 0u);
}

namespace {
class InstallController : public ControllerIface {
 public:
  explicit InstallController(Network& net, int64_t out, bool release)
      : net_(&net), out_(out), release_(release) {}
  void on_packet_in(int64_t sw, int64_t, const Packet& p,
                    eval::TagMask tags) override {
    ++calls;
    FlowEntry e;
    e.match = {{Field::Dpt, Value(p.dpt)}};
    e.action = Action::output(out_);
    e.tags = tags;
    net_->install(sw, e);
    if (release_) net_->packet_out(sw, out_, tags);
  }
  Network* net_;
  int64_t out_;
  bool release_;
  int calls = 0;
};
}  // namespace

TEST(Network, ReactiveInstallAndRelease) {
  Network net;
  net.add_switch(1);
  net.add_host({1, "H", 42, 0, 1, 3});
  InstallController ctrl(net, 3, /*release=*/true);
  net.set_controller(&ctrl);
  Packet p;
  p.dpt = 80;
  net.inject(1, 1, p);  // miss -> install + release -> delivered
  net.inject(1, 1, p);  // hits the entry
  EXPECT_EQ(ctrl.calls, 1);
  EXPECT_EQ(net.stats().delivered, 2u);
  EXPECT_EQ(net.stats().packet_ins, 1u);
  EXPECT_EQ(net.stats().flow_mods, 1u);
}

TEST(Network, ForgottenPacketOutDropsFirstPacket) {
  Network net;
  net.add_switch(1);
  net.add_host({1, "H", 42, 0, 1, 3});
  InstallController ctrl(net, 3, /*release=*/false);
  net.set_controller(&ctrl);
  Packet p;
  p.dpt = 80;
  net.inject(1, 1, p);
  net.inject(1, 1, p);
  EXPECT_EQ(net.stats().dropped, 1u);    // the buffered first packet
  EXPECT_EQ(net.stats().delivered, 1u);  // the second one
}

TEST(Network, ResetKeepsStaticEntriesOnly) {
  Network net;
  net.add_switch(1);
  FlowEntry st;
  st.priority = -1;
  st.action = Action::drop();
  net.find_switch(1)->table().add(st);
  FlowEntry dyn;
  dyn.priority = 0;
  dyn.action = Action::drop();
  net.install(1, dyn);
  EXPECT_EQ(net.find_switch(1)->table().size(), 2u);
  net.reset_dynamic_state();
  EXPECT_EQ(net.find_switch(1)->table().size(), 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

namespace {
// Releases every buffered packet one switch further down a chain (port 2
// leads to the next switch, port 3 of the last switch to the host) and
// never installs an entry, so each hop costs a controller round trip.
class ReleaseOnlyController : public ControllerIface {
 public:
  ReleaseOnlyController(Network& net, int64_t last)
      : net_(&net), last_(last) {}
  void on_packet_in(int64_t sw, int64_t, const Packet&,
                    eval::TagMask tags) override {
    net_->packet_out(sw, sw == last_ ? 3 : 2, tags);
  }
  Network* net_;
  int64_t last_;
};

void expect_conserved(const DeliveryStats& st, size_t injected) {
  EXPECT_EQ(st.delivered + st.dropped + st.external, injected);
}
}  // namespace

TEST(Network, WaveCapAccountsInFlightTagsAsDropped) {
  for (bool tag_mode : {false, true}) {
    SCOPED_TRACE(tag_mode ? "tag mode" : "plain mode");
    constexpr int64_t kSwitches = 12;
    Network net;
    for (int64_t s = 1; s < kSwitches; ++s) net.link(s, 2, s + 1, 1);
    net.add_host({1, "H", 42, 0, kSwitches, 3});
    ReleaseOnlyController ctrl(net, kSwitches);
    net.set_controller(&ctrl);
    const eval::TagMask active = 0b111;
    if (tag_mode) net.set_tag_mode(true, active);
    Packet p;
    p.dip = 42;
    // From switch 1 the packet needs 12 controller waves, more than the
    // cap; from switch 8 it needs 5 and reaches the host.
    for (int i = 0; i < 3; ++i) net.inject(1, 1, p);
    for (int i = 0; i < 2; ++i) net.inject(8, 1, p);
    const size_t tags = tag_mode ? 3 : 1;
    expect_conserved(net.stats(), 5 * tags);
    EXPECT_EQ(net.stats().dropped, 3 * tags);
    EXPECT_EQ(net.stats().delivered, 2 * tags);
    if (tag_mode) {
      for (size_t b = 0; b < 3; ++b) {
        expect_conserved(net.tag_stats(b), 5);
        EXPECT_EQ(net.tag_stats(b).dropped, 3u);
      }
    }
  }
}

namespace {
// A campus replay in tag mode whose candidate worlds diverge: tag 1 drops
// traffic to a few hosts and tag 2 sends it out of the wrong port.
struct TaggedCampus {
  Network net;
  std::vector<Injection> work;
  TaggedCampus() {
    CampusOptions opt;
    opt.total_switches = 20;
    opt.core_count = 6;
    opt.hosts_per_edge = 3;
    build_campus(net, opt);
    const auto& hosts = net.hosts();
    for (size_t i = 0; i < hosts.size(); i += 4) {
      FlowEntry dropper;
      dropper.match = {{Field::Dip, Value(hosts[i].ip)}};
      dropper.priority = 5;
      dropper.tags = 0b010;
      dropper.action = Action::drop();
      net.find_switch(hosts[i].sw)->table().add(dropper);
      FlowEntry misroute = dropper;
      misroute.match.push_back({Field::Dpt, Value(80)});
      misroute.tags = 0b100;
      misroute.action = Action::output(hosts[i].port + 100);
      net.find_switch(hosts[i].sw)->table().add(misroute);
    }
    net.set_tag_mode(true, 0b111);
    work = background_traffic(net, 600, 5);
  }
};

void expect_same_stats(const DeliveryStats& a, const DeliveryStats& b) {
  EXPECT_EQ(a.per_host.counts(), b.per_host.counts());
  EXPECT_EQ(a.per_host_port.counts(), b.per_host_port.counts());
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.external, b.external);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.hops, b.hops);
}
}  // namespace

TEST(Network, StatsFoldOnReadIsIdempotent) {
  TaggedCampus once, often;
  replay(once.net, once.work);
  for (size_t i = 0; i < often.work.size(); ++i) {
    const Injection& inj = often.work[i];
    often.net.inject(inj.sw, inj.port, inj.packet);
    if (i % 97 == 0) {
      often.net.stats();
      for (size_t b = 0; b < 3; ++b) often.net.tag_stats(b);
    }
  }
  const DeliveryStats& agg = once.net.stats();
  EXPECT_GT(agg.delivered, 0u);
  EXPECT_GT(agg.dropped, 0u);
  expect_same_stats(agg, often.net.stats());
  CountDistribution hosts, ports;
  size_t delivered = 0, dropped = 0, external = 0;
  for (size_t b = 0; b < 3; ++b) {
    const DeliveryStats& st = once.net.tag_stats(b);
    expect_same_stats(st, often.net.tag_stats(b));
    for (const auto& [k, v] : st.per_host.counts()) hosts.add(k, v);
    for (const auto& [k, v] : st.per_host_port.counts()) ports.add(k, v);
    delivered += st.delivered;
    dropped += st.dropped;
    external += st.external;
  }
  // The aggregate is the sum over the candidate worlds.
  EXPECT_EQ(agg.per_host.counts(), hosts.counts());
  EXPECT_EQ(agg.per_host_port.counts(), ports.counts());
  EXPECT_EQ(agg.delivered, delivered);
  EXPECT_EQ(agg.dropped, dropped);
  EXPECT_EQ(agg.external, external);
  EXPECT_NE(once.net.tag_stats(0).per_host.counts(),
            once.net.tag_stats(1).per_host.counts());
}

TEST(Topology, BuildsRequestedSize) {
  Network net;
  CampusOptions opt;
  opt.total_switches = 30;
  opt.core_count = 8;
  opt.hosts_per_edge = 3;
  Campus c = build_campus(net, opt);
  EXPECT_EQ(c.app_switches.size(), 4u);
  EXPECT_EQ(c.core_switches.size(), 8u);
  EXPECT_EQ(c.edge_switches.size(), 30u - 12u);
  EXPECT_EQ(c.host_ips.size(), (30u - 12u) * 3u);
  EXPECT_EQ(net.switch_count(), 30u);
  EXPECT_GT(c.static_entries, 0u);
}

TEST(Topology, AllHostPairsAreRoutable) {
  Network net;
  CampusOptions opt;
  opt.total_switches = 24;
  opt.core_count = 6;
  opt.hosts_per_edge = 2;
  build_campus(net, opt);
  const auto& hosts = net.hosts();
  ASSERT_GE(hosts.size(), 4u);
  size_t pairs = 0;
  for (size_t i = 0; i < hosts.size() && pairs < 40; i += 3) {
    for (size_t j = 0; j < hosts.size() && pairs < 40; j += 5) {
      if (i == j) continue;
      Packet p;
      p.sip = hosts[i].ip;
      p.dip = hosts[j].ip;
      net.inject(hosts[i].sw, hosts[i].port, p, false);
      ++pairs;
    }
  }
  EXPECT_EQ(net.stats().delivered, pairs);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(Traffic, DeterministicForSameSeed) {
  Network net;
  build_campus(net, {});
  auto a = background_traffic(net, 100, 7);
  auto b = background_traffic(net, 100, 7);
  auto c = background_traffic(net, 100, 8);
  ASSERT_EQ(a.size(), b.size());
  bool same = true, diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].packet.sip != b[i].packet.sip) same = false;
    if (i < c.size() && a[i].packet.sip != c[i].packet.sip) diff = true;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(diff);
}

TEST(Traffic, IngressCarriesBucketsAndPorts) {
  IngressOptions opt;
  opt.flows = 10;
  opt.packets_per_flow = 3;
  opt.dpt = 53;
  auto v = ingress_traffic(opt);
  EXPECT_EQ(v.size(), 30u);
  for (const auto& inj : v) {
    EXPECT_EQ(inj.packet.dpt, 53);
    EXPECT_GE(inj.packet.bucket, 1);
    EXPECT_LE(inj.packet.bucket, 2);
    EXPECT_EQ(inj.sw, 1);
  }
}

TEST(Recorder, AccountsStorage) {
  Recorder r;
  r.record_ingress(Injection{});
  r.record_ingress(Injection{});
  r.record_ctrl(CtrlMsgKind::PacketIn, 1, 5);
  EXPECT_EQ(r.packet_log_bytes(), 240u);  // 120 B per packet, as in S5.4
  EXPECT_GT(r.ctrl_log_bytes(), 0u);
  r.clear();
  EXPECT_EQ(r.ingress().size(), 0u);
}

// --- backtest ---------------------------------------------------------

TEST(Multiquery, CombinedProgramRestrictsRules) {
  auto base = ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0.");
  repair::RepairCandidate c1;  // modifies r1
  repair::Change ch;
  ch.kind = repair::ChangeKind::ChangeSelConst;
  ch.rule = "r1";
  ch.index = 0;
  ch.side = 1;
  ch.new_value = Value(5);
  c1.changes.push_back(ch);
  repair::RepairCandidate c2;  // inserts a tuple, leaves rules alone
  repair::Change ins;
  ins.kind = repair::ChangeKind::InsertBaseTuple;
  ins.tuple = eval::Tuple{"A", {Value(1), Value(9)}};
  c2.changes.push_back(ins);

  auto combined = backtest::build_backtest_program(base, {c1, c2});
  EXPECT_EQ(combined.candidate_count, 2u);
  EXPECT_EQ(combined.rule_restrict.at("r1"), eval::TagMask{0b10});
  ASSERT_EQ(combined.program.rules.size(), 2u);  // original + tagged copy
  EXPECT_EQ(combined.rule_restrict.at("r1#0"), eval::TagMask{0b01});
  ASSERT_EQ(combined.insertions.size(), 1u);
  EXPECT_EQ(combined.insertions[0].second, eval::TagMask{0b10});
  EXPECT_TRUE(combined.invalid.empty());
}

TEST(Multiquery, InvalidCandidateFlagged) {
  auto base = ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0.");
  repair::RepairCandidate bad;
  repair::Change ch;
  ch.kind = repair::ChangeKind::ChangeSelConst;
  ch.rule = "nope";
  bad.changes.push_back(ch);
  auto combined = backtest::build_backtest_program(base, {bad});
  ASSERT_EQ(combined.invalid.size(), 1u);
}

TEST(Multiquery, ConfigMaskExcludesDeleters) {
  backtest::CombinedProgram cp;
  cp.candidate_count = 3;
  eval::Tuple t{"Cfg", {Value(1)}};
  cp.deletions.emplace_back(t, eval::TagMask{0b010});
  EXPECT_EQ(cp.config_mask(t), eval::TagMask{0b101});
  eval::Tuple other{"Cfg", {Value(2)}};
  EXPECT_EQ(cp.config_mask(other), eval::TagMask{0b111});
}

namespace {
// A fake harness: candidate "good" fixes the symptom with no side
// effects, "loud" fixes it but shifts traffic, "dud" does nothing.
class FakeHarness : public backtest::ReplayHarness {
 public:
  backtest::ReplayOutcome replay_baseline() override {
    backtest::ReplayOutcome o;
    for (int i = 0; i < 20; ++i) {
      o.per_host.add("h" + std::to_string(i), 500);
    }
    o.packet_ins = 10;
    return o;
  }
  backtest::ReplayOutcome replay(const repair::RepairCandidate& c) override {
    backtest::ReplayOutcome o = replay_baseline();
    if (c.description == "good") {
      o.symptom_fixed = true;
      o.per_host.add("victim", 20);
    } else if (c.description == "loud") {
      o.symptom_fixed = true;
      o.per_host.add("victim", 4000);
    }
    return o;
  }
};
}  // namespace

TEST(Backtester, AcceptsQuietEffectiveRejectsLoudAndDud) {
  FakeHarness h;
  repair::RepairCandidate good, loud, dud;
  good.description = "good";
  loud.description = "loud";
  dud.description = "dud";
  backtest::Backtester tester;
  auto report = tester.run(h, {good, loud, dud});
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_TRUE(report.entries[0].accepted);
  EXPECT_TRUE(report.entries[1].effective);
  EXPECT_FALSE(report.entries[1].accepted);
  EXPECT_FALSE(report.entries[2].effective);
  EXPECT_EQ(report.accepted_count, 1u);
  auto ranked = report.ranked_accepted();
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0]->candidate.description, "good");
}

}  // namespace
}  // namespace mp::sdn

// --- property: compiled classifier == linear scan ------------------------

#include "util/rng.h"

namespace mp::sdn {
namespace {

// Reference classifier: a linear scan over the installed entries in rank
// order (priority descending, then install order) using FlowEntry::matches.
// Each entry outputs to its own port, which names it in the results.
struct LinearOracle {
  std::vector<FlowEntry> entries;  // install order

  std::vector<const FlowEntry*> ranked() const {
    std::vector<const FlowEntry*> out;
    for (const FlowEntry& e : entries) out.push_back(&e);
    std::stable_sort(out.begin(), out.end(),
                     [](const FlowEntry* a, const FlowEntry* b) {
                       return a->priority > b->priority;
                     });
    return out;
  }
  const FlowEntry* lookup(const Packet& p, int64_t in_port,
                          eval::TagMask bit) const {
    for (const FlowEntry* e : ranked()) {
      if ((e->tags & bit) != 0 && e->matches(p, in_port)) return e;
    }
    return nullptr;
  }
  eval::TagMask partition(const Packet& p, int64_t in_port, eval::TagMask tags,
                          std::map<int64_t, eval::TagMask>& groups) const {
    for (const FlowEntry* e : ranked()) {
      const eval::TagMask sub = tags & e->tags;
      if (sub == 0 || !e->matches(p, in_port)) continue;
      groups[e->action.port] |= sub;
      tags &= ~sub;
    }
    return tags;
  }
};

// A random entry over a few fields with small value ranges, so that keys
// collide, shapes differ and equal priorities tie across shapes. Fields
// may be wildcards, non-int strings (never match) or repeated with an
// equal or a conflicting value (the latter never matches).
FlowEntry random_entry(Rng& rng, int64_t port, bool wide) {
  const Field fields[] = {Field::Dpt, Field::Sip, Field::Dip, Field::InPort};
  const auto value = [&](Field f) {
    if (f == Field::Dpt) return static_cast<int64_t>(rng.below(3) * 27 + 26);
    return static_cast<int64_t>(rng.below(wide ? 24 : 3));
  };
  FlowEntry e;
  for (Field f : fields) {
    if (!rng.chance(0.5)) continue;
    if (rng.chance(0.15)) {
      e.match.push_back({f, Value::wildcard()});
    } else if (rng.chance(0.04)) {
      e.match.push_back({f, Value::str("x")});
    } else {
      const int64_t v = value(f);
      e.match.push_back({f, Value(v)});
      if (rng.chance(0.1)) e.match.push_back({f, Value(v)});
      if (rng.chance(0.04)) e.match.push_back({f, Value(v + 1)});
    }
  }
  if (e.match.size() > 1)
    std::swap(e.match.front(), e.match[rng.below(e.match.size())]);
  e.priority = static_cast<int>(rng.below(4)) - 2;
  e.tags = rng.chance(0.2) ? eval::kAllTags : (rng.next() | 1);
  e.action = Action::output(port);
  return e;
}

class PartitionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProperty, MatchesLinearScan) {
  Rng rng(GetParam());
  const bool wide = rng.chance(0.3);
  FlowTable ft;
  LinearOracle oracle;
  int64_t port = 0;
  auto install = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      oracle.entries.push_back(random_entry(rng, port++, wide));
      ft.add(oracle.entries.back());
    }
  };
  auto check = [&] {
    ASSERT_EQ(ft.size(), oracle.entries.size());
    for (int trial = 0; trial < 32; ++trial) {
      Packet p;
      p.dpt = static_cast<int64_t>(rng.below(3) * 27 + 26);
      p.sip = static_cast<int64_t>(rng.below(wide ? 24 : 3));
      p.dip = static_cast<int64_t>(rng.below(wide ? 24 : 3));
      const int64_t in_port = static_cast<int64_t>(rng.below(wide ? 24 : 3));
      const eval::TagMask tags = rng.chance(0.2) ? eval::kAllTags : rng.next();
      std::map<int64_t, eval::TagMask> want;
      const eval::TagMask want_missing =
          oracle.partition(p, in_port, tags, want);
      std::map<int64_t, eval::TagMask> got;
      const eval::TagMask missing = ft.partition(
          p, in_port, tags, [&](const FlowRule& r, eval::TagMask sub) {
            EXPECT_EQ(got.count(r.action.port), 0u)
                << "one callback per winning rule";
            got[r.action.port] |= sub;
          });
      EXPECT_EQ(missing, want_missing);
      EXPECT_EQ(got, want);
      for (size_t b = 0; b < eval::kMaxTags; ++b) {
        const eval::TagMask bit = eval::TagMask{1} << b;
        const FlowEntry* e = oracle.lookup(p, in_port, bit);
        const FlowRule* r = ft.lookup(p, in_port, bit);
        ASSERT_EQ(r == nullptr, e == nullptr) << "tag " << b;
        if (r != nullptr) {
          EXPECT_EQ(r->action.port, e->action.port);
        }
      }
    }
  };
  install(3 + rng.below(wide ? 60 : 14));
  check();
  // Static rules (priority < 0) survive a reset in install order; rules
  // added afterwards rank behind them on ties.
  ft.reset_dynamic_state();
  std::erase_if(oracle.entries,
                [](const FlowEntry& e) { return e.priority >= 0; });
  check();
  install(1 + rng.below(10));
  check();
}

INSTANTIATE_TEST_SUITE_P(RandomTables, PartitionProperty,
                         ::testing::Range<uint64_t>(1, 101));

}  // namespace
}  // namespace mp::sdn
