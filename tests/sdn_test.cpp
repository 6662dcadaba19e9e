// Tests for the SDN simulator substrate and the backtest machinery.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "ndlog/parser.h"
#include "sdn/controller.h"
#include "sdn/topology.h"
#include "sdn/traffic.h"
#include "tests/memo_reference.h"

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
  EXPECT_EQ(net.stats().delivered(), 1u);
  const DeliveryStats& st = net.stats();
  EXPECT_EQ(st.per_host[st.hosts->number("H")], 1u);
  EXPECT_EQ(st.delivered("H", 0), 1u);
  EXPECT_EQ(st.delivered("H", 80), 0u);
  EXPECT_EQ(st.delivered("nobody", 0), 0u);
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
  EXPECT_EQ(net.stats().delivered(), 2u);
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
  EXPECT_EQ(net.stats().delivered(), 1u);  // the second one
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
  EXPECT_EQ(st.delivered() + st.dropped + st.external, injected);
}
}  // namespace

// Two tag groups circle a two-switch loop. When the 4096-hop budget runs
// out, every group still in flight drops, not only the first one popped.
TEST(Network, HopCapDropsEveryGroupInFlight) {
  Network net;
  net.link(1, 2, 2, 1);
  for (const eval::TagMask tags : {eval::TagMask{0b01}, eval::TagMask{0b10}}) {
    FlowEntry loop;
    loop.tags = tags;
    loop.action = Action::output(2);
    net.find_switch(1)->table().add(loop);
  }
  FlowEntry back;
  back.action = Action::output(1);
  net.find_switch(2)->table().add(back);
  net.set_tag_mode(true, 0b11);
  net.inject(1, 9, Packet{});
  expect_conserved(net.stats(), 2);
  EXPECT_EQ(net.stats().dropped, 2u);
  EXPECT_EQ(net.stats().hops, 4096u);
  for (size_t b = 0; b < 2; ++b) EXPECT_EQ(net.tag_stats(b).dropped, 1u);
}

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
    EXPECT_EQ(net.stats().delivered(), 2 * tags);
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

void expect_same_stats(const DeliveryStats& a, const DeliveryStats& b,
                       const std::string& where) {
  memo_test::expect_same_tallies(a, b, where);
  EXPECT_EQ(a.delivered(), b.delivered()) << where;
  EXPECT_EQ(a.dropped, b.dropped) << where;
  EXPECT_EQ(a.external, b.external) << where;
  EXPECT_EQ(a.packet_ins, b.packet_ins) << where;
  EXPECT_EQ(a.hops, b.hops) << where;
}
}  // namespace

// Deliveries are tallied as they happen, once per world: reading the
// statistics mid-replay changes nothing, and in tag mode the aggregate is
// the sum over the active tags, per host and per (host, dpt).
TEST(Network, TagTalliesSumToTheAggregateAndReadsChangeNothing) {
  TaggedCampus once, often;
  replay(once.net, once.work);
  for (size_t i = 0; i < often.work.size(); ++i) {
    const Injection& inj = often.work[i];
    often.net.inject(inj.sw, inj.port, inj.packet);
    if (i % 97 == 0) {
      // Copies, as outcome_from_stats takes them mid-run.
      const DeliveryStats mid = often.net.stats();
      EXPECT_EQ(mid.delivered() + mid.dropped + mid.external, 3 * (i + 1));
      for (size_t b = 0; b < 3; ++b) {
        const DeliveryStats tag = often.net.tag_stats(b);
        EXPECT_EQ(tag.delivered() + tag.dropped + tag.external, i + 1);
      }
    }
  }
  const DeliveryStats& agg = once.net.stats();
  ASSERT_NE(agg.hosts, nullptr);
  EXPECT_GT(agg.delivered(), 0u);
  EXPECT_GT(agg.dropped, 0u);
  expect_same_stats(agg, often.net.stats(), "aggregate");
  std::vector<uint64_t> hosts(agg.hosts->size(), 0);
  std::map<std::pair<uint32_t, int64_t>, uint64_t> ports;
  size_t delivered = 0, dropped = 0, external = 0;
  for (size_t b = 0; b < 3; ++b) {
    const DeliveryStats& st = once.net.tag_stats(b);
    expect_same_stats(st, often.net.tag_stats(b), "tag " + std::to_string(b));
    // Every tag tallies over the world's numbering and keys.
    EXPECT_EQ(st.hosts, agg.hosts);
    ASSERT_EQ(st.per_host.size(), hosts.size());
    ASSERT_EQ(st.per_host_port.size(), agg.per_host_port.size());
    for (size_t h = 0; h < hosts.size(); ++h) hosts[h] += st.per_host[h];
    for (const auto& [key, n] : memo_test::port_tallies(st)) ports[key] += n;
    delivered += st.delivered();
    dropped += st.dropped;
    external += st.external;
  }
  EXPECT_EQ(agg.per_host, hosts);
  EXPECT_EQ(memo_test::port_tallies(agg), ports);
  EXPECT_EQ(agg.delivered(), delivered);
  EXPECT_EQ(agg.dropped, dropped);
  EXPECT_EQ(agg.external, external);
  EXPECT_NE(once.net.tag_stats(0).per_host, once.net.tag_stats(1).per_host);
  // A tag that is not active tallies nothing.
  EXPECT_TRUE(once.net.tag_stats(3).per_host.empty());
}

// A self-built network numbers its hosts at its first delivery, by
// distinct name in byte order; from then on add_host throws.
TEST(Network, HostsAreNumberedByNameAtTheFirstDelivery) {
  Network net;
  net.add_switch(1);
  net.add_host({7, "b", 41, 0, 1, 3});
  net.add_host({8, "B", 42, 0, 1, 4});
  net.add_host({9, "a", 43, 0, 1, 5});
  net.add_host({10, "b", 44, 0, 1, 6});  // shares b's number
  FlowEntry e;
  e.match = {{Field::Dip, Value(44)}};
  e.action = Action::output(6);
  net.find_switch(1)->table().add(e);
  EXPECT_EQ(net.stats().hosts, nullptr);
  net.add_host({11, "c", 45, 0, 1, 7});  // no delivery yet: allowed
  Packet p;
  p.dip = 44;
  p.dpt = 80;
  net.inject(1, 9, p);
  const DeliveryStats& st = net.stats();
  ASSERT_NE(st.hosts, nullptr);
  ASSERT_EQ(st.hosts->size(), 4u);
  EXPECT_EQ(st.hosts->name(0), "B");
  EXPECT_EQ(st.hosts->name(1), "a");
  EXPECT_EQ(st.hosts->name(2), "b");
  EXPECT_EQ(st.hosts->name(3), "c");
  EXPECT_EQ(st.hosts->number_of_id(7), 2u);
  EXPECT_EQ(st.hosts->number_of_id(10), 2u);
  EXPECT_EQ(st.hosts->number("zz"), 4u);
  EXPECT_EQ(st.per_host, (std::vector<uint64_t>{0, 0, 1, 0}));
  EXPECT_EQ(st.delivered("b", 80), 1u);
  EXPECT_THROW(net.add_host({12, "d", 46, 0, 1, 8}), std::logic_error);
  EXPECT_EQ(net.hosts().size(), 5u);
  EXPECT_EQ(net.find_switch(1)->peer(8), nullptr);
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
      net.inject(hosts[i].sw, hosts[i].port, p);
      ++pairs;
    }
  }
  EXPECT_EQ(net.stats().delivered(), pairs);
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
  // The packet log is derived from the clock, one entry per injected
  // packet; the recorder keeps only control-plane messages.
  Network net;
  net.add_switch(1);
  net.inject(1, 9, Packet{});
  net.inject(1, 9, Packet{});
  EXPECT_EQ(net.now(), 2u);
  EXPECT_EQ(net.packet_log_bytes(), 240u);  // 120 B per packet, as in S5.4
  const size_t ctrl_bytes = net.recorder().ctrl_log_bytes();
  net.recorder().record_ctrl(CtrlMsgKind::PacketIn, 1, 5);
  EXPECT_GT(net.recorder().ctrl_log_bytes(), ctrl_bytes);
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
  FakeHarness() {
    std::vector<Host> hosts;
    for (int i = 0; i < 20; ++i) {
      hosts.push_back({i, "h" + std::to_string(i), 0, 0, 0, 0});
    }
    hosts.push_back({20, "victim", 0, 0, 0, 0});
    names_ = std::make_shared<const HostNames>(hosts);
  }
  backtest::ReplayOutcome replay_baseline() override {
    backtest::ReplayOutcome o;
    o.hosts = names_;
    o.per_host.assign(names_->size(), 0);
    for (int i = 0; i < 20; ++i) {
      o.per_host[names_->number("h" + std::to_string(i))] = 500;
    }
    o.packet_ins = 10;
    return o;
  }
  backtest::ReplayOutcome replay(const repair::RepairCandidate& c) override {
    backtest::ReplayOutcome o = replay_baseline();
    const uint32_t victim = names_->number("victim");
    if (c.description == "good") {
      o.symptom_fixed = true;
      o.per_host[victim] += 20;
    } else if (c.description == "loud") {
      o.symptom_fixed = true;
      o.per_host[victim] += 4000;
    }
    return o;
  }

 private:
  std::shared_ptr<const HostNames> names_;
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

// Two layers, as a world on a WorldBase classifies: a static table and a
// dynamic one whose rules rank as if installed after every static rule.
// The oracle scans both in that concatenated install order, so across the
// layers equal priorities go to the static rule. Both layers draw
// priorities from -2..1 (dynamic installs at negative priority, ties
// across layers) and partial tag masks, and the dynamic layer grows after
// lookups.
TEST_P(PartitionProperty, MatchesLinearScan) {
  Rng rng(GetParam());
  const bool wide = rng.chance(0.3);
  FlowTable ft;
  FlowTable dynamic;
  const FlowTable* later = nullptr;
  LinearOracle oracle;
  int64_t port = 0;
  auto install = [&](FlowTable& table, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      oracle.entries.push_back(random_entry(rng, port++, wide));
      table.add(oracle.entries.back());
    }
  };
  auto check = [&] {
    ASSERT_EQ(ft.size() + (later != nullptr ? later->size() : 0),
              oracle.entries.size());
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
          p, in_port, tags,
          [&](const FlowRule& r, eval::TagMask sub) {
            EXPECT_EQ(got.count(r.action.port), 0u)
                << "one callback per winning rule";
            got[r.action.port] |= sub;
          },
          later);
      EXPECT_EQ(missing, want_missing);
      EXPECT_EQ(got, want);
      for (size_t b = 0; b < eval::kMaxTags; ++b) {
        const eval::TagMask bit = eval::TagMask{1} << b;
        const FlowEntry* e = oracle.lookup(p, in_port, bit);
        const FlowRule* r = ft.lookup(p, in_port, bit, later);
        ASSERT_EQ(r == nullptr, e == nullptr) << "tag " << b;
        if (r != nullptr) {
          EXPECT_EQ(r->action.port, e->action.port);
        }
      }
    }
  };
  install(ft, 3 + rng.below(wide ? 60 : 14));
  check();
  // Rules added later rank behind the earlier ones on ties.
  install(ft, 1 + rng.below(10));
  check();
  // An empty dynamic layer changes nothing; then it grows between lookups.
  later = &dynamic;
  check();
  install(dynamic, 1 + rng.below(10));
  check();
  install(dynamic, 1 + rng.below(10));
  check();
}

// The rank across layers, pinned by hand: priority first, the static rule
// on equal priority, and per tag where the static rule is invisible.
TEST(FlowTable, LaterLayerRanksAfterOnEqualPriority) {
  FlowTable fixed;
  FlowTable dynamic;
  FlowEntry route;
  route.match = {{Field::Dip, Value(42)}};
  route.priority = -1;
  route.tags = 0b01;
  route.action = Action::output(1);
  fixed.add(route);
  FlowEntry tie = route;
  tie.tags = eval::kAllTags;
  tie.action = Action::output(2);
  dynamic.add(tie);
  Packet p;
  p.dip = 42;
  EXPECT_EQ(fixed.lookup(p, 0, 0b01, &dynamic)->action.port, 1);
  EXPECT_EQ(fixed.lookup(p, 0, 0b10, &dynamic)->action.port, 2);
  FlowEntry low = tie;
  low.match.clear();
  low.priority = -5;
  low.action = Action::output(3);
  dynamic.add(low);
  p.dip = 7;
  EXPECT_EQ(fixed.lookup(p, 0, 0b01, &dynamic)->action.port, 3);
  FlowEntry high = tie;
  high.priority = 0;
  high.action = Action::output(4);
  dynamic.add(high);
  p.dip = 42;
  EXPECT_EQ(fixed.lookup(p, 0, 0b01, &dynamic)->action.port, 4);
  std::map<int64_t, eval::TagMask> got;
  EXPECT_EQ(fixed.partition(
                p, 0, 0b111,
                [&](const FlowRule& r, eval::TagMask sub) {
                  got[r.action.port] |= sub;
                },
                &dynamic),
            0u);
  EXPECT_EQ(got, (std::map<int64_t, eval::TagMask>{{4, 0b111}}));
  EXPECT_EQ(fixed.size(), 1u);
  EXPECT_EQ(dynamic.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(RandomTables, PartitionProperty,
                         ::testing::Range<uint64_t>(1, 101));

// --- static-path memo (src/sdn/README.md, "Static-path memo") ---------------

// Switches 1..n in a chain (port 1 toward switch i-1, port 2 toward i+1),
// with `hosts` attached on port 3 and static dip routes to them.
void build_chain(Network& net, int64_t n, const std::vector<Host>& hosts) {
  for (int64_t i = 1; i <= n; ++i) net.add_switch(i);
  for (int64_t i = 1; i < n; ++i) net.link(i, 2, i + 1, 1);
  std::vector<int64_t> ips;
  for (const Host& h : hosts) {
    net.add_host(h);
    ips.push_back(h.ip);
  }
  install_host_routes(net, ips);
}

Injection send(int64_t sw, int64_t dip) {
  Injection inj;
  inj.sw = sw;
  inj.port = 9;
  inj.packet.dip = dip;
  inj.packet.dpt = 80;
  return inj;
}

// A WorldBase over build_chain(n, hosts).
std::shared_ptr<const WorldBase> chain_base(int64_t n,
                                            const std::vector<Host>& hosts) {
  Network net;
  build_chain(net, n, hosts);
  return std::make_shared<const WorldBase>(std::move(net));
}

// A self-built world over build_chain(n, hosts): the walking reference.
Network walking_chain(int64_t n, const std::vector<Host>& hosts) {
  Network net;
  build_chain(net, n, hosts);
  return net;
}

TEST(PathMemo, OnlyWorldsOnItsBaseFillAndUseIt) {
  const std::vector<Host> hosts = {{1, "A", 41, 0, 1, 3}, {2, "B", 42, 0, 4, 3}};
  const std::vector<Injection> work = {send(1, 42), send(4, 41), send(2, 42)};
  const auto base = chain_base(4, hosts);
  PathMemo memo;
  // A self-built world, or a world in tag mode, fills nothing.
  Network self_built = walking_chain(4, hosts);
  self_built.record_batch(work, memo);
  EXPECT_EQ(memo.size(), work.size());
  EXPECT_EQ(memo.entries(), 0u);
  Network tagged(base);
  tagged.set_tag_mode(true, 0b11);
  tagged.record_batch(work, memo);
  EXPECT_EQ(memo.entries(), 0u);

  Network filler(base);
  filler.record_batch(work, memo);
  EXPECT_EQ(memo.entries(), work.size());
  EXPECT_EQ(filler.packet_log_bytes(), work.size() * kPacketLogEntryBytes);

  // Replays `memo` in `world` and walks a self-built chain, both prepared
  // by `prepare`; returns the world's memo hits and walks.
  auto replay_both = [&](Network world, auto&& prepare) {
    Network walk_world = walking_chain(4, hosts);
    prepare(world);
    prepare(walk_world);
    world.replay_batch(work, memo);
    replay(walk_world, work);
    memo_test::expect_same_world(world, walk_world, 0, "chain");
    return std::pair{world.memo_hits(), world.memo_walks()};
  };
  const auto nothing = [](Network&) {};
  EXPECT_EQ(replay_both(Network(base), nothing),
            std::pair(work.size(), size_t{0}));
  // Self-built, or on another base even if built alike: the memo is not
  // used.
  EXPECT_EQ(replay_both(walking_chain(4, hosts), nothing),
            std::pair(size_t{0}, size_t{0}));
  EXPECT_EQ(replay_both(Network(chain_base(4, hosts)), nothing),
            std::pair(size_t{0}, size_t{0}));
  // An install marks its switch dirty at any priority, even one that ranks
  // below every static rule; the packets through switch 1 walk.
  EXPECT_EQ(replay_both(Network(base),
                        [](Network& net) {
                          FlowEntry low;
                          low.priority = -5;
                          low.action = Action::drop();
                          net.install(1, low);
                        }),
            std::pair(size_t{1}, size_t{2}));
}

// A memo is bound to the base it was filled on, not to a switch count:
// base B has A's switches but its hosts sit elsewhere, so booking A's
// paths in a world on B would book A's hops, not B's.
TEST(PathMemo, AnotherBaseOfTheSameSizeWalks) {
  const std::vector<Host> at_ends = {{1, "A", 41, 0, 1, 3},
                                     {2, "B", 42, 0, 4, 3}};
  const std::vector<Host> inside = {{1, "A", 41, 0, 2, 3},
                                    {2, "B", 42, 0, 3, 3}};
  const std::vector<Injection> work = {send(1, 42), send(4, 41), send(2, 42),
                                       send(3, 41)};
  const auto base_a = chain_base(4, at_ends);
  const auto base_b = chain_base(4, inside);
  ASSERT_EQ(base_a->net().switch_count(), base_b->net().switch_count());
  PathMemo memo;
  Network filler(base_a);
  filler.record_batch(work, memo);
  EXPECT_EQ(memo.entries(), work.size());

  Network on_b(base_b);
  on_b.replay_batch(work, memo);
  Network walk_b = walking_chain(4, inside);
  replay(walk_b, work);
  memo_test::expect_same_world(on_b, walk_b, 0, "world on base B");
  EXPECT_EQ(on_b.memo_hits() + on_b.memo_walks(), 0u);
  EXPECT_NE(on_b.stats().hops, filler.stats().hops);
}

TEST(PathMemo, LongPathsAndLargeHostIdsAreNotMemoized) {
  // A slot holds 6 bits of hops and 16 bits of host id.
  const std::vector<Host> hosts = {{70000, "far-id", 41, 0, 1, 3},
                                   {7, "B", 42, 0, 66, 3}};
  const std::vector<Injection> work = {send(1, 42), send(2, 41),
                                       send(60, 42)};
  const auto base = chain_base(66, hosts);
  PathMemo memo;
  Network filler(base);
  filler.record_batch(work, memo);
  EXPECT_EQ(filler.stats().delivered(), 3u);
  EXPECT_EQ(memo.entries(), 1u);  // only the 7-hop path to host 7

  Network memo_world(base);
  Network walk_world = walking_chain(66, hosts);
  memo_world.replay_batch(work, memo);
  replay(walk_world, work);
  memo_test::expect_same_world(memo_world, walk_world, 0, "long chain");
  EXPECT_EQ(memo_world.memo_hits(), 1u);
  EXPECT_EQ(memo_world.stats().hops, 66u + 2u + 7u);
}

TEST(PathMemo, HitBooksEveryActiveTag) {
  const std::vector<Host> hosts = {{1, "A", 41, 0, 1, 3}, {2, "B", 42, 0, 3, 3}};
  const std::vector<Injection> work = {send(1, 42), send(3, 41), send(2, 43)};
  const auto base = chain_base(3, hosts);
  PathMemo memo;
  Network filler(base);
  filler.record_batch(work, memo);
  Network memo_world(base);
  Network walk_world = walking_chain(3, hosts);
  for (Network* net : {&memo_world, &walk_world}) {
    net->set_tag_mode(true, 0b1011);
  }
  memo_world.replay_batch(work, memo);
  replay(walk_world, work);
  memo_test::expect_same_world(memo_world, walk_world, 4, "tagged chain");
  // The unrouted dip misses at S2, so its walk is not memoized.
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_EQ(memo_world.memo_hits(), 2u);
  EXPECT_EQ(memo_world.stats().delivered(), 2u * 3u);
  EXPECT_EQ(memo_world.tag_stats(2).delivered(), 0u);
}

// A random network for the memo property: up to 47 switches (dense ids
// past 39 share a signature bit) in a random tree plus chords, hosts on
// random switches, an external uplink, static dip routes at priority -1
// with some destinations left unrouted, and, like Q5's wire_app, a few
// priority -2 defaults toward the tree root. Port 1 of every switch but
// the root faces its tree parent.
std::vector<int64_t> build_random_net(Network& net, uint64_t seed) {
  Rng rng(seed);
  const size_t n = 2 + rng.below(46);
  std::vector<int64_t> next_port(n, 0);
  auto id = [](size_t i) { return static_cast<int64_t>(100 + 7 * i); };
  for (size_t i = 0; i < n; ++i) net.add_switch(id(i));
  for (size_t i = 1; i < n; ++i) {
    const size_t j = rng.below(i);
    net.link(id(i), ++next_port[i], id(j), ++next_port[j]);
  }
  for (size_t c = rng.below(4); c > 0; --c) {
    const size_t a = rng.below(n);
    const size_t b = rng.below(n);
    if (a != b) net.link(id(a), ++next_port[a], id(b), ++next_port[b]);
  }
  net.external(id(0), ++next_port[0]);
  std::vector<int64_t> ips;
  for (size_t k = 0, hosts = 2 + rng.below(20); k < hosts; ++k) {
    const size_t i = rng.below(n);
    Host h;
    h.id = static_cast<int64_t>(k + 1);
    h.ip = static_cast<int64_t>(1000 + k);
    h.name = "h" + std::to_string(k);
    h.sw = id(i);
    h.port = ++next_port[i];
    net.add_host(h);
    ips.push_back(h.ip);
  }
  std::vector<int64_t> routed = ips;
  routed.resize(routed.size() - rng.below(routed.size() / 3 + 1));
  install_host_routes(net, routed);
  for (size_t d = rng.below(3); d > 0; --d) {
    const size_t i = rng.below(n);
    FlowEntry up;
    up.priority = -2;
    up.action = i == 0 ? Action::drop() : Action::output(1);
    net.find_switch(id(i))->table().add(up);
  }
  return ips;
}

// On every PacketIn: installs a route for the missed destination at a
// random priority (negative ones too), often a priority-5 diversion for
// another destination on any switch, memoized paths included, and
// releases most packets. Deterministic in its seed and the PacketIns.
class ChurnController : public ControllerIface {
 public:
  ChurnController(Network& net, uint64_t seed, std::vector<int64_t> ips)
      : net_(net), rng_(seed), ips_(std::move(ips)), ids_(net.switch_ids()) {}
  void on_packet_in(int64_t sw, int64_t, const Packet& p,
                    eval::TagMask tags) override {
    const int priorities[] = {-3, -1, 0, 2};
    FlowEntry route;
    route.match = {{Field::Dip, Value(p.dip)}};
    route.priority = priorities[rng_.below(4)];
    route.tags = tags;
    route.action = rng_.chance(0.3) ? Action::drop() : Action::output(1);
    net_.install(sw, route);
    if (rng_.chance(0.6)) {
      FlowEntry divert;
      divert.match = {{Field::Dip, Value(ips_[rng_.below(ips_.size())])}};
      divert.priority = 5;
      divert.tags = rng_.chance(0.5) ? eval::kAllTags : rng_.next();
      divert.action = rng_.chance(0.5) ? Action::drop() : Action::output(1);
      net_.install(ids_[rng_.below(ids_.size())], divert);
    }
    if (rng_.chance(0.7)) net_.packet_out(sw, 1, tags);
  }

 private:
  Network& net_;
  Rng rng_;
  std::vector<int64_t> ips_;
  std::vector<int64_t> ids_;
};

std::vector<Injection> random_work(const Network& net,
                                   const std::vector<int64_t>& ips,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Injection> work(300);
  for (Injection& inj : work) {
    const Host& src = net.hosts()[rng.below(net.hosts().size())];
    inj.sw = src.sw;
    inj.port = src.port;
    inj.packet.sip = src.ip;
    inj.packet.dip = rng.chance(0.05) ? 9999 : ips[rng.below(ips.size())];
    inj.packet.dpt = rng.chance(0.5) ? 53 : 80;
  }
  return work;
}

// Every rule of every switch of `net`, counted.
size_t rule_count(const Network& net) {
  size_t n = 0;
  for (int64_t id : net.switch_ids()) n += net.find_switch(id)->table().size();
  return n;
}

// A world on a shared base must behave exactly like a self-built world
// with the same static rules that walks every packet, whose installs land
// in the same table as them: the same statistics per tag, hops, control
// log and clock, walked or booked from a memo filled by a world with
// other installs, in plain and tag mode. The worlds churn their tables
// mid-stream, and none of it reaches the base. Over the seeds, some
// memoized packets must hit and some must walk because a later install
// landed on their path.
TEST(PathMemo, RandomNetworksWithMidStreamInstallsMatchWalk) {
  size_t entries = 0;
  size_t hits = 0;
  size_t walks = 0;
  size_t installs = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Network static_net;
    const std::vector<int64_t> ips = build_random_net(static_net, seed);
    const auto base = std::make_shared<const WorldBase>(std::move(static_net));
    const size_t static_rules = rule_count(base->net());
    const std::vector<Injection> work = random_work(base->net(), ips, seed);
    PathMemo memo;
    {
      Network filler(base);
      ChurnController ctrl(filler, seed * 3 + 1, ips);
      filler.set_controller(&ctrl);
      filler.record_batch(work, memo);
    }
    entries += memo.entries();
    const eval::TagMask active = (Rng(seed).next() & 0xF) | 1;
    for (const bool tagged : {false, true}) {
      for (const bool memoized : {false, true}) {
        const std::string where = std::string(tagged ? "tagged" : "plain") +
                                  (memoized ? " memoized" : " walked");
        Network world(base);
        Network walk_world;
        build_random_net(walk_world, seed);
        std::vector<std::unique_ptr<ChurnController>> ctrls;
        for (Network* net : {&world, &walk_world}) {
          ctrls.push_back(
              std::make_unique<ChurnController>(*net, seed * 3 + 2, ips));
          net->set_controller(ctrls.back().get());
          if (tagged) net->set_tag_mode(true, active);
        }
        // Drops that tie with static routes on priority: installed later,
        // they must lose to the static rule in both worlds.
        Rng tie_rng(seed);
        const std::vector<int64_t> ids = base->net().switch_ids();
        for (int k = 0; k < 3; ++k) {
          FlowEntry tie;
          tie.match = {{Field::Dip, Value(ips[tie_rng.below(ips.size())])}};
          tie.priority = -1;
          tie.action = Action::drop();
          const int64_t sw = ids[tie_rng.below(ids.size())];
          world.install(sw, tie);
          walk_world.install(sw, tie);
        }
        if (memoized) {
          world.replay_batch(work, memo);
        } else {
          replay(world, work);
        }
        replay(walk_world, work);
        memo_test::expect_same_world(world, walk_world, tagged ? 4 : 0,
                                     where);
        EXPECT_EQ(walk_world.memo_hits() + walk_world.memo_walks(), 0u)
            << where;
        EXPECT_EQ(rule_count(walk_world),
                  static_rules + walk_world.stats().flow_mods)
            << where;
        hits += world.memo_hits();
        walks += world.memo_walks();
        installs += world.stats().flow_mods;
      }
    }
    EXPECT_EQ(rule_count(base->net()), static_rules);
  }
  EXPECT_GT(entries, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(walks, 0u) << "no install ever landed on a memoized path";
  EXPECT_GT(installs, 0u);
}

// --- world base (src/sdn/README.md, "World base") ----------------------------

// The topology contract for a world on a base: the topology is
// the base's, so every call that would change it throws before changing
// anything, in the world or in the base. Installs stay in the world.
TEST(WorldBase, ForkedWorldRejectsTopologyChangesAndKeepsInstallsLocal) {
  const std::vector<Host> hosts = {{1, "A", 41, 0, 1, 3}, {2, "B", 42, 0, 4, 3}};
  const std::vector<Injection> work = {send(1, 42), send(4, 41), send(2, 42)};
  Network chain;
  build_chain(chain, 4, hosts);
  const auto base = std::make_shared<const WorldBase>(std::move(chain));
  const size_t static_rules = rule_count(base->net());
  PathMemo memo;
  Network filler(base);
  filler.record_batch(work, memo);
  EXPECT_EQ(memo.entries(), work.size());

  Network world(base);
  EXPECT_EQ(world.base(), base);
  EXPECT_THROW(world.add_switch(99), std::logic_error);
  EXPECT_THROW(world.add_switch(1), std::logic_error);
  EXPECT_THROW(world.link(1, 7, 2, 7), std::logic_error);
  EXPECT_THROW(world.external(1, 7), std::logic_error);
  EXPECT_THROW(world.add_host({3, "C", 43, 0, 2, 5}), std::logic_error);
  EXPECT_THROW(world.find_switch(1), std::logic_error);
  EXPECT_EQ(world.switch_count(), 4u);
  EXPECT_EQ(world.hosts().size(), hosts.size());
  EXPECT_EQ(std::as_const(world).find_switch(1)->ports().size(),
            base->net().find_switch(1)->ports().size());
  // No switch was marked dirty: every memoized packet is booked.
  world.replay_batch(work, memo);
  EXPECT_EQ(world.memo_hits(), work.size());

  // An install lands in this world's dynamic layer only and marks its
  // switch dirty, at any priority.
  Network diverted(base);
  FlowEntry low;
  low.priority = -5;
  low.action = Action::drop();
  diverted.install(4, low);
  FlowEntry high = low;
  high.priority = 5;
  diverted.install(1, high);
  diverted.replay_batch(work, memo);
  EXPECT_EQ(diverted.memo_walks(), work.size());
  EXPECT_EQ(diverted.stats().dropped, 2u);  // the packets through switch 1
  EXPECT_EQ(diverted.stats().delivered(), 1u);
  EXPECT_EQ(rule_count(base->net()), static_rules);
  Network fresh(base);
  replay(fresh, work);
  memo_test::expect_same_world(fresh, world, 0, "untouched by diverted");

  // A base is built from a self-built network only.
  EXPECT_THROW((void)WorldBase{Network{base}}, std::invalid_argument);
  EXPECT_THROW((void)Network{nullptr}, std::invalid_argument);
}

}  // namespace
}  // namespace mp::sdn
