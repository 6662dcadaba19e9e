// Q5: incorrect MAC learning (from the HotSDN assertion-language paper
// [4]). The learning app should install entries matching (in-port, source
// IP, destination IP) but wildcards the source: f1 assigns Sip2 := *.
// Port 1 of switch S5 aggregates a downstream segment with several hosts;
// once host A's entry is installed, host D's packets (same in-port) are
// swallowed by it, D never produces a PacketIn, and the controller never
// learns D (no Learn tuple) -- "H2's MAC address is not learned".
//
// Two symptom expansions mirror the paper's Table 6(d): the missing Learn
// tuple (manual learning-table entry, candidate I) and the missing
// source-specific flow entry (assignment rewrites on f1, candidates A-H).
#include "ndlog/parser.h"
#include "scenarios/scenario.h"

namespace mp::scenario {

namespace {

constexpr const char* kBuggy = R"(
table FlowTable5/5.
event PacketIn/6.
table Loc/3.
table Learn/3 keys(0,1).
f1 FlowTable5(@Swi,Ipt2,Sip2,Dip2,Prt) :- PacketIn(@C,Swi,Ipt,Sip,Dip,Dst), Loc(@C,Dip,Prt), Swi == 5, Ipt2 := Ipt, Sip2 := *, Dip2 := Dip.
f2 Learn(@C,Sip,Ipt) :- PacketIn(@C,Swi,Ipt,Sip,Dip,Dst), Swi == 5.
)";

constexpr int64_t kIpA = 31;
constexpr int64_t kIpD = 34;  // the never-learned host ("H2" in the paper)

}  // namespace

Scenario q5_mac_learning(const sdn::CampusOptions& campus) {
  Scenario s;
  s.id = "Q5";
  s.query = "H2's MAC address is never learned by the controller";
  s.bug = "f1 wildcards the source (Sip2 := *); it should assign Sip2 := Sip";
  s.campus = campus;
  s.program = ndlog::parse_program(kBuggy);
  s.fixed = s.program;
  s.fixed.find_rule("f1")->assigns[1].expr = ndlog::Expr::var("Sip");

  // Symptom A: the controller state lacks Learn(ipD, _).
  {
    repair::Symptom sym;
    sym.polarity = repair::Symptom::Polarity::Missing;
    sym.pattern.table = "Learn";
    sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(kIpD)}};
    sym.description = "controller never learns H2 (ip 34)";
    s.symptoms.push_back(std::move(sym));
  }
  // Symptom B: no source-specific flow entry for H2's traffic exists.
  {
    repair::Symptom sym;
    sym.polarity = repair::Symptom::Polarity::Missing;
    sym.pattern.table = "FlowTable5";
    sym.pattern.fields = {{0, ndlog::CmpOp::Eq, Value(5)},
                          {2, ndlog::CmpOp::Eq, Value(kIpD)}};
    sym.description = "no source-specific entry for H2";
    s.symptoms.push_back(std::move(sym));
  }

  s.space.insertable_tables = {"Learn"};
  s.space.insert_label = "Manually installing a learning table entry";
  s.space.max_var_variants = 4;
  s.space.max_cost = 9.0;

  s.config_tuples = {
      {"Loc", {Value::str("C"), Value(32), Value(2)}},  // host B on port 2
      {"Loc", {Value::str("C"), Value(33), Value(3)}},  // host C on port 3
  };

  s.wire_app = [](sdn::Network& net, const sdn::Campus&) {
    // S5: the learning switch; S6: downstream segment behind S5 port 1.
    net.add_switch(5);
    net.add_switch(6);
    net.link(5, 1, 6, 9);
    net.add_host({1, "B", 32, 100032, 5, 2});
    net.add_host({2, "C", 33, 100033, 5, 3});
    net.add_host({3, "A", kIpA, 100031, 6, 1});
    net.add_host({4, "D", kIpD, 100034, 6, 2});
    // S6 forwards everything upstream to S5 (static default).
    sdn::FlowEntry up;
    up.priority = -2;
    up.action = sdn::Action::output(9);
    net.find_switch(6)->table().add(up);
    // ...but hosts attached to S6 stay locally reachable.
    sdn::install_host_routes(net, {kIpA, kIpD}, {5});
  };

  s.make_bindings = [] {
    sdn::ControllerBindings b;
    b.encode_packet_in = [](int64_t sw, int64_t in_port, const sdn::Packet& p) {
      return eval::Tuple{"PacketIn",
                         {Value::str("C"), Value(sw), Value(in_port),
                          Value(p.sip), Value(p.dip), Value(p.dpt)}};
    };
    b.flow_table = "FlowTable5";
    b.decode_flow = [](const eval::Tuple& t) -> std::optional<sdn::InstallSpec> {
      if (t.row.size() != 5 || !t.row[0].is_int()) return std::nullopt;
      sdn::InstallSpec spec;
      spec.sw = t.row[0].as_int();
      spec.entry.match = {{sdn::Field::InPort, t.row[1]},
                          {sdn::Field::Sip, t.row[2]},
                          {sdn::Field::Dip, t.row[3]}};
      spec.entry.priority = 0;
      const int64_t prt = t.row[4].is_int() ? t.row[4].as_int() : -1;
      spec.entry.action =
          prt < 0 ? sdn::Action::drop() : sdn::Action::output(prt);
      return spec;
    };
    return b;
  };

  s.make_workload = [](const sdn::Network& net) {
    std::vector<sdn::Injection> work;
    auto flow = [&](int64_t src_sw, int64_t src_port, int64_t sip, int64_t dip,
                    size_t packets) {
      sdn::Packet p;
      p.sip = sip;
      p.dip = dip;
      p.smc = sip + 100000;
      p.dmc = dip + 100000;
      p.dpt = 80;
      p.spt = 40000 + sip;
      for (size_t k = 0; k < packets; ++k) {
        work.push_back(sdn::Injection{src_sw, src_port, p});
      }
    };
    flow(6, 1, kIpA, 32, 40);  // A -> B: learned, installs the coarse entry
    flow(6, 2, kIpD, 32, 40);  // D -> B: swallowed by A's wildcard entry
    flow(5, 3, 33, 32, 40);    // C -> B (different in-port)
    sdn::background_traffic(net, 8000, 35, work);
    return work;
  };

  s.symptom_fixed = [](const backtest::ReplayOutcome&,
                       const backtest::ReplayOutcome&,
                       const eval::Engine& engine, eval::TagMask tag) {
    eval::TuplePattern learned;
    learned.table = "Learn";
    learned.fields = {{1, ndlog::CmpOp::Eq, Value(kIpD)}};
    bool fixed = false;
    engine.match_tuples("Learn", learned, [&](const Value& node, const Row& row) {
      if (row.size() == 3 && (engine.tags_of(node, "Learn", row) & tag)) {
        fixed = true;
        return false;
      }
      return true;
    });
    return fixed;
  };
  return s;
}

}  // namespace mp::scenario
