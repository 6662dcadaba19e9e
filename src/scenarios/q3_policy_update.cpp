// Q3: uncoordinated policy update (from OFf/CoNEXT'14 [13]). The
// load-balancer app shifted clients with small source IPs onto the backup
// route through S3, but S3's firewall app still carries the stale
// whitelist Sip > 3 from before the update; the shifted clients' HTTP is
// dropped and web server H20 never sees requests from H1 (sip 3).
// Admitting sip 1 (a known scanner the whitelist exists to block) is the
// side effect that rejects the too-loose repairs (Sip > 0, deletion).
#include "ndlog/parser.h"
#include "scenarios/scenario.h"

namespace mp::scenario {

namespace {

constexpr const char* kBuggy = R"(
table FlowTable/4.
event PacketIn/4.
r1 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 1, Dpt == 80, Sip > 3, Prt := 2.
r2 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 1, Dpt == 80, Sip <= 3, Prt := 3.
r3 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 2, Dpt == 80, Prt := 1.
r5 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 3, Dpt == 80, Sip > 3, Prt := 1.
)";

}  // namespace

Scenario q3_policy_update(const sdn::CampusOptions& campus) {
  Scenario s;
  s.id = "Q3";
  s.query = "H20 is not receiving HTTP requests from H1 (stale firewall)";
  s.bug = "r5's whitelist Sip > 3 predates the LB update that moved "
          "sips <= 3 onto the S3 route; it should admit sips 2..3";
  s.campus = campus;
  s.program = ndlog::parse_program(kBuggy);
  s.fixed = s.program;
  s.fixed.find_rule("r5")->sels[2].rhs = ndlog::Expr::constant(Value(1));

  // Symptom: no flow entry at S3 forwarding H1's (sip 3) HTTP to port 1.
  repair::Symptom sym;
  sym.polarity = repair::Symptom::Polarity::Missing;
  sym.pattern.table = "FlowTable";
  sym.pattern.fields = {{0, ndlog::CmpOp::Eq, Value(3)},
                        {1, ndlog::CmpOp::Eq, Value(80)},
                        {2, ndlog::CmpOp::Eq, Value(3)},
                        {3, ndlog::CmpOp::Eq, Value(1)}};
  sym.description = s.query;
  s.symptoms.push_back(std::move(sym));

  s.space.insertable_tables = {"FlowTable"};
  s.space.max_const_variants = 4;
  s.space.max_var_variants = 3;
  s.space.max_cost = 9.0;

  s.wire_app = [](sdn::Network& net, const sdn::Campus&) {
    net.link(1, 2, 2, 9);  // primary route
    net.link(1, 3, 3, 9);  // backup route
    // H20 is dual-homed: port 1 on both server switches.
    net.add_host({1, "H20", 20, 100020, 2, 1});
    net.add_host({2, "H20b", 21, 100021, 3, 1});
    sdn::install_host_routes(net, {20, 21}, {1, 2, 3, 4});
  };

  s.make_bindings = [] {
    sdn::ControllerBindings b;
    b.encode_packet_in = [](int64_t sw, int64_t, const sdn::Packet& p) {
      return eval::Tuple{
          "PacketIn", {Value::str("C"), Value(sw), Value(p.dpt), Value(p.sip)}};
    };
    b.decode_flow = [](const eval::Tuple& t) -> std::optional<sdn::InstallSpec> {
      if (t.row.size() != 4 || !t.row[0].is_int()) return std::nullopt;
      sdn::InstallSpec spec;
      spec.sw = t.row[0].as_int();
      spec.entry.match = {{sdn::Field::Dpt, t.row[1]},
                          {sdn::Field::Sip, t.row[2]}};
      spec.entry.priority = 0;
      const int64_t prt = t.row[3].is_int() ? t.row[3].as_int() : -1;
      spec.entry.action =
          prt < 0 ? sdn::Action::drop() : sdn::Action::output(prt);
      return spec;
    };
    return b;
  };

  s.make_workload = [](const sdn::Network& net) {
    std::vector<sdn::Injection> work;
    auto http_from = [&](int64_t sip, size_t packets) {
      sdn::Packet p;
      p.sip = sip;
      p.dip = 20;
      p.dpt = 80;
      p.spt = 40000 + sip;
      p.bucket = sip % 2 + 1;
      for (size_t k = 0; k < packets; ++k) {
        work.push_back(sdn::Injection{1, 1, p});
      }
    };
    http_from(1, 400);  // scanner: must STAY blocked (high volume)
    http_from(2, 25);   // offloaded legit client
    http_from(3, 30);   // H1: the reported victim
    for (int64_t sip = 4; sip <= 12; ++sip) http_from(sip, 60);  // primary
    sdn::background_traffic(net, 10000, 33, work);
    return work;
  };

  s.symptom_fixed = [](const backtest::ReplayOutcome& out,
                       const backtest::ReplayOutcome& base,
                       const eval::Engine&, eval::TagMask) {
    return out.delivered("H20b", 80) > base.delivered("H20b", 80);
  };
  return s;
}

}  // namespace mp::scenario
