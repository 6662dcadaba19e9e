// Q4: forgotten packets (from NICE [7]). The controller app installs flow
// entries correctly but never instructs the switches to release the
// buffered first packet of each flow: there is no rule deriving the
// PacketOut relation at all. The first packet of every HTTP flow is lost
// at each reactive hop. The repairs the meta provenance proposes
// synthesize the missing rule by copying/retargeting an existing head
// (Table 6(c)): copies preserve the FlowMods and pass; retargeting an
// existing rule's head destroys the FlowMods and floods the controller,
// which the backtester rejects via the control-load gate.
#include "ndlog/parser.h"
#include "scenarios/scenario.h"

namespace mp::scenario {

namespace {

constexpr const char* kBuggy = R"(
table FlowTable/4.
event PacketIn/4.
event PacketOut/4.
r1 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 1, Dpt == 80, Prt := 2.
r2 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 2, Dpt == 80, Prt := 1.
)";

}  // namespace

Scenario q4_forgotten_packets(const sdn::CampusOptions& campus) {
  Scenario s;
  s.id = "Q4";
  s.query = "First HTTP packet of each flow is never received (no PacketOut)";
  s.bug = "no rule derives PacketOut: buffered first packets are dropped";
  s.campus = campus;
  s.program = ndlog::parse_program(kBuggy);
  // Ground truth: copies of r1/r2 with PacketOut heads.
  s.fixed = s.program;
  s.fixed.rules.push_back(ndlog::parse_rule(
      "p1 PacketOut(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), "
      "Swi == 1, Dpt == 80, Prt := 2."));
  s.fixed.rules.push_back(ndlog::parse_rule(
      "p2 PacketOut(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), "
      "Swi == 2, Dpt == 80, Prt := 1."));

  // Symptom: no PacketOut at S1 releasing HTTP toward port 2.
  repair::Symptom sym;
  sym.polarity = repair::Symptom::Polarity::Missing;
  sym.pattern.table = "PacketOut";
  sym.pattern.fields = {{0, ndlog::CmpOp::Eq, Value(1)},
                        {1, ndlog::CmpOp::Eq, Value(80)},
                        {3, ndlog::CmpOp::Eq, Value(2)}};
  sym.description = s.query;
  s.symptoms.push_back(std::move(sym));

  s.space.insertable_tables = {"PacketOut"};
  s.space.insert_label = "Manually sending a packetOut message";
  s.space.max_head_perms = 3;
  s.space.max_cost = 12.0;

  s.wire_app = [](sdn::Network& net, const sdn::Campus&) {
    net.link(1, 2, 2, 9);
    net.add_host({1, "H20", 20, 100020, 2, 1});
    sdn::install_host_routes(net, {20}, {1, 2, 3, 4});
  };

  s.make_bindings = [] {
    sdn::ControllerBindings b = flow_bindings(sdn::Field::Sip);
    b.auto_packet_out = false;  // the app forgets the release
    b.packet_out_table = "PacketOut";
    b.decode_packet_out =
        [](const eval::Tuple& t) -> std::optional<sdn::PacketOutSpec> {
      if (t.row.size() != 4 || !t.row[0].is_int() || !t.row[3].is_int()) {
        return std::nullopt;
      }
      return sdn::PacketOutSpec{t.row[0].as_int(), t.row[3].as_int()};
    };
    return b;
  };

  s.make_workload = [](const sdn::Network& net) {
    std::vector<sdn::Injection> work;
    // Many short HTTP flows: first-packet loss is a large visible share.
    sdn::IngressOptions http;
    http.flows = 150;
    http.packets_per_flow = 4;
    http.dpt = 80;
    http.dst_ip = 20;
    http.src_ip_count = 150;
    http.seed = 14;
    sdn::ingress_traffic(http, work);
    sdn::background_traffic(net, 8000, 34, work);
    return work;
  };

  s.symptom_fixed = [](const backtest::ReplayOutcome& out,
                       const backtest::ReplayOutcome& base,
                       const eval::Engine&, eval::TagMask) {
    // Effective iff previously-lost first packets now arrive.
    return out.delivered("H20", 80) > base.delivered("H20", 80);
  };
  return s;
}

}  // namespace mp::scenario
