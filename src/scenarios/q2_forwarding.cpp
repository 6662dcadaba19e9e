// Q2: forwarding error (from ATPG [57]). An ACL at ingress switch S1
// forwards DNS queries only for clients with Sip < 6; the operator meant
// Sip < 7, so client H1 (ip 6) is silently blocked and the DNS server H17
// never sees its queries. Scanner hosts with ips 15 / 98 / 2008 populate
// the history, so the meta provenance also proposes the looser constants
// Sip < 16 / < 99 / < 2009 the paper's Table 6(a) shows -- all of which
// admit intentionally-blocked traffic and fail the KS gate.
#include "ndlog/parser.h"
#include "scenarios/scenario.h"

namespace mp::scenario {

namespace {

constexpr const char* kBuggy = R"(
table FlowTable/4.
event PacketIn/4.
r1 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 1, Dpt == 53, Sip < 6, Prt := 2.
r2 FlowTable(@Swi,Dpt,Sip,Prt) :- PacketIn(@C,Swi,Dpt,Sip), Swi == 2, Dpt == 53, Prt := 1.
)";

}  // namespace

Scenario q2_forwarding(const sdn::CampusOptions& campus) {
  Scenario s;
  s.id = "Q2";
  s.query = "H17 is not receiving DNS queries from H1 (forwarding error)";
  s.bug = "r1's ACL tests Sip < 6; the intended predicate is Sip < 7";
  s.campus = campus;
  s.program = ndlog::parse_program(kBuggy);
  s.fixed = s.program;
  s.fixed.find_rule("r1")->sels[2].rhs = ndlog::Expr::constant(Value(7));

  // Symptom: no flow entry at S1 forwarding H1's (sip 6) DNS to port 2.
  repair::Symptom sym;
  sym.polarity = repair::Symptom::Polarity::Missing;
  sym.pattern.table = "FlowTable";
  sym.pattern.fields = {{0, ndlog::CmpOp::Eq, Value(1)},
                        {1, ndlog::CmpOp::Eq, Value(53)},
                        {2, ndlog::CmpOp::Eq, Value(6)},
                        {3, ndlog::CmpOp::Eq, Value(2)}};
  sym.description = s.query;
  s.symptoms.push_back(std::move(sym));

  s.space.insertable_tables = {"FlowTable"};
  s.space.max_const_variants = 4;
  s.space.max_var_variants = 4;
  s.space.max_cost = 9.0;

  s.wire_app = [](sdn::Network& net, const sdn::Campus&) {
    net.link(1, 2, 2, 9);  // S1 port 2 <-> S2
    net.add_host({1, "H17", 17, 100017, 2, 1});
    sdn::install_host_routes(net, {17}, {1, 2, 3, 4});
  };

  s.make_bindings = [] { return flow_bindings(sdn::Field::Sip); };

  s.make_workload = [](const sdn::Network& net) {
    std::vector<sdn::Injection> work;
    auto dns_from = [&](int64_t sip, size_t packets) {
      sdn::Packet p;
      p.sip = sip;
      p.dip = 17;
      p.dpt = 53;
      p.spt = 40000 + sip;
      p.proto = static_cast<int64_t>(sdn::Proto::Udp);
      p.bucket = sip % 2 + 1;
      for (size_t k = 0; k < packets; ++k) {
        work.push_back(sdn::Injection{1, 1, p});
      }
    };
    // Legitimate clients 1..5 (high volume: repairs that block them shift
    // the distribution noticeably) and H1 = client 6, the blocked one.
    for (int64_t sip = 1; sip <= 5; ++sip) dns_from(sip, 100);
    dns_from(6, 30);
    // Intentionally-blocked clients 7..14 (looser repairs re-admit them).
    for (int64_t sip = 7; sip <= 14; ++sip) dns_from(sip, 60);
    // Scanners whose sips seed the Sip<16 / Sip<99 / Sip<2009 variants.
    dns_from(15, 80);
    dns_from(98, 80);
    dns_from(2008, 80);
    // Background campus load.
    sdn::background_traffic(net, 10000, 32, work);
    return work;
  };

  s.symptom_fixed = [](const backtest::ReplayOutcome& out,
                       const backtest::ReplayOutcome& base,
                       const eval::Engine&, eval::TagMask) {
    // H1's (sip 6) queries reach H17: deliveries rise above the baseline
    // level produced by clients 1..5 alone.
    return out.delivered("H17", 53) > base.delivered("H17", 53);
  };
  return s;
}

}  // namespace mp::scenario
