// Q1: copy-and-paste error (Section 2.3, Table 2; bug class from CP-Miner
// [31]). The operator added backup web server H2 behind S3 and copied the
// forwarding rule r5 (S2 -> H1) into r7, changing the port but forgetting
// to change the switch check: r7 still tests Swi == 2. Offloaded HTTP
// requests reach S3, miss, and are dropped; H2 receives nothing.
//
// Topology (app part):        S1 --2--> S2 --1--> H1   (web primary, ip 4)
//   internet --1--> S1        S1 --3--> S3 --2--> H2   (web backup,  ip 5)
//                             S3 --3--> DNS            (dns server,  ip 6)
//   campus ----core---> S4 --3--> H3  (internal web, ip 7; HTTP toward it
//                       S4 --2--> G   (guest portal, ip 8) is intentionally
//                       blocked at S4 -- overly-general repairs re-enable it
//                       and get rejected by the KS gate)
#include "ndlog/parser.h"
#include "scenarios/scenario.h"
#include "util/rng.h"

namespace mp::scenario {

namespace {

constexpr const char* kBuggy = R"(
table FlowTable/4.
event PacketIn/4.
table WebLoadBalancer/3.
r1 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), WebLoadBalancer(@C,Src,Prt), Swi == 1, Hdr == 80.
r2 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 1, Hdr == 53, Prt := 3.
r3 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 1, Hdr != 53, Hdr != 80, Prt := -1.
r5 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 3, Hdr == 53, Prt := 3.
r7 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 2, Hdr == 80, Prt := 2.
)";

}  // namespace

Scenario q1_copy_paste(const sdn::CampusOptions& campus) {
  Scenario s;
  s.id = "Q1";
  s.query = "H2 is not receiving HTTP requests (copy-and-paste error)";
  s.bug = "r7 checks Swi == 2 (copied from r5); it should check Swi == 3";
  s.campus = campus;
  s.program = ndlog::parse_program(kBuggy);
  s.fixed = s.program;
  s.fixed.find_rule("r7")->sels[0].rhs =
      ndlog::Expr::constant(Value(3));

  // Symptom: no flow entry at S3 sending HTTP (dpt 80) to port 2 (H2).
  repair::Symptom sym;
  sym.polarity = repair::Symptom::Polarity::Missing;
  sym.pattern.table = "FlowTable";
  sym.pattern.fields = {{0, ndlog::CmpOp::Eq, Value(3)},
                        {1, ndlog::CmpOp::Eq, Value(80)},
                        {3, ndlog::CmpOp::Eq, Value(2)}};
  sym.description = s.query;
  s.symptoms.push_back(std::move(sym));

  s.space.insertable_tables = {"FlowTable"};
  s.space.insert_label = "Manually installing a flow entry";
  s.space.max_const_variants = 2;
  s.space.max_var_variants = 1;
  s.space.max_cost = 9.0;

  s.config_tuples = {
      {"WebLoadBalancer", {Value::str("C"), Value(1), Value(2)}},
      {"WebLoadBalancer", {Value::str("C"), Value(2), Value(3)}},
  };

  s.wire_app = [](sdn::Network& net, const sdn::Campus&) {
    net.link(1, 2, 2, 9);  // S1 port 2 <-> S2
    net.link(1, 3, 3, 9);  // S1 port 3 <-> S3
    net.add_host({1, "H1", 4, 100004, 2, 1});
    net.add_host({2, "H2", 5, 100005, 3, 2});
    net.add_host({3, "DNS", 6, 100006, 3, 3});
    net.add_host({4, "H3", 7, 100007, 4, 3});
    net.add_host({5, "G", 8, 100008, 4, 2});
    // Proactive core routes toward the scenario servers, but reactive
    // handling on the app switches themselves.
    sdn::install_host_routes(net, {4, 5, 6, 7, 8}, {1, 2, 3, 4});
  };

  s.make_bindings = [] {
    sdn::ControllerBindings b;
    b.encode_packet_in = [](int64_t sw, int64_t, const sdn::Packet& p) {
      return eval::Tuple{
          "PacketIn", {Value::str("C"), Value(sw), Value(p.dpt), Value(p.bucket)}};
    };
    b.flow_table = "FlowTable";
    b.decode_flow = [](const eval::Tuple& t) -> std::optional<sdn::InstallSpec> {
      if (t.row.size() != 4 || !t.row[0].is_int()) return std::nullopt;
      sdn::InstallSpec spec;
      spec.sw = t.row[0].as_int();
      spec.entry.match = {{sdn::Field::Dpt, t.row[1]},
                          {sdn::Field::Bucket, t.row[2]}};
      spec.entry.priority = 0;
      const int64_t prt = t.row[3].is_int() ? t.row[3].as_int() : -1;
      spec.entry.action =
          prt < 0 ? sdn::Action::drop() : sdn::Action::output(prt);
      return spec;
    };
    return b;
  };

  s.make_workload = [campus](const sdn::Network& net) {
    std::vector<sdn::Injection> work;
    // External HTTP (buckets load-balance across H1 / offload to H2).
    sdn::IngressOptions http;
    http.flows = 40;
    http.packets_per_flow = 5;
    http.dpt = 80;
    http.dst_ip = 4;
    http.seed = 11;
    sdn::ingress_traffic(http, work);
    // External DNS.
    sdn::IngressOptions dns;
    dns.flows = 100;
    dns.packets_per_flow = 8;
    dns.dpt = 53;
    dns.dst_ip = 6;
    dns.seed = 12;
    sdn::ingress_traffic(dns, work);
    // Other ingress traffic (dropped by r3).
    sdn::IngressOptions other;
    other.flows = 12;
    other.packets_per_flow = 4;
    other.dpt = 22;
    other.dst_ip = 4;
    other.seed = 13;
    sdn::ingress_traffic(other, work);
    // Internal HTTP toward the guest-blocked server H3 (via S4).
    Rng rng(21);
    const auto& hosts = net.hosts();
    size_t guests = 0;
    for (const auto& h : hosts) {
      if (h.name.substr(0, 1) != "E") continue;
      for (int k = 0; k < 8; ++k) {
        sdn::Packet p;
        p.sip = h.ip;
        p.dip = 7;
        p.dpt = 80;
        p.spt = 40000 + static_cast<int64_t>(rng.below(1000));
        p.bucket = p.sip % 2 + 1;
        work.push_back(sdn::Injection{h.sw, h.port, p});
      }
      if (++guests >= 112) break;
    }
    // Background campus load.
    sdn::background_traffic(net, 12000, 31, work);
    return work;
  };

  s.symptom_fixed = [](const backtest::ReplayOutcome& out,
                       const backtest::ReplayOutcome&, const eval::Engine&,
                       eval::TagMask) {
    return out.delivered("H2", 80) > 0;
  };
  return s;
}

}  // namespace mp::scenario
