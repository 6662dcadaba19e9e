#include "scenarios/scenario.h"

#include "sdn/topology.h"

namespace mp::scenario {

sdn::ControllerBindings flow_bindings(sdn::Field third) {
  sdn::ControllerBindings b;
  b.encode_packet_in = [third](int64_t sw, int64_t in_port,
                               const sdn::Packet& p) {
    return eval::Tuple{"PacketIn",
                       {Value::str("C"), Value(sw), Value(p.dpt),
                        Value(sdn::field_of(p, in_port, third))}};
  };
  b.decode_flow =
      [third](const eval::Tuple& t) -> std::optional<sdn::InstallSpec> {
    if (t.row.size() != 4 || !t.row[0].is_int()) return std::nullopt;
    sdn::InstallSpec spec;
    spec.sw = t.row[0].as_int();
    spec.entry.match = {{sdn::Field::Dpt, t.row[1]}, {third, t.row[2]}};
    spec.entry.priority = 0;
    const int64_t prt = t.row[3].is_int() ? t.row[3].as_int() : -1;
    spec.entry.action = prt < 0 ? sdn::Action::drop() : sdn::Action::output(prt);
    return spec;
  };
  return b;
}

std::shared_ptr<const sdn::WorldBase> build_base(const Scenario& s) {
  sdn::Network net;
  const sdn::Campus campus = sdn::build_campus(net, s.campus);
  if (s.wire_app) s.wire_app(net, campus);
  return std::make_shared<const sdn::WorldBase>(std::move(net));
}

std::vector<eval::Tuple> engine_trace(const Scenario& s, size_t cap) {
  const std::vector<sdn::Injection> work = s.make_workload(build_base(s)->net());
  const sdn::ControllerBindings bindings = s.make_bindings();
  std::vector<eval::Tuple> trace = s.config_tuples;
  trace.reserve(std::min(cap, trace.size() + work.size()));
  for (const sdn::Injection& inj : work) {
    if (trace.size() >= cap) break;
    trace.push_back(bindings.encode_packet_in(inj.sw, inj.port, inj.packet));
  }
  return trace;
}

std::vector<Scenario> all_scenarios(const sdn::CampusOptions& campus) {
  std::vector<Scenario> out;
  out.push_back(q1_copy_paste(campus));
  out.push_back(q2_forwarding(campus));
  out.push_back(q3_policy_update(campus));
  out.push_back(q4_forgotten_packets(campus));
  out.push_back(q5_mac_learning(campus));
  return out;
}

}  // namespace mp::scenario
