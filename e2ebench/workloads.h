// One definition of each end-to-end benchmark workload (README.md): the
// scenarios it runs, the campus and program it runs them on, the seeded
// extra traffic, and how its candidates are backtested. The paper-figure
// programs build the same Fig 9c campus and Fig 10 padded program, so
// these helpers are written to be shared with them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ndlog/parser.h"
#include "scenarios/pipeline.h"

namespace mp::e2e {

// Fig 9c's grown campus: `switches` switches, 8 core routers and 5 hosts
// per edge switch (19 -> 169 switches in the paper).
inline sdn::CampusOptions fig9c_campus(size_t switches) {
  sdn::CampusOptions campus;
  campus.total_switches = switches;
  campus.core_count = 8;
  campus.hosts_per_edge = 5;
  return campus;
}

// Fig 10: pads the scenario's program to `lines` lines with
// operational-zone policies, rules that react to PacketIn on other switches
// and feed auxiliary tables (evaluated, but orthogonal to the bug).
inline void pad_program(scenario::Scenario& s, size_t lines) {
  std::string extra;
  size_t added = 0;
  for (size_t i = 0; s.program.line_count() + added < lines; ++i) {
    extra += "table Zone" + std::to_string(i) + "/4.\n";
    extra += "z" + std::to_string(i) + " Zone" + std::to_string(i) +
             "(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == " +
             std::to_string(100 + i % 50) + ", Hdr == " +
             std::to_string(1000 + i) + ", Prt := " + std::to_string(i % 8) +
             ".\n";
    added += 2;
  }
  s.program = ndlog::parse_program(s.program.to_string() + extra);
}

// Campus background packets appended to every scenario's own traffic. The
// workload seed enters only here: CampusOptions::seed does not change any
// scenario's output, while this traffic shifts the KS statistics.
constexpr size_t kSeededPackets = 2000;

inline void add_seeded_traffic(scenario::Scenario& s, uint64_t seed) {
  s.make_workload = [base = std::move(s.make_workload),
                     seed](const sdn::Network& net) {
    std::vector<sdn::Injection> work = base(net);
    sdn::background_traffic(net, kSeededPackets, 1000 + seed, work);
    return work;
  };
}

struct Workload {
  std::string name;
  std::vector<std::string> scenarios;  // run round-robin, in this order
  sdn::CampusOptions campus;
  size_t program_lines = 0;  // 0: the scenario's own program
  scenario::PipelineOptions pipeline;
};

inline std::vector<Workload> workloads() {
  auto opts = [](bool multiquery, size_t max_backtested) {
    scenario::PipelineOptions o;
    o.multiquery = multiquery;
    o.max_backtested = max_backtested;
    return o;
  };
  return {
      // Fig 9a: the five paper scenarios on the default 36-switch campus.
      {"paper5", {"Q1", "Q2", "Q3", "Q4", "Q5"}, {}, 0, opts(true, 16)},
      // Fig 9c's top point: large topology and flow tables.
      {"campus169", {"Q1"}, fig9c_campus(169), 0, opts(true, 8)},
      // Fig 10's top point: the only workload where repair and eval weigh.
      {"program900", {"Q1"}, {}, 900, opts(true, 16)},
      // Fig 9b at k = 9: one fresh world per candidate.
      {"sequential9", {"Q1"}, {}, 0, opts(false, 9)},
  };
}

inline const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> all = workloads();
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// The scenario `id` as workload `w` runs it under `seed`.
inline scenario::Scenario make_scenario(const Workload& w,
                                        const std::string& id, uint64_t seed) {
  scenario::Scenario s;
  if (id == "Q1") {
    s = scenario::q1_copy_paste(w.campus);
  } else if (id == "Q2") {
    s = scenario::q2_forwarding(w.campus);
  } else if (id == "Q3") {
    s = scenario::q3_policy_update(w.campus);
  } else if (id == "Q4") {
    s = scenario::q4_forgotten_packets(w.campus);
  } else if (id == "Q5") {
    s = scenario::q5_mac_learning(w.campus);
  } else {
    throw std::invalid_argument("unknown scenario: " + id);
  }
  if (w.program_lines > 0) pad_program(s, w.program_lines);
  add_seeded_traffic(s, seed);
  return s;
}

}  // namespace mp::e2e
