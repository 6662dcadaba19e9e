// Scenario definitions (Section 5.3): each of the paper's five diagnostic
// case studies is a self-contained bundle of topology wiring, controller
// program (with the planted bug), configuration state, workload, symptom
// and repair-space settings. Scenarios drive the tests, the examples and
// every bench.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backtest/metrics.h"
#include "eval/engine.h"
#include "repair/generator.h"
#include "sdn/controller.h"
#include "sdn/topology.h"
#include "sdn/traffic.h"

namespace mp::scenario {

struct Scenario {
  std::string id;           // "Q1".."Q5"
  std::string query;        // the operator's diagnostic query (Table 1)
  std::string bug;          // one-line description of the planted bug
  ndlog::Program program;   // the buggy controller program
  ndlog::Program fixed;     // the intended (ground-truth) program

  std::vector<repair::Symptom> symptoms;   // usually one; Q5 uses two
  repair::RepairSpaceConfig space;

  sdn::CampusOptions campus;
  // Wire scenario hosts/links on the app switches (invoked after
  // build_campus); may install proactive routes for scenario hosts.
  std::function<void(sdn::Network&, const sdn::Campus&)> wire_app;
  std::function<sdn::ControllerBindings()> make_bindings;
  std::function<std::vector<sdn::Injection>(const sdn::Network&)> make_workload;
  std::vector<eval::Tuple> config_tuples;  // controller config (base tuples)

  // Effectiveness predicate: did this replay fix the operator's problem?
  // `tag` selects the candidate world when the engine ran in tag mode.
  std::function<bool(const backtest::ReplayOutcome& out,
                     const backtest::ReplayOutcome& baseline,
                     const eval::Engine& engine, eval::TagMask tag)>
      symptom_fixed;
};

// The five scenarios. `scale` lets benches grow the topology (Fig 9c);
// workload sizes scale accordingly.
Scenario q1_copy_paste(const sdn::CampusOptions& campus = {});
Scenario q2_forwarding(const sdn::CampusOptions& campus = {});
Scenario q3_policy_update(const sdn::CampusOptions& campus = {});
Scenario q4_forgotten_packets(const sdn::CampusOptions& campus = {});
Scenario q5_mac_learning(const sdn::CampusOptions& campus = {});

std::vector<Scenario> all_scenarios(const sdn::CampusOptions& campus = {});

// The controller codec Q1-Q4 share. A flow-table miss becomes
// PacketIn(@"C", Swi, Dpt, F), where F is the packet's `third` field
// (Bucket for Q1, Sip for Q2-Q4). A FlowTable(@Swi, Dpt, F, Prt) row
// installs a priority-0 entry on switch Swi matching (Dpt, `third` = F)
// that outputs on Prt, or drops when Prt is negative or not an integer.
sdn::ControllerBindings flow_bindings(sdn::Field third);

// The scenario's static world: build_campus plus wire_app, kept as a
// WorldBase. Workload synthesis reads it, and every ScenarioRun world runs
// on a base built here (a ScenarioHarness's worlds all on the one it
// keeps).
std::shared_ptr<const sdn::WorldBase> build_base(const Scenario& s);

// The scenario's engine-level tuple trace: config tuples followed by the
// PacketIn encoding of every workload injection (the same encoding the
// controller proxy applies on a flow-table miss), capped at `cap` tuples.
// This is the stream the differential/history harnesses drive through the
// engine without simulating the network.
std::vector<eval::Tuple> engine_trace(const Scenario& s, size_t cap);

}  // namespace mp::scenario
