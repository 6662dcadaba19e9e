// Shared helpers for the test suites (not part of the library).
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "eval/event_log.h"
#include "repair/generator.h"
#include "scenarios/scenario.h"
#include "storage/segment_store.h"

namespace mp::testutil {

// `opt` with a segment store attached (EngineOptions::segment_dir) in a
// freshly emptied directory under the test temp dir: the store is the
// log's only checkpoint home, so tests that compact need one.
inline eval::EngineOptions with_segments(const std::string& name,
                                         eval::EngineOptions opt = {}) {
  opt.segment_dir = ::testing::TempDir() + "mp_segments/" + name;
  std::filesystem::remove_all(opt.segment_dir);
  return opt;
}

// The repair generator's output for every symptom of a scenario, one line
// per candidate (cost + description + change count), so any drift in the
// repair sets, their costs or their order fails a byte comparison. Both
// the differential and history suites assert on this canonical form.
inline std::vector<std::string> explore_all(const scenario::Scenario& s,
                                            const eval::Engine& engine) {
  std::vector<std::string> out;
  const repair::RepairGenerator generator(engine, s.space);
  for (const repair::Symptom& sym : s.symptoms) {
    for (const repair::RepairCandidate& c :
         generator.generate(sym).candidates) {
      out.push_back(std::to_string(c.cost) + " | " + c.description +
                    " | changes=" + std::to_string(c.changes.size()));
    }
  }
  return out;
}

inline uint64_t fnv1a(uint64_t h, const std::string& line) {
  for (const char c : line) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The (kind, tuple) line of one event, as the sequence hash reads it.
inline std::string event_line(const eval::EventView& ev) {
  return std::string(eval::to_string(ev.kind)) + " " + std::string(ev.table) +
         row_to_string(*ev.row);
}

// FNV-1a over the (kind, tuple) event sequence of the full log,
// checkpointed prefix included: two logs agree iff they recorded the same
// events in the same order.
inline uint64_t event_sequence_hash(const eval::EventLog& log) {
  uint64_t h = 1469598103934665603ull;
  log.for_each_event(
      [&](const eval::EventView& ev) { h = fnv1a(h, event_line(ev)); });
  return h;
}

// The canonical line of one event: eval::to_string plus the cause list,
// so id, node, row, rule AND causal-link drift all fail a comparison.
// Live and spilled events, from a log or straight from a segment store,
// all print through here.
inline std::string record_line(const eval::EventView& ev) {
  std::string line = eval::to_string(ev);
  for (eval::EventId c : ev.causes) line += " <" + std::to_string(c) + ">";
  return line;
}

// The full record (spilled prefix + live suffix), one record_line per
// event.
inline std::vector<std::string> log_lines(const eval::EventLog& log) {
  std::vector<std::string> out;
  log.for_each_event(
      [&](const eval::EventView& ev) { out.push_back(record_line(ev)); });
  return out;
}

// The same lines decoded by the standalone segment reader — no log, pool
// or catalog involved.
inline std::vector<std::string> store_lines(
    const storage::SegmentStore& store) {
  std::vector<std::string> out;
  store.replay_raw([&](const eval::EventView& ev) {
    out.push_back(record_line(ev));
    return true;
  });
  return out;
}

// Per-table row multisets across every node — the cross-engine table
// comparison the differential and storage suites assert on.
inline std::map<std::string, std::multiset<std::string>> table_multisets(
    const eval::Engine& e) {
  const ndlog::Catalog& cat = e.catalog();
  std::map<std::string, std::multiset<std::string>> out;
  for (ndlog::Catalog::TableId id = 0; id < cat.size(); ++id) {
    const std::string& name = cat.name_of(id);
    auto& rows = out[name];
    for (const eval::Tuple& t : e.all_tuples(name)) rows.insert(t.to_string());
  }
  return out;
}

// The adversarial token-ring fixture shared by the fault and obs suites: a
// directed ring where every hop is a remote Send/Receive, Last is keyed
// per (node, token) so each revisit displaces the previous hop's row
// (Underive/Disappear traffic), and the hub replica at node 100 makes the
// displacement's support decrement reach a remote node too.
inline std::string ring_program(int64_t hop_cap) {
  return
      "table NextHop/2.\n"
      "table HubAt/2.\n"
      "table Seen/3.\n"
      "table Last/3 keys(0,1).\n"
      "table Mirror/4.\n"
      "event Token/3.\n"
      "r1 Token(@M,T,HH) :- Token(@N,T,H), NextHop(@N,M), H < " +
      std::to_string(hop_cap) +
      ", HH := H + 1.\n"
      "r2 Seen(@N,T,H) :- Token(@N,T,H).\n"
      "r3 Last(@N,T,H) :- Token(@N,T,H).\n"
      "r4 Mirror(@Hub,N,T,H) :- Last(@N,T,H), HubAt(@N,Hub).\n";
}

inline std::vector<eval::Tuple> ring_trace(int64_t nodes, int64_t tokens) {
  std::vector<eval::Tuple> trace;
  for (int64_t n = 1; n <= nodes; ++n) {
    trace.push_back(eval::Tuple{"NextHop", {Value(n), Value(n % nodes + 1)}});
    trace.push_back(eval::Tuple{"HubAt", {Value(n), Value(100)}});
  }
  for (int64_t t = 0; t < tokens; ++t) {
    trace.push_back(
        eval::Tuple{"Token", {Value(t % nodes + 1), Value(t), Value(0)}});
  }
  return trace;
}

}  // namespace mp::testutil
