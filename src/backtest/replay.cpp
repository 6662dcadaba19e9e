#include "backtest/replay.h"

namespace mp::backtest {

size_t replay_base_stream(const eval::EventLog& log, eval::Engine& into) {
  size_t applied = 0;
  std::vector<std::pair<eval::Tuple, eval::TagMask>> inserts;
  std::vector<eval::Tuple> removes;
  auto flush_inserts = [&] {
    if (inserts.empty()) return;
    into.insert_batch(inserts);
    inserts.clear();
  };
  auto flush_removes = [&] {
    if (removes.empty()) return;
    into.remove_batch(removes);
    removes.clear();
  };
  // for_each_event walks the spilled prefix + live suffix in id order, so
  // a compacted log replays exactly like an uncompacted one.
  log.for_each_event([&](const eval::Event& ev) {
    if (ev.kind == eval::EventKind::Insert) {
      flush_removes();
      inserts.emplace_back(log.tuple_of(ev), ev.tags);
      ++applied;
    } else if (ev.kind == eval::EventKind::Delete) {
      flush_inserts();
      removes.push_back(log.tuple_of(ev));
      ++applied;
    }
  });
  flush_inserts();
  flush_removes();
  return applied;
}

size_t replay_base_stream(const storage::SegmentStore& store,
                          eval::Engine& into) {
  size_t applied = 0;
  std::vector<std::pair<eval::Tuple, eval::TagMask>> inserts;
  std::vector<eval::Tuple> removes;
  auto flush_inserts = [&] {
    if (inserts.empty()) return;
    into.insert_batch(inserts);
    inserts.clear();
  };
  auto flush_removes = [&] {
    if (removes.empty()) return;
    into.remove_batch(removes);
    removes.clear();
  };
  // RawEvent views live only until the reader's next decode, so the
  // batched tuples are materialized here (strings/rows copied once per
  // base event; derived events are skipped without materializing).
  store.replay_raw([&](const eval::RawEvent& re) {
    if (re.kind == eval::EventKind::Insert) {
      flush_removes();
      inserts.emplace_back(eval::Tuple{std::string(re.table), *re.row},
                           re.tags);
      ++applied;
    } else if (re.kind == eval::EventKind::Delete) {
      flush_inserts();
      removes.push_back(eval::Tuple{std::string(re.table), *re.row});
      ++applied;
    }
    return true;
  });
  flush_inserts();
  flush_removes();
  return applied;
}

std::vector<ReplayOutcome> ReplayHarness::replay_joint(
    const std::vector<repair::RepairCandidate>& cands) {
  std::vector<ReplayOutcome> out;
  out.reserve(cands.size());
  for (const auto& c : cands) out.push_back(replay(c));
  return out;
}

}  // namespace mp::backtest
