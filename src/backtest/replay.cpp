#include "backtest/replay.h"

namespace mp::backtest {

namespace {

// The one replay loop behind both entry points: `walk` streams the
// recorded events as EventViews, and consecutive Inserts (Deletes) batch
// into one insert_batch (remove_batch). Views live only for the callback,
// so batched tuples are materialized here (strings and rows copied once
// per base event; derived events are skipped without materializing).
template <typename Walk>
size_t replay_views(Walk walk, eval::Engine& into) {
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
  walk([&](const eval::EventView& v) {
    if (v.kind == eval::EventKind::Insert) {
      flush_removes();
      inserts.emplace_back(eval::Tuple{std::string(v.table), *v.row}, v.tags);
      ++applied;
    } else if (v.kind == eval::EventKind::Delete) {
      flush_inserts();
      removes.push_back(eval::Tuple{std::string(v.table), *v.row});
      ++applied;
    }
  });
  flush_inserts();
  flush_removes();
  return applied;
}

}  // namespace

size_t replay_base_stream(const eval::EventLog& log, eval::Engine& into) {
  // for_each_event walks the spilled prefix + live suffix in id order, so
  // a compacted log replays exactly like an uncompacted one.
  return replay_views([&](const auto& fn) { log.for_each_event(fn); }, into);
}

size_t replay_base_stream(const storage::SegmentStore& store,
                          eval::Engine& into) {
  return replay_views(
      [&](const auto& fn) {
        store.replay_raw([&](const eval::EventView& v) {
          fn(v);
          return true;
        });
      },
      into);
}

std::vector<ReplayOutcome> ReplayHarness::replay_joint(
    const std::vector<repair::RepairCandidate>& cands) {
  std::vector<ReplayOutcome> out;
  out.reserve(cands.size());
  for (const auto& c : cands) out.push_back(replay(c));
  return out;
}

}  // namespace mp::backtest
