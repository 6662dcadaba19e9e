// Replay harness interface: something that can re-run the recorded
// workload under a candidate repair. Scenarios implement it on top of the
// SDN simulator (scenarios/pipeline.h); tests implement lightweight fakes.
#pragma once

#include <vector>

#include "backtest/metrics.h"
#include "eval/engine.h"
#include "repair/change.h"

namespace mp::backtest {

// Re-applies the external base stream of a recorded event log into a fresh
// engine: runs of consecutive Insert events become one insert_batch and
// runs of Delete events one remove_batch, preserving the stream's relative
// order (the recorded tag masks ride along for tag-mode engines). Reads
// the log through EventLog::for_each_event, so a compacted log replays
// its spilled prefix (decoded from the segment store) and live suffix
// identically to an uncompacted one. The backtester does not use it (its
// worlds re-run the simulation); it is the tests' oracle that a recorded
// log, compacted or not, holds enough to rebuild the engine state that
// produced it. Returns the number of log events applied.
size_t replay_base_stream(const eval::EventLog& log, eval::Engine& into);

// Same, streaming straight from durable segment files (mmap-backed, see
// src/storage): events are decoded one at a time from the store's own
// string tables, so a backtest can rebuild base state from a history
// larger than RAM — no EventLog, pool or catalog is materialized for the
// recorded run. This is also the crash-recovery path: construct a
// SegmentStore over the directory (recovery runs in its constructor),
// replay it here, then attach it to the engine's log with set_spill() to
// continue appending where the durable prefix ends.
size_t replay_base_stream(const storage::SegmentStore& store,
                          eval::Engine& into);

class ReplayHarness {
 public:
  virtual ~ReplayHarness() = default;

  // Replays the workload with the original (buggy) program.
  virtual ReplayOutcome replay_baseline() = 0;

  // Replays the workload with one candidate applied.
  virtual ReplayOutcome replay(const repair::RepairCandidate& cand) = 0;

  // True when replay() may be called from several worker threads at once
  // (after replay_baseline() has been called once). The Backtester's
  // `shards` knob parallelizes sequential candidate replays only for
  // harnesses that opt in; each replay must then touch only state local
  // to its own call. Default: sequential only.
  virtual bool concurrent_replays() const { return false; }

  // Joint replay of many candidates; default falls back to a sequential
  // loop. The scenario pipeline overrides this with tag-mode multi-query
  // evaluation (Section 4.4), one tag bit per candidate, so it serves at
  // most eval::kMaxTags candidates per call; Backtester::run slices
  // longer lists.
  virtual std::vector<ReplayOutcome> replay_joint(
      const std::vector<repair::RepairCandidate>& cands);
};

}  // namespace mp::backtest
