// Timer: a wall-clock stopwatch for bench/ and e2ebench/ (src/ times its
// intervals with obs::Scope, src/obs/span.h). PhaseClock: the per-phase
// accumulator behind the paper's Figure 9 breakdown (history lookups /
// constraint solving / patch generation / replay), fed by obs::Scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/phase.h"

namespace mp {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Accumulates named phase durations; used to produce Fig 9a/9c/10 style
// breakdowns. Phases are interned process-wide (src/obs/phase.h): the
// hot add(PhaseId) path is one vector index, no string lookup; the
// string-keyed API remains at the edges. Instances are not thread-safe —
// each worker accumulates its own clock and merge()s.
class PhaseClock {
 public:
  void add(obs::PhaseId id, double seconds) {
    if (id >= acc_.size()) acc_.resize(id + 1, 0.0);
    acc_[id] += seconds;
  }
  void add(const std::string& phase, double seconds) {
    add(obs::phase_id(phase), seconds);
  }
  double get(obs::PhaseId id) const { return id < acc_.size() ? acc_[id] : 0.0; }
  double get(const std::string& phase) const {
    return get(obs::phase_id(phase));
  }
  double total() const {
    double t = 0;
    for (double v : acc_) t += v;
    return t;
  }
  // String-keyed view for reports; zero-accumulation phases are omitted,
  // matching the old map behaviour.
  std::map<std::string, double> phases() const {
    std::map<std::string, double> out;
    for (obs::PhaseId id = 0; id < acc_.size(); ++id) {
      if (acc_[id] != 0.0) out.emplace(obs::phase_name(id), acc_[id]);
    }
    return out;
  }
  void merge(const PhaseClock& o) {
    if (o.acc_.size() > acc_.size()) acc_.resize(o.acc_.size(), 0.0);
    for (size_t id = 0; id < o.acc_.size(); ++id) acc_[id] += o.acc_[id];
  }

 private:
  std::vector<double> acc_;  // indexed by obs::PhaseId
};

}  // namespace mp
