// Deterministic failpoint registry (fault injection; see README.md).
//
// A failpoint is a named site in production code wrapped by the
// MP_FAILPOINT macro:
//
//   if (const int ec = MP_FAILPOINT("storage.segment.write")) {
//     errno = ec;          // behave exactly as if the syscall failed
//     return -1;
//   }
//
// In the default build the macro expands to the integer literal 0, so the
// wrapping branch folds away — zero cost, no registry reference, pinned
// by tools/check.sh's bench floor. With -DMP_FAULTS=ON (tools/check.sh CHECK_FAULTS=1 builds a
// side tree with it) every crossing consults the process-wide Registry:
// tests arm a trigger Policy per point — fire on exactly the Nth hit,
// every Kth hit, once, always, or seeded-random — and an armed point
// "fires" by returning its configured error payload (an errno value).
// Policies are deterministic by construction (the random mode takes an
// explicit seed), so fault sweeps are reproducible run to run.
//
// Points are interned dynamically on first hit: a dry run with nothing
// armed enumerates every failpoint the workload crosses (points()), which
// is how tests/fault_test.cpp sweeps "every failpoint x fire-on-hit-N"
// without a hand-maintained list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mp::fault {

// True when this build compiled the failpoint sites in (-DMP_FAULTS=ON).
constexpr bool compiled_in() {
#ifdef MP_FAULTS
  return true;
#else
  return false;
#endif
}

// Trigger policy for one failpoint. Hit counting starts at 1 and resets
// every time the point is (re)configured, so `kNth, n=3` fires on the
// third crossing after arming regardless of earlier traffic.
struct Policy {
  enum class Mode : uint8_t {
    kOff,      // never fires (the state of an unarmed point)
    kNth,      // fires on exactly the n-th hit after arming
    kEveryK,   // fires on every k-th hit (n == k)
    kOneShot,  // fires on the first hit after arming, then disarms
    kAlways,   // fires on every hit
    kRandom,   // fires with `probability` per hit, seeded by `seed`
  };
  Mode mode = Mode::kOff;
  uint64_t n = 1;            // kNth / kEveryK parameter
  double probability = 0.0;  // kRandom parameter
  uint64_t seed = 1;         // kRandom: explicit seed => reproducible
  int error_code = 5;        // payload returned when firing (EIO)
};

// What a point has seen since it was last configured (or first hit).
struct PointStats {
  std::string name;
  uint64_t hits = 0;   // crossings since the last configure/clear
  uint64_t fires = 0;  // crossings that fired
};

// Process-wide failpoint table. All operations take a mutex — failpoints
// exist only in MP_FAULTS builds, whose hot paths are test workloads —
// so hit() is safe from the backtester pool's candidate-replay threads
// (BacktestConfig::shards), which can cross storage failpoints.
class Registry {
 public:
  static Registry& global();

  // Arms `name` (interning the point if it was never crossed) and resets
  // its hit/fire counters, so kNth counts from this call.
  void configure(const std::string& name, Policy policy);
  // Disarms one point (counters reset; the point stays enumerable).
  void clear(const std::string& name);
  // Disarms every point and forgets all counters and interned names.
  void clear_all();

  // Records a crossing of `name`; returns the policy's error payload if
  // the point fired, 0 otherwise. Interns unknown names so a dry run
  // enumerates the workload's failpoints.
  int hit(const char* name);

  // Every point ever crossed or configured, sorted by name (deterministic
  // sweep order), with its current counters.
  std::vector<PointStats> points() const;
  // Fire count of one point (0 if never crossed).
  uint64_t fires(const std::string& name) const;
  uint64_t hits(const std::string& name) const;

 private:
  struct Impl;
  Impl* impl_;  // leaked singleton state (never destructed, like obs)
  Registry();
};

}  // namespace mp::fault

// Evaluates to the error payload (an errno value) when the point fires,
// 0 otherwise. Compiles to the literal 0 without MP_FAULTS.
#ifdef MP_FAULTS
#define MP_FAILPOINT(name) (::mp::fault::Registry::global().hit(name))
#else
#define MP_FAILPOINT(name) 0
#endif

