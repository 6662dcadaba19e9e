#include "calibrate.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace mp::e2e {

namespace {
volatile uint64_t g_sink = 0;

uint64_t next(uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 40;
}
}  // namespace

// Ordered-map inserts and lookups with small heap strings: pointer chasing
// over a working set of ~2 MB, allocation and unpredictable branches, the
// mix the simulator and the engine spend their time on. Of the kernels
// tried (a register-only loop, a random walk over 8 MiB, this one), this
// one tracked the benchmark's own slowdowns most closely.
double calibration_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::map<uint64_t, std::string> m;
  uint64_t x = 7;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = next(x);
    m[k] = std::to_string(x);
  }
  uint64_t h = 0;
  for (int i = 0; i < 20000; ++i) {
    auto it = m.lower_bound(next(x));
    if (it != m.end()) h += it->second.size();
  }
  g_sink = h;
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace mp::e2e
