// Minimal fork/join helper for the backtester's candidate-replay pool
// (BacktestConfig::shards).
#pragma once

#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mp {

// Runs every thunk concurrently — thunks[1..] each on a fresh thread,
// thunks[0] on the calling thread — joins them all, then rethrows the
// first exception any thunk raised (an exception escaping a thread body
// would std::terminate). Thunks must not touch shared mutable state
// without their own synchronization.
inline void run_thunks_parallel(std::vector<std::function<void()>> thunks) {
  if (thunks.empty()) return;
  if (thunks.size() == 1) {
    thunks[0]();
    return;
  }
  std::exception_ptr error;
  std::mutex error_mu;
  auto guarded = [&](const std::function<void()>& work) {
    try {
      work();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(thunks.size() - 1);
  try {
    for (size_t i = 1; i < thunks.size(); ++i) {
      workers.emplace_back([&guarded, &thunks, i] { guarded(thunks[i]); });
    }
  } catch (...) {
    // Thread creation failed (e.g. EAGAIN under thread exhaustion): join
    // what was spawned before rethrowing — unwinding past joinable
    // std::threads would std::terminate.
    for (std::thread& w : workers) w.join();
    throw;
  }
  guarded(thunks[0]);
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace mp
