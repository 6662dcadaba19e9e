#include "obs/phase.h"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace mp::obs {

namespace {

struct Interner {
  std::mutex mu;
  std::unordered_map<std::string, PhaseId> ids;
  std::deque<std::string> names;  // stable addresses, indexed by id
};

Interner& interner() {
  static auto* i = new Interner();  // leaked: survives static destruction
  return *i;
}

}  // namespace

PhaseId phase_id(std::string_view name) {
  Interner& in = interner();
  std::lock_guard<std::mutex> lock(in.mu);
  auto it = in.ids.find(std::string(name));
  if (it != in.ids.end()) return it->second;
  const PhaseId id = static_cast<PhaseId>(in.names.size());
  in.names.emplace_back(name);
  in.ids.emplace(in.names.back(), id);
  return id;
}

std::string phase_name(PhaseId id) {
  Interner& in = interner();
  std::lock_guard<std::mutex> lock(in.mu);
  return id < in.names.size() ? in.names[id] : std::string("?");
}

}  // namespace mp::obs
