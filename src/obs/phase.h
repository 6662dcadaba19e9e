// Process-wide interned phase ids.
//
// The old util/timer.h PhaseClock did a std::map<std::string,double>
// lookup (a string-compare chain) for every add() — on the repair hot
// path that was one map walk per history probe. Phase names are now
// interned once into a dense process-wide id space (`phase_id`, mutex
// only on the intern itself); accumulation in PhaseClock (util/timer.h)
// is a vector index, and hot call sites cache the PhaseId in a
// function-local static. The string API survives at the edges
// (`PhaseClock::add(name, secs)`, `get(name)`, `phases()`).
//
// The same ids label obs::Scope trace spans (src/obs/span.h), so a phase
// breakdown and a trace of the same run share one vocabulary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mp::obs {

using PhaseId = uint32_t;

// Interns `name` into the process-wide phase id space (dense, starting at
// 0). Mutex-guarded; call once per site and cache the id.
PhaseId phase_id(std::string_view name);
// Name of an interned id ("?" for an id never interned).
std::string phase_name(PhaseId id);

}  // namespace mp::obs
