#include "repair/generator.h"

#include "obs/span.h"

namespace mp::repair {

GenerationReport RepairGenerator::generate(const Symptom& symptom) const {
  static const obs::PhaseId kPhasePatch = obs::phase_id("patch generation");
  static const obs::TracedPhase kPhaseGenerate("repair.generate");
  const obs::Scope scope(kPhaseGenerate);
  GenerationReport report;
  ForestExplorer explorer(engine_, config_, costs_);
  report.candidates =
      explorer.explore(symptom, &report.phases, &report.stats);
  // Anything not booked to a named phase is patch generation (tree
  // bookkeeping, option assembly).
  const double booked = report.phases.total();
  const double rest = scope.seconds() - booked;
  if (rest > 0) report.phases.add(kPhasePatch, rest);
  return report;
}

}  // namespace mp::repair
