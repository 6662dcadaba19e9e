// Figure 10 (appendix A): scalability of repair generation with program
// size. The Q1 program is padded with synthetic-but-evaluated policies of
// an operational-zone switch (extra rules over extra tables), 100 -> 900
// lines. The shape: turnaround grows ~linearly; the number of accepted
// repairs stays stable because costly trees are pruned early.
#include "bench/bench_util.h"
#include "e2ebench/workloads.h"
#include "scenarios/pipeline.h"

int main() {
  using namespace mp;
  bench::header("Figure 10: Q1 turnaround vs program size (lines)");
  std::printf("%-8s %12s %12s %12s %10s %10s\n", "lines", "history(s)",
              "solving(s)", "total(s)", "cands", "accepted");
  for (size_t lines : {100u, 300u, 500u, 700u, 900u}) {
    auto s = scenario::q1_copy_paste({});
    e2e::pad_program(s, lines);
    scenario::PipelineOptions opt;
    opt.multiquery = true;
    auto r = scenario::run_pipeline(s, opt);
    std::printf("%-8zu %12.4f %12.4f %12.4f %10zu %10zu\n",
                s.program.line_count(), r.phases.get("history lookups"),
                r.phases.get("constraint solving"), r.total_seconds,
                r.candidates, r.accepted);
  }
  return 0;
}
