// Figure 9c: scalability of the repair-generation phase with network
// size, Q1 on grown campus topologies (19 -> 169 switches in the paper).
// The shape to check: turnaround grows roughly linearly with network
// size, dominated by history lookups and replay.
#include "bench/bench_util.h"
#include "e2ebench/workloads.h"
#include "scenarios/pipeline.h"

int main() {
  using namespace mp;
  bench::header("Figure 9c: Q1 turnaround vs number of switches");
  std::printf("%-10s %8s %12s %12s %12s %12s\n", "switches", "hosts",
              "history(s)", "solving(s)", "replay(s)", "total(s)");
  for (size_t switches : {19u, 49u, 79u, 109u, 139u, 169u}) {
    auto s = scenario::q1_copy_paste(e2e::fig9c_campus(switches));
    scenario::PipelineOptions opt;
    opt.multiquery = true;
    opt.max_backtested = 8;
    auto r = scenario::run_pipeline(s, opt);
    const size_t hosts = (switches - 12) * 5;
    std::printf("%-10zu %8zu %12.4f %12.4f %12.4f %12.4f\n", switches, hosts,
                r.phases.get("history lookups"),
                r.phases.get("constraint solving"), r.phases.get("replay"),
                r.total_seconds);
  }
  return 0;
}
