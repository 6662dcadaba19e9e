// Ablations of the repair pipeline's design choices:
//  (a) cost model: Pan-et-al-weighted costs vs uniform costs -- where does
//      the ground-truth repair rank in the candidate list?
//  (b) KS significance level: how many candidates survive at alpha = 0.20,
//      0.05 (the paper's choice) and 0.01?
//  (c) multi-query optimization on/off at the pipeline level.
#include "bench/bench_util.h"
#include "scenarios/pipeline.h"
#include "util/timer.h"

int main() {
  using namespace mp;

  // (a) cost-model ablation on Q1.
  {
    bench::header("Ablation (a): cost model vs rank of the ground-truth fix");
    auto s = scenario::q1_copy_paste({});
    scenario::ScenarioHarness harness(s);
    auto rank_of_truth = [&](const repair::CostModel& model) -> int {
      repair::RepairGenerator gen(harness.buggy_run().engine(), s.space, model);
      auto cands = gen.generate(s.symptoms[0]).candidates;
      for (size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].description.find("Swi == 2 in r7 to Swi == 3") !=
            std::string::npos) {
          return static_cast<int>(i) + 1;
        }
      }
      return -1;
    };
    repair::CostModel weighted;  // defaults = bug-fix-pattern weights
    repair::CostModel uniform;
    uniform.change_const_near = uniform.change_const_base = uniform.change_op =
        uniform.change_var = uniform.delete_sel = uniform.change_assign_const =
            uniform.change_assign_var = uniform.delete_atom =
                uniform.change_head = uniform.copy_rule = uniform.delete_rule =
                    uniform.insert_tuple = uniform.delete_tuple = 3.0;
    std::printf("weighted (Pan et al. [41]) cost model: truth at rank %d\n",
                rank_of_truth(weighted));
    std::printf("uniform cost model:                    truth at rank %d\n",
                rank_of_truth(uniform));
  }

  // (b) KS alpha sweep on Q1.
  {
    bench::header("Ablation (b): KS significance level vs accepted repairs");
    auto s = scenario::q1_copy_paste({});
    scenario::ScenarioHarness harness(s);
    repair::RepairGenerator gen(harness.buggy_run().engine(), s.space);
    auto cands = gen.generate(s.symptoms[0]).candidates;
    if (cands.size() > 16) cands.resize(16);
    for (double alpha : {0.20, 0.05, 0.01}) {
      backtest::BacktestConfig cfg;
      cfg.alpha = alpha;
      cfg.use_multiquery = true;
      backtest::Backtester tester(cfg);
      auto report = tester.run(harness, cands);
      std::printf("alpha=%.2f: %zu effective, %zu accepted\n", alpha,
                  report.effective_count, report.accepted_count);
    }
    std::printf("(looser alpha admits repairs with visible side effects;\n"
                " tighter alpha starts rejecting the true fix)\n");
  }

  // (c) pipeline with and without multi-query backtesting.
  {
    bench::header("Ablation (c): pipeline runtime, sequential vs multi-query");
    for (bool mq : {false, true}) {
      auto s = scenario::q1_copy_paste({});
      scenario::PipelineOptions opt;
      opt.multiquery = mq;
      Timer t;
      auto r = scenario::run_pipeline(s, opt);
      std::printf("%-12s: %.2fs total, %zu/%zu accepted\n",
                  mq ? "multi-query" : "sequential", t.seconds(), r.accepted,
                  r.candidates);
    }
  }
  return 0;
}
