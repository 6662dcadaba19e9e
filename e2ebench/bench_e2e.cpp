// One workload of the end-to-end repair benchmark (README.md).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S | --rounds R]
//             [--trace 0|1] [--spans FILE]
//
// Load model: a closed loop with one client on one thread. A pipeline
// starts only after the previous one ends, and a round runs each of the
// workload's scenarios once; the loop stops at the first round boundary
// after --seconds (or after --rounds rounds). Each pipeline builds a fresh
// Scenario and ScenarioHarness (set-up), records the incident with
// buggy_run(), then diagnoses: RepairGenerator::generate on every symptom,
// merge/dedup/sort/truncate as scenario::run_pipeline does, and
// Backtester::run.
//
// Every untraced pipeline sits between two runs of the calibration kernel
// (calibrate.h). Its times are scaled by the reference kernel time over the
// mean of those two, so the end-to-end metrics are at the reference host
// speed, and a metric is the mean over the workload's scenarios of each
// scenario's median.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates those
// untraced pipelines with traced reruns assembled from each layer's public
// pieces, times only calls into those pieces, and reports the per-layer
// breakdown; --spans writes its spans as JSON lines when the run ends.
//
// Correctness: before timing, the first pipeline of every scenario also
// runs through scenario::run_pipeline, and every later pipeline (traced or
// not) must reproduce its output fingerprint, and it must accept at least
// one candidate and reject one. Sequential workloads also replay their
// candidates jointly and must agree on every effective and accepted flag.
// The last stdout line is one JSON object; run_e2e.py checks it against the
// goldens.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "obs/span.h"
#include "workloads.h"

namespace mp::e2e {
namespace {

// ---------------------------------------------------------------- output

// FNV-1a 64 rather than std::hash: fingerprints must agree across
// toolchains, because the goldens pin them.
uint64_t fnv1a(std::string_view text, uint64_t h = 14695981039346656037ull) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The text `smoke` prints for each backtested candidate, in order.
uint64_t fingerprint(const backtest::BacktestReport& report) {
  uint64_t h = fnv1a("");
  for (const backtest::BacktestEntry& e : report.entries) {
    char line[128];
    std::snprintf(line, sizeof line, "  [%c%c] cost=%.2f ks=%.5f  ",
                  e.effective ? 'E' : '-', e.accepted ? 'A' : '-',
                  e.candidate.cost, e.ks.statistic);
    h = fnv1a(line, h);
    h = fnv1a(e.candidate.description, h);
    h = fnv1a("\n", h);
  }
  return h;
}

std::string hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& xs) { return percentile(xs, 50); }

double ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Peak resident set of this process image, in MiB. VmHWM rather than
// ru_maxrss: Linux carries ru_maxrss across fork and exec, so a launcher
// larger than the benchmark would be measured instead.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------------- tracing

struct SpanRec {
  size_t pipeline = 0;
  std::string scenario;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  // Replay spans only: controller time and invocations inside the span.
  uint64_t ctrl_ns = 0;
  size_t packet_ins = 0;
};

// Spans of traced pipelines, kept in memory (name, start, end, parent)
// under each pipeline's id, plus the current pipeline's per-layer sums by
// metric name. Span ids are indexes within their pipeline.
class Tracer {
 public:
  void begin_pipeline(size_t id, std::string scenario) {
    pipeline_ = id;
    scenario_ = std::move(scenario);
    first_ = spans_.size();
  }
  int open(const char* name, int parent) {
    SpanRec s;
    s.pipeline = pipeline_;
    s.scenario = scenario_;
    s.name = name;
    s.parent = parent;
    s.start_ns = obs::now_ns();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - first_ - 1);
  }
  void close(int id) { rec(id).end_ns = obs::now_ns(); }
  SpanRec& rec(int id) { return spans_[first_ + static_cast<size_t>(id)]; }
  uint64_t dur(int id) { return rec(id).end_ns - rec(id).start_ns; }
  // Part of span `id` that its direct children cover (children of one
  // span never overlap: the pipeline is single-threaded).
  uint64_t child_ns(int id) {
    uint64_t covered = 0;
    for (size_t i = first_; i < spans_.size(); ++i) {
      if (spans_[i].parent == id) covered += spans_[i].end_ns - spans_[i].start_ns;
    }
    return covered;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

  std::map<std::string, double> layer;  // this pipeline's sums

 private:
  std::vector<SpanRec> spans_;
  size_t first_ = 0;
  size_t pipeline_ = 0;
  std::string scenario_;
};

// ------------------------------------------------------------- diagnosis

// Repair generation on every symptom, then merge, dedup, sort and truncate
// exactly as scenario::run_pipeline does. With a tracer, each generate()
// call is a span under `parent` and its report feeds the repair.* metrics.
std::vector<repair::RepairCandidate> diagnose(const eval::Engine& engine,
                                              const scenario::Scenario& s,
                                              size_t max_backtested,
                                              Tracer* tr = nullptr,
                                              int parent = -1) {
  repair::RepairGenerator generator(engine, s.space);
  std::vector<repair::RepairCandidate> out;
  std::set<std::string> seen;
  for (const auto& symptom : s.symptoms) {
    const int span = tr != nullptr ? tr->open("repair.generate", parent) : -1;
    repair::GenerationReport rep = generator.generate(symptom);
    if (tr != nullptr) {
      tr->close(span);
      auto& m = tr->layer;
      m["repair.generate_ms"] += ms(tr->dur(span));
      m["repair.history_ms"] += rep.phases.get("history lookups") * 1e3;
      m["repair.solving_ms"] += rep.phases.get("constraint solving") * 1e3;
      m["repair.patching_ms"] += rep.phases.get("patch generation") * 1e3;
      m["repair.goals_expanded"] += static_cast<double>(rep.stats.goals_expanded);
      m["repair.trees_forked"] += static_cast<double>(rep.stats.trees_forked);
      m["repair.solver_calls"] += static_cast<double>(rep.stats.solver.calls);
      m["repair.history_tuples_scanned"] +=
          static_cast<double>(rep.stats.history_tuples_scanned);
    }
    for (auto& cand : rep.candidates) {
      if (seen.insert(cand.description).second) out.push_back(std::move(cand));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const repair::RepairCandidate& a,
               const repair::RepairCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.description < b.description;
            });
  if (tr != nullptr) tr->layer["repair.candidates"] += static_cast<double>(out.size());
  if (out.size() > max_backtested) out.resize(max_backtested);
  return out;
}

backtest::BacktestConfig backtest_config(const Workload& w) {
  backtest::BacktestConfig cfg;
  cfg.use_multiquery = w.pipeline.multiquery;
  cfg.shards = w.pipeline.backtest_shards;
  return cfg;
}

// --------------------------------------------------- untraced pipeline

struct PipelineOut {
  std::string scenario;
  uint64_t fingerprint = 0;
  size_t backtested = 0;
  size_t effective = 0;
  size_t accepted = 0;
  uint64_t setup_ns = 0;
  uint64_t record_ns = 0;
  uint64_t turnaround_ns = 0;
  uint64_t backtest_ns = 0;
  size_t packets = 0;
  size_t log_bytes = 0;
  double cal_ms = 0;  // mean calibration time just before and just after
};

// The repair loop as an operator meets it, through the production
// ScenarioHarness.
PipelineOut run_untraced(const Workload& w, const std::string& id,
                         uint64_t seed) {
  PipelineOut p;
  p.scenario = id;
  const uint64_t t0 = obs::now_ns();
  const scenario::Scenario s = make_scenario(w, id, seed);
  scenario::ScenarioHarness harness(s);
  const uint64_t t1 = obs::now_ns();
  scenario::ScenarioRun& buggy = harness.buggy_run();
  const uint64_t t2 = obs::now_ns();
  const auto cands = diagnose(buggy.engine(), s, w.pipeline.max_backtested);
  const uint64_t t3 = obs::now_ns();
  const backtest::BacktestReport report =
      backtest::Backtester(backtest_config(w)).run(harness, cands);
  const uint64_t t4 = obs::now_ns();
  p.setup_ns = t1 - t0;
  p.record_ns = t2 - t1;
  p.turnaround_ns = t4 - t2;
  p.backtest_ns = t4 - t3;
  p.packets = harness.workload().size();
  p.log_bytes = buggy.engine().log().byte_estimate();
  p.fingerprint = fingerprint(report);
  p.backtested = report.entries.size();
  p.effective = report.effective_count;
  p.accepted = report.accepted_count;
  return p;
}

// ----------------------------------------------------- traced pipeline

// Forwards PacketIns to the real controller and accumulates the time spent
// inside it. Per-PacketIn time is a sum and a count, not spans.
class TimedController : public sdn::ControllerIface {
 public:
  explicit TimedController(sdn::ControllerIface& inner) : inner_(inner) {}
  void on_packet_in(int64_t sw, int64_t in_port, const sdn::Packet& p,
                    eval::TagMask miss_tags) override {
    const uint64_t t0 = obs::now_ns();
    inner_.on_packet_in(sw, in_port, p, miss_tags);
    ns += obs::now_ns() - t0;
    ++calls;
  }
  uint64_t ns = 0;
  size_t calls = 0;

 private:
  sdn::ControllerIface& inner_;
};

// A scenario world built as scenario::ScenarioRun builds one, with the
// controller behind TimedController. ScenarioRun itself cannot be used: a
// second NdlogController over its engine would register the on_appear
// callbacks twice.
class World {
 public:
  World(const scenario::Scenario& s, const ndlog::Program& program,
        eval::EngineOptions eopts)
      : campus_(sdn::build_campus(net_, s.campus)) {
    if (s.wire_app) s.wire_app(net_, campus_);
    engine_ = std::make_unique<eval::Engine>(program, eopts);
    ctrl_ = std::make_unique<sdn::NdlogController>(net_, *engine_,
                                                   s.make_bindings());
    timed_ = std::make_unique<TimedController>(*ctrl_);
    net_.set_controller(timed_.get());
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sdn::Network& net() { return net_; }
  eval::Engine& engine() { return *engine_; }
  const TimedController& controller() const { return *timed_; }

  // Mean flow entries per switch: lookup is a linear priority scan, so
  // this drives the per-hop cost.
  double flow_entries_per_switch() const {
    size_t entries = 0;
    size_t switches = 0;
    for (const auto* ids : {&campus_.app_switches, &campus_.core_switches,
                            &campus_.edge_switches}) {
      for (int64_t id : *ids) {
        if (const sdn::Switch* sw = net_.find_switch(id)) {
          entries += sw->table().size();
          ++switches;
        }
      }
    }
    return switches == 0 ? 0.0
                         : static_cast<double>(entries) /
                               static_cast<double>(switches);
  }

 private:
  sdn::Network net_;
  sdn::Campus campus_;
  std::unique_ptr<eval::Engine> engine_;
  std::unique_ptr<sdn::NdlogController> ctrl_;
  std::unique_ptr<TimedController> timed_;
};

// Replays `work` in `world` as a span under `parent` and books the time,
// split into controller (eval) and forwarding (sdn), under `phase`
// ("record" or "backtest").
void traced_replay(Tracer& tr, int parent, const char* name, World& world,
                   const std::vector<sdn::Injection>& work,
                   const std::string& phase) {
  const uint64_t ctrl0 = world.controller().ns;
  const size_t calls0 = world.controller().calls;
  const int span = tr.open(name, parent);
  sdn::replay(world.net(), work);
  tr.close(span);
  SpanRec& r = tr.rec(span);
  r.ctrl_ns = world.controller().ns - ctrl0;
  r.packet_ins = world.controller().calls - calls0;
  auto& m = tr.layer;
  m["eval." + phase + "_ms"] += ms(r.ctrl_ns);
  m["sdn." + phase + "_ms"] += ms(tr.dur(span) - r.ctrl_ns);
  m["eval.ctrl_ns"] += static_cast<double>(r.ctrl_ns);
  m["sdn.ns"] += static_cast<double>(tr.dur(span) - r.ctrl_ns);
  m["eval.packet_ins"] += static_cast<double>(r.packet_ins);
  m["sdn.packets"] += static_cast<double>(work.size());
  m["sdn.hops"] += static_cast<double>(world.net().stats().hops);
  m["sdn.flow_entries_sum"] += world.flow_entries_per_switch();
  m["sdn.worlds"] += 1;
}

void count_engine(Tracer& tr, const eval::Engine& engine) {
  tr.layer["eval.rule_firings"] += static_cast<double>(engine.rule_firings());
  tr.layer["eval.steps"] += static_cast<double>(engine.steps());
}

// Mirrors ScenarioHarness::replay / replay_joint call for call, with each
// layer's calls timed as spans under the Backtester::run span.
class TracedHarness : public backtest::ReplayHarness {
 public:
  TracedHarness(const scenario::Scenario& s,
                const std::vector<sdn::Injection>& work,
                backtest::ReplayOutcome baseline, Tracer& tr)
      : s_(s), work_(work), baseline_(std::move(baseline)), tr_(tr) {}

  void set_parent(int span) { parent_ = span; }

  backtest::ReplayOutcome replay_baseline() override { return baseline_; }

  backtest::ReplayOutcome replay(const repair::RepairCandidate& cand) override {
    Timer timer;
    int span = tr_.open("backtest.combine", parent_);
    auto program = repair::apply_candidate(s_.program, cand);
    close(span, "backtest.combine_ms");
    backtest::ReplayOutcome out;
    if (!program) {
      out.valid = false;
      return out;
    }
    eval::EngineOptions eopts;
    eopts.record_provenance = false;
    span = tr_.open("backtest.world_build", parent_);
    auto world = std::make_unique<World>(s_, *program, eopts);
    close(span, "backtest.world_build_ms");
    tr_.layer["backtest.worlds"] += 1;

    span = tr_.open("backtest.config_insert", parent_);
    std::vector<std::pair<eval::Tuple, eval::TagMask>> inserts;
    for (const eval::Tuple& t : repair::candidate_insertions(cand)) {
      inserts.emplace_back(t, eval::kAllTags);
    }
    const auto deletions = repair::candidate_deletions(cand);
    if (!deletions.empty()) {
      for (const eval::Tuple& t : s_.config_tuples) {
        bool deleted = false;
        for (const eval::Tuple& d : deletions) {
          if (d == t) deleted = true;
        }
        if (!deleted) inserts.emplace_back(t, eval::kAllTags);
      }
      world->engine().insert_batch(inserts);
    } else {
      world->engine().insert_batch(s_.config_tuples);
      world->engine().insert_batch(inserts);
    }
    close(span, "backtest.config_insert_ms");
    tr_.layer["eval.backtest_ms"] += ms(tr_.dur(span));

    traced_replay(tr_, parent_, "backtest.replay", *world, work_, "backtest");
    out = backtest::outcome_from_stats(world->net().stats());
    out.symptom_fixed =
        s_.symptom_fixed
            ? s_.symptom_fixed(out, baseline_, world->engine(), eval::kAllTags)
            : false;
    out.seconds = timer.seconds();
    count_engine(tr_, world->engine());
    teardown(std::move(world));
    return out;
  }

  std::vector<backtest::ReplayOutcome> replay_joint(
      const std::vector<repair::RepairCandidate>& cands) override {
    Timer timer;
    std::vector<backtest::ReplayOutcome> outs(cands.size());
    if (cands.empty()) return outs;
    int span = tr_.open("backtest.combine", parent_);
    const backtest::CombinedProgram combined =
        backtest::build_backtest_program(s_.program, cands);
    close(span, "backtest.combine_ms");

    eval::EngineOptions eopts;
    eopts.record_provenance = false;
    eopts.tag_mode = true;
    span = tr_.open("backtest.world_build", parent_);
    auto world = std::make_unique<World>(s_, combined.program, eopts);
    for (const auto& [rule, mask] : combined.rule_restrict) {
      world->engine().set_rule_restrict(rule, mask);
    }
    const eval::TagMask active =
        combined.candidate_count >= eval::kMaxTags
            ? eval::kAllTags
            : (eval::TagMask{1} << combined.candidate_count) - 1;
    world->net().set_tag_mode(true, active);
    close(span, "backtest.world_build_ms");
    tr_.layer["backtest.worlds"] += 1;

    span = tr_.open("backtest.config_insert", parent_);
    std::vector<std::pair<eval::Tuple, eval::TagMask>> inserts;
    for (const eval::Tuple& t : s_.config_tuples) {
      inserts.emplace_back(t, combined.config_mask(t));
    }
    for (const auto& [t, mask] : combined.insertions) {
      inserts.emplace_back(t, mask);
    }
    world->engine().insert_batch(inserts);
    close(span, "backtest.config_insert_ms");
    tr_.layer["eval.backtest_ms"] += ms(tr_.dur(span));

    traced_replay(tr_, parent_, "backtest.replay", *world, work_, "backtest");
    const double elapsed = timer.seconds();
    for (size_t i = 0; i < cands.size(); ++i) {
      if (i >= combined.candidate_count) break;
      backtest::ReplayOutcome o =
          backtest::outcome_from_stats(world->net().tag_stats(i));
      o.valid = std::find(combined.invalid.begin(), combined.invalid.end(),
                          i) == combined.invalid.end();
      const eval::TagMask bit = eval::TagMask{1} << i;
      o.symptom_fixed =
          o.valid && s_.symptom_fixed
              ? s_.symptom_fixed(o, baseline_, world->engine(), bit)
              : false;
      o.seconds = elapsed / static_cast<double>(cands.size());
      outs[i] = std::move(o);
    }
    count_engine(tr_, world->engine());
    teardown(std::move(world));
    return outs;
  }

 private:
  void close(int span, const char* metric) {
    tr_.close(span);
    tr_.layer[metric] += ms(tr_.dur(span));
  }
  void teardown(std::unique_ptr<World> world) {
    const int span = tr_.open("backtest.world_teardown", parent_);
    world.reset();
    close(span, "backtest.world_teardown_ms");
  }

  const scenario::Scenario& s_;
  const std::vector<sdn::Injection>& work_;
  const backtest::ReplayOutcome baseline_;
  Tracer& tr_;
  int parent_ = -1;
};

// The same pipeline as run_untraced, assembled from public pieces so that
// every layer boundary is a span.
PipelineOut run_traced(const Workload& w, const std::string& id,
                       uint64_t seed, Tracer& tr) {
  PipelineOut p;
  p.scenario = id;
  auto& m = tr.layer;
  const int root = tr.open("pipeline", -1);

  int span = tr.open("scenarios.setup", root);
  const scenario::Scenario s = make_scenario(w, id, seed);
  // Only the workload synthesis of the harness is used.
  const scenario::ScenarioHarness harness(s);
  tr.close(span);
  m["scenarios.setup_ms"] += ms(tr.dur(span));

  const int record = tr.open("record", root);
  span = tr.open("scenarios.record_world", record);
  World recorded(s, s.program, {});
  tr.close(span);
  m["scenarios.record_world_ms"] += ms(tr.dur(span));
  span = tr.open("eval.config_insert", record);
  recorded.engine().insert_batch(s.config_tuples);
  recorded.engine().insert_batch(
      std::vector<std::pair<eval::Tuple, eval::TagMask>>{});
  tr.close(span);
  m["eval.record_ms"] += ms(tr.dur(span));
  traced_replay(tr, record, "sdn.replay", recorded, harness.workload(),
                "record");
  tr.close(record);
  count_engine(tr, recorded.engine());
  m["eval.log_events"] += static_cast<double>(recorded.engine().log().size());
  m["eval.log_bytes"] +=
      static_cast<double>(recorded.engine().log().byte_estimate());

  backtest::ReplayOutcome baseline =
      backtest::outcome_from_stats(recorded.net().stats());
  baseline.symptom_fixed = false;

  const int turnaround = tr.open("turnaround", root);
  const auto cands = diagnose(recorded.engine(), s, w.pipeline.max_backtested,
                              &tr, turnaround);
  TracedHarness traced(s, harness.workload(), std::move(baseline), tr);
  const int run = tr.open("backtest.run", turnaround);
  traced.set_parent(run);
  const backtest::BacktestReport report =
      backtest::Backtester(backtest_config(w)).run(traced, cands);
  tr.close(run);
  tr.close(turnaround);
  tr.close(root);

  m["backtest.score_ms"] += ms(tr.dur(run) - tr.child_ns(run));
  m["backtest.backtested"] += static_cast<double>(report.entries.size());
  m["backtest.effective"] += static_cast<double>(report.effective_count);
  m["backtest.accepted"] += static_cast<double>(report.accepted_count);
  m["turnaround_ns"] += static_cast<double>(tr.dur(turnaround));
  m["unattributed_ns"] +=
      static_cast<double>(tr.dur(turnaround) - tr.child_ns(turnaround));

  p.turnaround_ns = tr.dur(turnaround);
  p.fingerprint = fingerprint(report);
  p.backtested = report.entries.size();
  p.effective = report.effective_count;
  p.accepted = report.accepted_count;
  return p;
}

// ---------------------------------------------------------- the run loop

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  size_t rounds = 0;  // > 0: a fixed number of rounds instead of --seconds
  bool trace = false;
  std::string spans;
};

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), w_(find_workload(opt.workload)) {}

  int run() {
    for (const std::string& id : w_.scenarios) check_reference(id);
    const uint64_t deadline =
        obs::now_ns() + static_cast<uint64_t>(opt_.seconds * 1e9);
    double cal = calibration_ms();
    for (size_t round = 0;
         opt_.rounds > 0 ? round < opt_.rounds
                         : round == 0 || obs::now_ns() < deadline;
         ++round) {
      for (const std::string& id : w_.scenarios) {
        guarded(id, [&] {
          PipelineOut p = run_untraced(w_, id, opt_.seed);
          const double before = cal;
          cal = calibration_ms();
          p.cal_ms = (before + cal) / 2;
          check(p, "untraced");
          untraced_.push_back(p);
        });
        if (!opt_.trace) continue;
        guarded(id, [&] {
          tracer_.begin_pipeline(traced_.size(), id);
          tracer_.layer.clear();
          const PipelineOut p = run_traced(w_, id, opt_.seed, tracer_);
          check(p, "traced");
          traced_.push_back(p);
          layer_sums_.push_back(tracer_.layer);
        });
      }
    }
    if (!opt_.spans.empty()) write_spans();
    print_result();
    return 0;
  }

 private:
  template <typename F>
  void guarded(const std::string& id, F&& body) {
    ++attempted_;
    const size_t errors = errors_.size();
    try {
      body();
    } catch (const std::exception& e) {
      fail(id + ": exception: " + e.what());
    }
    if (errors_.size() != errors) ++failed_;
  }

  void fail(const std::string& msg) {
    errors_.push_back(msg);
    std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
  }

  // First pipeline of scenario `id`, through scenario::run_pipeline. Also
  // the warm-up: it runs before anything is timed.
  void check_reference(const std::string& id) {
    guarded(id, [&] {
      const scenario::Scenario s = make_scenario(w_, id, opt_.seed);
      const scenario::PipelineResult r = scenario::run_pipeline(s, w_.pipeline);
      PipelineOut ref;
      ref.scenario = id;
      ref.fingerprint = fingerprint(r.backtest);
      ref.backtested = r.backtest.entries.size();
      ref.effective = r.effective;
      ref.accepted = r.accepted;
      refs_[id] = ref;
      if (ref.accepted == 0 || ref.accepted >= ref.backtested) {
        fail(id + ": must accept at least one candidate and reject one, got " +
             std::to_string(ref.accepted) + " of " +
             std::to_string(ref.backtested));
      }
      if (!w_.pipeline.multiquery) check_joint(s, r);
    });
  }

  // Sequential and joint replay of the same candidates must agree on every
  // flag; their KS statistics may differ (counted, not failed).
  void check_joint(const scenario::Scenario& s,
                   const scenario::PipelineResult& seq) {
    scenario::ScenarioHarness harness(s);
    backtest::BacktestConfig cfg;
    cfg.use_multiquery = true;
    const backtest::BacktestReport joint =
        backtest::Backtester(cfg).run(harness, seq.generation.candidates);
    size_t& mismatches = ks_mismatch_[s.id];
    for (size_t i = 0; i < seq.backtest.entries.size(); ++i) {
      const auto& a = seq.backtest.entries[i];
      const auto& b = joint.entries.at(i);
      if (a.effective != b.effective || a.accepted != b.accepted) {
        fail(s.id + ": joint and sequential flags differ on " +
             a.candidate.description);
      }
      if (std::fabs(a.ks.statistic - b.ks.statistic) >= 5e-6) ++mismatches;
    }
  }

  void check(const PipelineOut& p, const char* kind) {
    auto it = refs_.find(p.scenario);
    if (it == refs_.end()) {
      fail(p.scenario + ": no reference pipeline");
    } else if (it->second.fingerprint != p.fingerprint) {
      fail(p.scenario + ": " + kind + " fingerprint " + hex(p.fingerprint) +
           " != run_pipeline " + hex(it->second.fingerprint));
    }
  }

  void write_spans() const {
    std::FILE* f = std::fopen(opt_.spans.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", opt_.spans.c_str());
      std::exit(1);
    }
    int index = 0;
    size_t pipeline = SIZE_MAX;
    for (const SpanRec& s : tracer_.spans()) {
      if (s.pipeline != pipeline) {
        pipeline = s.pipeline;
        index = 0;
      }
      std::fprintf(f,
                   "{\"pipeline\":%zu,\"scenario\":%s,\"span\":%d,"
                   "\"name\":%s,\"parent\":%d,\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"ctrl_ns\":%llu,\"packet_ins\":%zu}\n",
                   s.pipeline, json_str(s.scenario).c_str(), index++,
                   json_str(s.name).c_str(), s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.ctrl_ns), s.packet_ins);
    }
    std::fclose(f);
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>>
  end_to_end() const {
    // Per scenario, in workload order: each pipeline's times at the
    // reference host speed. Scenarios differ in size, so a workload's value
    // is the mean of their medians, not the median of a mixture.
    struct Series {
      std::vector<double> turnaround, raw_turnaround, record_pps,
          backtest_cps, setup_s;
    };
    std::vector<Series> by_scenario(w_.scenarios.size());
    std::vector<double> cal, turnaround;
    double bytes = 0, packets = 0;
    for (const PipelineOut& p : untraced_) {
      const size_t i = static_cast<size_t>(
          std::find(w_.scenarios.begin(), w_.scenarios.end(), p.scenario) -
          w_.scenarios.begin());
      const double speed = kReferenceMs / p.cal_ms;
      Series& s = by_scenario.at(i);
      s.turnaround.push_back(ms(p.turnaround_ns) * speed);
      s.raw_turnaround.push_back(ms(p.turnaround_ns));
      s.record_pps.push_back(static_cast<double>(p.packets) /
                             (static_cast<double>(p.record_ns) / 1e9 * speed));
      s.backtest_cps.push_back(
          static_cast<double>(p.backtested) /
          (static_cast<double>(p.backtest_ns) / 1e9 * speed));
      s.setup_s.push_back(static_cast<double>(p.setup_ns) / 1e9 * speed);
      turnaround.push_back(ms(p.turnaround_ns) * speed);
      cal.push_back(p.cal_ms);
      bytes += static_cast<double>(p.log_bytes);
      packets += static_cast<double>(p.packets);
    }
    auto mean_of_medians = [&](std::vector<double> Series::*field) {
      double sum = 0;
      for (const Series& s : by_scenario) sum += median(s.*field);
      return sum / static_cast<double>(by_scenario.size());
    };
    std::printf("calibration median %.3f ms (reference %.3f ms), n=%zu\n",
                median(cal), kReferenceMs, cal.size());
    print_tail("turnaround_ms", "ms", turnaround);
    for (size_t i = 0; i < w_.scenarios.size(); ++i) {
      const Series& s = by_scenario[i];
      std::printf("turnaround_ms %s median %.3f ms, as measured %.3f ms (n=%zu)\n",
                  w_.scenarios[i].c_str(), median(s.turnaround),
                  median(s.raw_turnaround), s.turnaround.size());
    }
    return {
        {"turnaround_ms", {mean_of_medians(&Series::turnaround), "ms"}},
        {"record_pps", {mean_of_medians(&Series::record_pps), "packets/s"}},
        {"backtest_cps",
         {mean_of_medians(&Series::backtest_cps), "candidates/s"}},
        {"setup_s", {mean_of_medians(&Series::setup_s), "s"}},
        {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
        {"log_bytes_per_packet", {packets > 0 ? bytes / packets : 0.0, "B/packet"}},
    };
  }

  // The highest percentile with at least ten samples beyond it; reported,
  // not gated.
  static void print_tail(const char* name, const char* unit,
                         const std::vector<double>& xs) {
    for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
      if (static_cast<double>(xs.size()) * (100.0 - p) / 100.0 >= 10.0) {
        std::printf("%s tail p%.0f = %.3f %s (n=%zu)\n", name, p,
                    percentile(xs, p), unit, xs.size());
        return;
      }
    }
    std::printf("%s tail: n=%zu is too few for a tail\n", name, xs.size());
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>>
  per_layer() const {
    // Means over traced pipelines of each pipeline's sums.
    std::map<std::string, double> mean;
    for (const auto& sums : layer_sums_) {
      for (const auto& [k, v] : sums) mean[k] += v;
    }
    const double n = static_cast<double>(std::max<size_t>(1, layer_sums_.size()));
    for (auto& [k, v] : mean) v /= n;
    auto get = [&](const char* k) {
      auto it = mean.find(k);
      return it == mean.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::vector<double> traced_ms, untraced_ms;
    for (const PipelineOut& p : traced_) traced_ms.push_back(ms(p.turnaround_ns));
    for (const PipelineOut& p : untraced_) untraced_ms.push_back(ms(p.turnaround_ns));

    std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
    auto add = [&](const char* name, double v, const char* unit) {
      out.push_back({name, {v, unit}});
    };
    add("scenarios.setup_ms", get("scenarios.setup_ms"), "ms");
    add("scenarios.record_world_ms", get("scenarios.record_world_ms"), "ms");
    add("eval.record_ms", get("eval.record_ms"), "ms");
    add("eval.backtest_ms", get("eval.backtest_ms"), "ms");
    add("eval.packet_ins", get("eval.packet_ins"), "count");
    add("eval.ns_per_packet_in",
        ratio(get("eval.ctrl_ns"), get("eval.packet_ins")), "ns");
    add("eval.rule_firings", get("eval.rule_firings"), "count");
    add("eval.steps", get("eval.steps"), "count");
    add("eval.log_events", get("eval.log_events"), "count");
    add("eval.log_bytes", get("eval.log_bytes"), "B");
    add("sdn.record_ms", get("sdn.record_ms"), "ms");
    add("sdn.backtest_ms", get("sdn.backtest_ms"), "ms");
    add("sdn.packets", get("sdn.packets"), "count");
    add("sdn.hops", get("sdn.hops"), "count");
    add("sdn.ns_per_hop", ratio(get("sdn.ns"), get("sdn.hops")), "ns");
    add("sdn.flow_entries",
        ratio(get("sdn.flow_entries_sum"), get("sdn.worlds")), "count");
    add("repair.generate_ms", get("repair.generate_ms"), "ms");
    add("repair.history_ms", get("repair.history_ms"), "ms");
    add("repair.solving_ms", get("repair.solving_ms"), "ms");
    add("repair.patching_ms", get("repair.patching_ms"), "ms");
    add("repair.candidates", get("repair.candidates"), "count");
    add("repair.goals_expanded", get("repair.goals_expanded"), "count");
    add("repair.trees_forked", get("repair.trees_forked"), "count");
    add("repair.solver_calls", get("repair.solver_calls"), "count");
    add("repair.history_tuples_scanned", get("repair.history_tuples_scanned"),
        "count");
    add("backtest.combine_ms", get("backtest.combine_ms"), "ms");
    add("backtest.world_build_ms", get("backtest.world_build_ms"), "ms");
    add("backtest.world_teardown_ms", get("backtest.world_teardown_ms"), "ms");
    add("backtest.worlds", get("backtest.worlds"), "count");
    add("backtest.config_insert_ms", get("backtest.config_insert_ms"), "ms");
    add("backtest.score_ms", get("backtest.score_ms"), "ms");
    add("backtest.backtested", get("backtest.backtested"), "count");
    add("backtest.effective", get("backtest.effective"), "count");
    add("backtest.accepted", get("backtest.accepted"), "count");
    add("backtest.accept_ratio",
        ratio(get("backtest.accepted"), get("backtest.backtested")),
        "fraction");
    add("trace.overhead_frac",
        untraced_ms.empty() ? 0.0 : median(traced_ms) / median(untraced_ms) - 1,
        "fraction");
    add("trace.unattributed_frac",
        ratio(get("unattributed_ns"), get("turnaround_ns")), "fraction");
    return out;
  }

  void print_result() const {
    const auto metrics = opt_.trace ? per_layer() : end_to_end();
    for (const auto& [name, vu] : metrics) {
      std::printf("%-32s %14.6g %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
    std::string json = "{\"workload\":" + json_str(w_.name) +
                       ",\"seed\":" + std::to_string(opt_.seed) +
                       ",\"trace\":" + (opt_.trace ? "1" : "0") +
                       ",\"attempted\":" + std::to_string(attempted_) +
                       ",\"failed\":" + std::to_string(failed_) +
                       ",\"errors\":[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      json += (i ? "," : "") + json_str(errors_[i]);
    }
    json += "],\"scenarios\":{";
    bool first = true;
    for (const std::string& id : w_.scenarios) {
      auto it = refs_.find(id);
      if (it == refs_.end()) continue;
      const PipelineOut& r = it->second;
      json += std::string(first ? "" : ",") + json_str(id) +
              ":{\"candidates\":" + std::to_string(r.backtested) +
              ",\"effective\":" + std::to_string(r.effective) +
              ",\"accepted\":" + std::to_string(r.accepted) +
              ",\"fingerprint\":" + json_str(hex(r.fingerprint));
      auto ks = ks_mismatch_.find(id);
      if (ks != ks_mismatch_.end()) {
        json += ",\"joint_seq_ks_mismatch\":" + std::to_string(ks->second);
      }
      json += "}";
      first = false;
    }
    json += "},\"metrics\":{";
    first = true;
    for (const auto& [name, vu] : metrics) {
      json += std::string(first ? "" : ",") + json_str(name) +
              ":{\"value\":" + num(vu.first) +
              ",\"unit\":" + json_str(vu.second) + "}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  const Options opt_;
  const Workload& w_;
  std::map<std::string, PipelineOut> refs_;
  std::map<std::string, size_t> ks_mismatch_;
  std::vector<PipelineOut> untraced_;
  std::vector<PipelineOut> traced_;
  std::vector<std::map<std::string, double>> layer_sums_;
  Tracer tracer_;
  std::vector<std::string> errors_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] "
               "[--seconds S | --rounds R] [--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace mp::e2e

int main(int argc, char** argv) {
  using namespace mp::e2e;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--rounds") {
      opt.rounds = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.spans = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || !(opt.seconds > 0)) {
    return usage();
  }
  try {
    return Bench(opt).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
