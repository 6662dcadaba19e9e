// Section 5.4 runtime overhead: Cbench-style PacketIn stress through the
// controller with provenance maintenance on vs off (latency + throughput),
// and the storage footprint of the runtime logs (the paper: +4.2% latency,
// -9.8% throughput, ~120-byte log entries at 11-20 MB/s per switch).
#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>

#include "e2ebench/workloads.h"
#include "fault/fault.h"
#include "ndlog/parser.h"
#include "perf_counters.h"
#include "scenarios/pipeline.h"

namespace {

using namespace mp;

// Reports the measured-region counters (bench/perf_counters.h) as
// per-tuple rates. Hardware rows appear only when perf_event_open was
// granted; the software block (getrusage + steady clock) is reported
// whenever sampled, so locked-down containers still record cpu
// utilisation / fault / context-switch rates instead of nothing.
void report_perf(benchmark::State& state,
                 const mp::bench::PerfCounters::Sample& sample,
                 double tuples_per_iteration = 1.0) {
  if (state.iterations() == 0) return;
  const double n =
      static_cast<double>(state.iterations()) * tuples_per_iteration;
  if (sample.valid) {
    state.counters["cycles_per_tuple"] =
        static_cast<double>(sample.cycles) / n;
    state.counters["instructions_per_tuple"] =
        static_cast<double>(sample.instructions) / n;
    state.counters["cache_misses_per_tuple"] =
        static_cast<double>(sample.cache_misses) / n;
    state.counters["branch_misses_per_tuple"] =
        static_cast<double>(sample.branch_misses) / n;
  }
  if (sample.sw_valid && sample.wall_ns > 0) {
    state.counters["cpu_utilisation"] =
        static_cast<double>(sample.cpu_user_ns + sample.cpu_sys_ns) /
        static_cast<double>(sample.wall_ns);
    state.counters["minor_faults_per_mtuple"] =
        static_cast<double>(sample.minor_faults) * 1e6 / n;
    state.counters["ctx_switches_per_sec"] =
        static_cast<double>(sample.ctx_switches) * 1e9 /
        static_cast<double>(sample.wall_ns);
  }
}

const char* kProgram =
    "table FlowTable/4.\nevent PacketIn/4.\n"
    "r1 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 1, "
    "Hdr == 80, Prt := 2.\n"
    "r2 FlowTable(@Swi,Hdr,Src,Prt) :- PacketIn(@C,Swi,Hdr,Src), Swi == 1, "
    "Hdr == 53, Prt := 3.\n";

// PacketIn processing latency with provenance recording enabled/disabled.
// With recording on, the per-event storage cost (serialized-format bytes
// per logged event) is reported too — the interned record layout stores
// handles + 16-bit ids per entry, names once per checkpoint, so this is
// the number the `provenance_overhead` rows in BENCH_engine.json track
// alongside throughput.
void BM_PacketInProcessing(benchmark::State& state) {
  eval::EngineOptions opt;
  opt.record_provenance = state.range(0) != 0;
  opt.max_steps = ~size_t{0} >> 1;  // steps accumulate across iterations
  eval::Engine engine(ndlog::parse_program(kProgram), opt);
  int64_t src = 0;
  mp::bench::PerfCounters perf;
  perf.start();
  for (auto _ : state) {
    eval::Tuple t{"PacketIn",
                  {Value::str("C"), Value(1), Value(80), Value(src++ % 4096)}};
    engine.insert(t);
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  const auto sample = perf.stop();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_perf(state, sample);
  if (opt.record_provenance && engine.log().size() > 0) {
    const double nevents = static_cast<double>(engine.log().size());
    state.counters["bytes_per_event"] =
        static_cast<double>(engine.log().byte_estimate()) / nevents;
    // The pre-interning entry layout carried the table and rule names
    // inline in every entry (no string table); its size over this exact
    // workload = interned entry + name lengths, reported so the
    // provenance_overhead rows can track the layout's bytes/event drop.
    size_t stringly = 0;
    for (const eval::Event& ev : engine.log().events()) {
      stringly += engine.log().serialized_bytes(ev) +
                  engine.log().table_name(ev.tuple).size() +
                  engine.log().rule_name(ev.rule).size();
    }
    state.counters["bytes_per_event_stringly"] =
        static_cast<double>(stringly) / nevents;
    state.counters["events_per_tuple"] =
        nevents / static_cast<double>(state.iterations());
  }
  state.SetLabel(opt.record_provenance ? "provenance ON" : "provenance OFF");
}
BENCHMARK(BM_PacketInProcessing)->Arg(0)->Arg(1);

// The same workload arriving in bursts through insert_batch, which is
// insert() per tuple with one auto-compaction check per burst (a switch
// delivers packet-in messages in batches, not one syscall each), measured
// on the identical program and tuple stream as BM_PacketInProcessing so
// the two rows are directly comparable. range(0) toggles provenance
// recording.
void BM_PacketInBatchedArrival(benchmark::State& state) {
  constexpr size_t kBurst = 64;
  eval::EngineOptions opt;
  opt.record_provenance = state.range(0) != 0;
  opt.max_steps = ~size_t{0} >> 1;
  eval::Engine engine(ndlog::parse_program(kProgram), opt);
  std::vector<eval::Tuple> burst;
  burst.reserve(kBurst);
  int64_t src = 0;
  mp::bench::PerfCounters perf;
  perf.start();
  for (auto _ : state) {
    burst.clear();
    for (size_t i = 0; i < kBurst; ++i) {
      burst.push_back(eval::Tuple{
          "PacketIn",
          {Value::str("C"), Value(1), Value(80), Value(src++ % 4096)}});
    }
    engine.insert_batch(burst);
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  const auto sample = perf.stop();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBurst));
  report_perf(state, sample, static_cast<double>(kBurst));
  if (opt.record_provenance && engine.log().size() > 0) {
    state.counters["bytes_per_event"] =
        static_cast<double>(engine.log().byte_estimate()) /
        static_cast<double>(engine.log().size());
  }
  state.SetLabel(opt.record_provenance ? "provenance ON" : "provenance OFF");
}
BENCHMARK(BM_PacketInBatchedArrival)->Arg(0)->Arg(1);

// Rule firing over cascade fan-out: every PacketIn fires eight stat rules
// whose heads all land in one table, and each of those eight Stat
// appearances meets eight selective Tally rules (each keyed to one stat
// id) — a frame reset + unification per (tuple, plan) pair, 64 per
// PacketIn, of which one per Stat tuple derives. range(0) toggles
// provenance recording (ON is the paper's operating point; OFF isolates
// the evaluation path from log-append cost).
void BM_CascadeFanout(benchmark::State& state) {
  std::string prog = "table Stat/3.\ntable Tally/3.\nevent PacketIn/3.\n";
  for (int k = 1; k <= 8; ++k) {
    prog += "s" + std::to_string(k) + " Stat(@S,H," + std::to_string(k) +
            ") :- PacketIn(@S,H,P), P == 80.\n";
    prog += "t" + std::to_string(k) + " Tally(@S," + std::to_string(k) +
            ",H) :- Stat(@S,H,K), K == " + std::to_string(k) + ".\n";
  }
  eval::EngineOptions opt;
  opt.record_provenance = state.range(0) != 0;
  opt.max_steps = ~size_t{0} >> 1;
  eval::Engine engine(ndlog::parse_program(prog), opt);
  int64_t h = 0;
  mp::bench::PerfCounters perf;
  perf.start();
  for (auto _ : state) {
    engine.insert(
        eval::Tuple{"PacketIn", {Value(1), Value(h++ % 8192), Value(80)}});
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  const auto sample = perf.stop();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_perf(state, sample);
  state.SetLabel(opt.record_provenance ? "provenance ON" : "provenance OFF");
}
BENCHMARK(BM_CascadeFanout)->Arg(0)->Arg(1);

// Fig 10's program-size axis at the engine alone: Q1's program plus
// range(0) operational-zone rules (e2e::pad_program's `Zone` rules, each
// triggered by PacketIn and guarded by `Swi == c, Hdr == c'`), fed Q1's
// recorded PacketIns through Engine::insert with provenance on. The
// constant-keyed trigger dispatch visits only the plans whose switch
// constant matches, so ns/PacketIn stays roughly flat from /0 to /450
// (~0.35-0.4 us both on a 4-vCPU x86 host; visiting every plan, as
// use_indexes = false does, read ~5.9 us at /450). A measured row for
// tools/run_bench.sh, not a gate.
void BM_PacketInPadded(benchmark::State& state) {
  scenario::Scenario s = scenario::q1_copy_paste({});
  const size_t zone_rules = static_cast<size_t>(state.range(0));
  // pad_program adds two lines (table + rule) per zone rule.
  e2e::pad_program(s, s.program.line_count() + 2 * zone_rules);
  std::vector<eval::Tuple> packet_ins;
  for (eval::Tuple& t : scenario::engine_trace(s, 4096)) {
    if (t.table == "PacketIn") packet_ins.push_back(std::move(t));
  }
  eval::EngineOptions opt;
  opt.max_steps = ~size_t{0} >> 1;  // steps accumulate across iterations
  eval::Engine engine(s.program, opt);
  for (const eval::Tuple& t : s.config_tuples) engine.insert(t);
  size_t i = 0;
  for (auto _ : state) {
    engine.insert(packet_ins[i++ % packet_ins.size()]);
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["trigger_plans_per_packet_in"] =
      static_cast<double>(engine.trigger_attempts()) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.SetLabel(std::to_string(s.program.rules.size()) + " rules");
}
BENCHMARK(BM_PacketInPadded)->Arg(0)->Arg(450);

// Join-heavy rule firing: a trigger event joined against two materialized
// tables of `range(0)` rows each, with the join columns bound by the
// trigger. With secondary indexes (range(1)=1) each atom is a hash-probe
// hitting one row; with indexes disabled every atom re-scans its whole
// TableStore, so per-insert cost degrades from O(matches) to O(rows).
// tools/run_bench.sh records both throughputs in BENCH_engine.json.
void BM_JoinHeavyRuleFiring(benchmark::State& state) {
  const int64_t n = state.range(0);
  eval::EngineOptions opt;
  opt.record_provenance = false;
  opt.use_indexes = state.range(1) != 0;
  opt.max_steps = ~size_t{0} >> 1;  // steps accumulate across iterations
  eval::Engine engine(
      ndlog::parse_program(
          "table Neighbor/3.\ntable Cost/3.\ntable Out/4.\nevent Query/2.\n"
          "r1 Out(@S,N,W,C) :- Query(@S,N), Neighbor(@S,N,W), Cost(@S,N,C)."),
      opt);
  for (int64_t i = 0; i < n; ++i) {
    engine.insert(eval::Tuple{"Neighbor", {Value(1), Value(i), Value(i * 3)}});
    engine.insert(eval::Tuple{"Cost", {Value(1), Value(i), Value(i * 7)}});
  }
  int64_t k = 0;
  for (auto _ : state) {
    engine.insert(eval::Tuple{"Query", {Value(1), Value(k++ % n)}});
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["firings_per_sec"] = benchmark::Counter(
      static_cast<double>(engine.rule_firings()), benchmark::Counter::kIsRate);
  state.SetLabel(opt.use_indexes ? "indexes ON" : "forced full scans");
}
BENCHMARK(BM_JoinHeavyRuleFiring)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1});

// Bulk-loading the join-heavy base tables into a fresh engine (the config
// load pattern): one insert_batch vs. the equivalent single-insert loop
// over the same tuples. insert_batch is that loop with one auto-compaction
// check at the end, so the two rows should agree within noise; both paths
// reach the identical fixpoint (see tests/batch_test.cpp). Engine
// construction is excluded via manual timing so iterations stay
// stationary. range(0) = rows per table, range(1) selects the path.
// tools/run_bench.sh records both throughputs in BENCH_engine.json.
void BM_JoinHeavyBatchInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool batched = state.range(1) != 0;
  eval::EngineOptions opt;
  opt.record_provenance = false;
  opt.max_steps = ~size_t{0} >> 1;
  const ndlog::Program program = ndlog::parse_program(
      "table Neighbor/3.\ntable Cost/3.\ntable Out/4.\nevent Query/2.\n"
      "r1 Out(@S,N,W,C) :- Query(@S,N), Neighbor(@S,N,W), Cost(@S,N,C).");
  std::vector<eval::Tuple> batch;
  batch.reserve(static_cast<size_t>(2 * n));
  for (int64_t i = 0; i < n; ++i) {
    batch.push_back(eval::Tuple{"Neighbor", {Value(1), Value(i), Value(i * 3)}});
    batch.push_back(eval::Tuple{"Cost", {Value(1), Value(i), Value(i * 7)}});
  }
  for (auto _ : state) {
    eval::Engine engine(program, opt);
    const auto start = std::chrono::steady_clock::now();
    if (batched) {
      engine.insert_batch(batch);
    } else {
      for (const eval::Tuple& t : batch) engine.insert(t);
    }
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.steps());
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  state.SetLabel(batched ? "insert_batch" : "single-insert loop");
}
BENCHMARK(BM_JoinHeavyBatchInsert)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->UseManualTime();

// Repair-exploration history lookup: the HistoryStore probe the forest
// explorer issues for every bound-column pattern (eval/history.h), over a
// table with range(0) recorded tuples. With indexes (range(1)=1) a lookup
// visits one bucket; in forced-scan mode it walks the entire recorded
// history per lookup — the pre-HistoryStore behaviour of
// repair/forest.cpp's linear filters. tools/run_bench.sh records both
// throughputs in BENCH_engine.json (history_probe).
void BM_RepairHistoryProbe(benchmark::State& state) {
  const int64_t n = state.range(0);
  eval::EngineOptions opt;
  opt.use_indexes = state.range(1) != 0;
  opt.max_steps = ~size_t{0} >> 1;
  eval::Engine engine(ndlog::parse_program("table Hist/4.\n"), opt);
  std::vector<eval::Tuple> batch;
  batch.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    batch.push_back(eval::Tuple{
        "Hist", {Value(1), Value(i), Value(i % 97), Value(i * 3)}});
  }
  engine.insert_batch(batch);
  int64_t k = 0;
  size_t matches = 0;
  for (auto _ : state) {
    eval::TuplePattern pat;
    pat.table = "Hist";
    pat.fields = {{1, ndlog::CmpOp::Eq, Value(k++ % n)},
                  {2, ndlog::CmpOp::Ge, Value(0)}};
    engine.history().probe(pat, [&](eval::TupleRef) {
      ++matches;
      return true;
    });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(opt.use_indexes ? "indexed probe" : "forced history scan");
}
BENCHMARK(BM_RepairHistoryProbe)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1});

// Flow-table lookup cost (switch fast path).
void BM_FlowTableLookup(benchmark::State& state) {
  sdn::FlowTable ft;
  for (int i = 0; i < state.range(0); ++i) {
    sdn::FlowEntry e;
    e.match = {{sdn::Field::Dip, Value(i)}};
    e.priority = -1;
    e.action = sdn::Action::output(1);
    ft.add(e);
  }
  sdn::Packet p;
  p.dip = state.range(0) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ft.lookup(p, 1));
  }
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(128)->Arg(1024);

// End-to-end controller path (Cbench-like): a packet misses at the
// switch, the controller evaluates the program, installs an entry and
// releases the packet. This is the unit the paper's +4.2% latency /
// -9.8% throughput numbers refer to; most of the cost is packet handling,
// with provenance maintenance a fraction on top.
void BM_EndToEndPacketIn(benchmark::State& state) {
  eval::EngineOptions opt;
  opt.record_provenance = state.range(0) != 0;
  opt.max_steps = ~size_t{0} >> 1;  // steps accumulate across iterations
  sdn::Network net;
  net.add_switch(1);
  net.add_host({1, "H", 42, 0, 1, 2});
  eval::Engine engine(ndlog::parse_program(kProgram), opt);
  sdn::ControllerBindings bindings;
  bindings.encode_packet_in = [](int64_t sw, int64_t, const sdn::Packet& p) {
    return eval::Tuple{"PacketIn",
                       {Value::str("C"), Value(sw), Value(p.dpt), Value(p.sip)}};
  };
  bindings.decode_flow =
      [](const eval::Tuple& t) -> std::optional<sdn::InstallSpec> {
    sdn::InstallSpec spec;
    spec.sw = t.row[0].as_int();
    spec.entry.match = {{sdn::Field::Dpt, t.row[1]},
                        {sdn::Field::Sip, t.row[2]}};
    spec.entry.action = sdn::Action::output(2);
    return spec;
  };
  sdn::NdlogController controller(net, engine, bindings);
  net.set_controller(&controller);
  int64_t src = 0;
  for (auto _ : state) {
    sdn::Packet p;
    p.dpt = 80;
    p.sip = src++;  // fresh flow every time: always a miss + PacketIn
    net.inject(1, 1, p);
    benchmark::DoNotOptimize(net.stats().packet_ins);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(opt.record_provenance ? "recording ON" : "recording OFF");
}
BENCHMARK(BM_EndToEndPacketIn)->Arg(0)->Arg(1);

// Durable segment store, write side (src/storage): PacketIn stream with
// provenance recording on and auto-compaction spilling every checkpoint
// section into rotating segment files through the group-commit buffer.
// bytes_per_second is sequential segment-write bandwidth (serialized
// sections, headers included); items_per_second is end-to-end inserts/s
// with durability in the loop. tools/run_bench.sh records both in the
// `durable_log` section of BENCH_engine.json.
void BM_SegmentWrite(benchmark::State& state) {
  const std::string dir = "/tmp/mp_bench_segments_write";
  std::filesystem::remove_all(dir);
  eval::EngineOptions opt;
  opt.max_steps = ~size_t{0} >> 1;  // steps accumulate across iterations
  opt.compact_after_events = 4096;
  opt.compact_keep_live = 0;
  opt.segment_dir = dir;
  eval::Engine engine(ndlog::parse_program(kProgram), opt);
  int64_t src = 0;
  for (auto _ : state) {
    eval::Tuple t{"PacketIn",
                  {Value::str("C"), Value(1), Value(80), Value(src++ % 4096)}};
    engine.insert(t);
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  engine.log().compact(0);  // seal the tail so bytes() covers every event
  engine.segments()->flush(false);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(engine.segments()->bytes()));
  state.counters["segment_files"] =
      static_cast<double>(engine.segments()->segment_count());
  state.counters["events"] = static_cast<double>(engine.segments()->events());
}
BENCHMARK(BM_SegmentWrite);

// The same write-side workload with a 1-in-1000 injected fault mix —
// EINTR on write(2) plus genuine short writes — through the retry loop
// (src/storage/README.md). The MB/s delta against BM_SegmentWrite is the
// price of riding out a flaky disk; the store must finish un-degraded.
// Requires the failpoint sites: the benchmark skips itself unless built
// with -DMP_FAULTS=ON (tools/run_bench.sh then records the row as
// `durable_log_faulty` in BENCH_engine.json from the -faults side
// build's binary).
void BM_SegmentWriteFaulty(benchmark::State& state) {
  if (!fault::compiled_in()) {
    state.SkipWithError("failpoints not compiled in (needs -DMP_FAULTS=ON)");
    return;
  }
  fault::Registry& reg = fault::Registry::global();
  fault::Policy every;
  every.mode = fault::Policy::Mode::kEveryK;
  every.n = 1000;
  every.error_code = EINTR;
  reg.configure("storage.segment.write", every);
  every.error_code = 1;  // trigger only: the site halves the write length
  reg.configure("storage.segment.short_write", every);

  const std::string dir = "/tmp/mp_bench_segments_write_faulty";
  std::filesystem::remove_all(dir);
  eval::EngineOptions opt;
  opt.max_steps = ~size_t{0} >> 1;
  // Tighter compaction + a small group buffer than BM_SegmentWrite: the
  // write path must issue thousands of write(2) calls per run so a
  // 1-in-1000 per-syscall mix genuinely engages (injected_faults > 0
  // below); bandwidth is therefore measured at a section-per-flush
  // cadence, not the big-buffer cadence of the fault-free row.
  opt.compact_after_events = 512;
  opt.compact_keep_live = 0;
  opt.segment_dir = dir;
  opt.segment_store.group_buffer_bytes = 4096;
  eval::Engine engine(ndlog::parse_program(kProgram), opt);
  int64_t src = 0;
  for (auto _ : state) {
    eval::Tuple t{"PacketIn",
                  {Value::str("C"), Value(1), Value(80), Value(src++ % 4096)}};
    engine.insert(t);
    benchmark::DoNotOptimize(engine.rule_firings());
  }
  engine.log().compact(0);
  engine.segments()->flush(false);
  if (engine.segments()->failed()) {
    state.SkipWithError("store degraded under transient faults");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(engine.segments()->bytes()));
  state.counters["injected_faults"] = static_cast<double>(
      reg.fires("storage.segment.write") +
      reg.fires("storage.segment.short_write"));
  reg.clear_all();
}
BENCHMARK(BM_SegmentWriteFaulty);

// Durable segment store, read side: each iteration is a cold reload — a
// recovery scan (header + CRC validation of every chunk) followed by a
// full mmap-backed standalone decode of every event, no live engine or
// catalog. items_per_second is events decoded per second, the rate that
// bounds crash-recovery time.
void BM_SegmentReload(benchmark::State& state) {
  const std::string dir = "/tmp/mp_bench_segments_reload";
  std::filesystem::remove_all(dir);
  size_t total_events = 0;
  {
    eval::EngineOptions opt;
    opt.max_steps = ~size_t{0} >> 1;
    opt.segment_dir = dir;
    eval::Engine engine(ndlog::parse_program(kProgram), opt);
    int64_t src = 0;
    for (int i = 0; i < 20000; ++i) {
      engine.insert(eval::Tuple{"PacketIn",
                                {Value::str("C"), Value(1), Value(80),
                                 Value(src++ % 4096)}});
    }
    engine.log().compact(0);
    total_events = engine.segments()->events();
  }  // engine destruction flushes the store
  size_t sink = 0;
  for (auto _ : state) {
    storage::SegmentStore store(dir);
    store.replay_raw([&](const eval::EventView& re) {
      sink += re.causes.size() + re.row->size();
      return true;
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * total_events));
  state.counters["events"] = static_cast<double>(total_events);
}
BENCHMARK(BM_SegmentReload);

// Mini-solver throughput on repair-sized constraint pools.
void BM_MiniSolver(benchmark::State& state) {
  for (auto _ : state) {
    solver::ConstraintPool pool;
    pool.add(solver::Term::constant(Value(6)), ndlog::CmpOp::Lt,
             solver::Term::variable("K"));
    pool.add(solver::Term::variable("K"), ndlog::CmpOp::Ne,
             solver::Term::constant(Value(9)));
    benchmark::DoNotOptimize(solver::MiniSolver::solve(pool));
  }
}
BENCHMARK(BM_MiniSolver);

}  // namespace

int main(int argc, char** argv) {
  // Storage accounting (printed once, before the timed benchmarks).
  {
    using namespace mp;
    auto s = scenario::q1_copy_paste({});
    scenario::ScenarioHarness harness(s);
    auto& run = harness.buggy_run();
    const size_t packets = run.net().now();
    const double pkt_bytes = static_cast<double>(run.net().packet_log_bytes());
    const double prov_bytes = static_cast<double>(run.engine().log().byte_estimate());
    std::printf("=== Section 5.4 storage ===\n");
    std::printf("packet log: %zu entries x 120 B = %.2f MB (%.1f B/packet)\n",
                packets, pkt_bytes / 1e6,
                packets ? pkt_bytes / packets : 0.0);
    std::printf("provenance log: %.2f MB for %zu events (%.1f B/event)\n",
                prov_bytes / 1e6, run.engine().log().size(),
                run.engine().log().size()
                    ? prov_bytes / run.engine().log().size()
                    : 0.0);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
