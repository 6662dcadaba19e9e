#include "langs/table3.h"

#include <functional>
#include <memory>

#include "backtest/metrics.h"
#include "langs/imp/imp.h"
#include "langs/netcore/netcore.h"
#include "scenarios/scenario.h"

namespace mp::langs {

namespace {

using backtest::ReplayOutcome;
using sdn::Field;

// A language-agnostic run: a world on the scenario's static base (the
// NDlog scenarios' builder, so all three languages see identical
// networks) replaying the workload under one language's controller.
struct LangRun {
  ReplayOutcome outcome;
  std::vector<int64_t> learned;
};

struct LangCase {
  imp::Program imp_program;
  imp::ImpSymptom imp_symptom;
  netcore::PolicyPtr nc_policy;
  std::vector<Field> nc_match_fields{Field::Dpt, Field::Sip, Field::Bucket};
  netcore::NetcoreSymptom nc_symptom;
  bool nc_supported = true;
  // effectiveness: (outcome, baseline outcome, learned sips) -> fixed?
  std::function<bool(const ReplayOutcome&, const ReplayOutcome&,
                     const std::vector<int64_t>&)>
      fixed;
};

// --- per-scenario translations ------------------------------------------

LangCase make_case(const scenario::Scenario& s) {
  using imp::Block;
  using imp::Cond;
  using imp::Install;
  using imp::Operand;
  using netcore::Policy;
  namespace nd = mp::ndlog;
  LangCase c;
  auto sw_is = [](int64_t v) {
    return Cond{Operand::switch_id(), nd::CmpOp::Eq, Operand::literal(v)};
  };
  auto fld = [](Field f, nd::CmpOp op, int64_t v) {
    return Cond{Operand::pkt(f), op, Operand::literal(v)};
  };
  auto inst = [](std::vector<Field> m, int64_t port, bool po = true) {
    Install i;
    i.match_fields = std::move(m);
    i.out = Operand::literal(port);
    i.send_packet_out = po;
    return i;
  };

  if (s.id == "Q1") {
    c.imp_program.name = "load-balancer (buggy r7 analogue)";
    c.imp_program.blocks = {
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 80),
          fld(Field::Bucket, nd::CmpOp::Eq, 1)},
         {inst({Field::Dpt, Field::Bucket}, 2)}},
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 80),
          fld(Field::Bucket, nd::CmpOp::Eq, 2)},
         {inst({Field::Dpt, Field::Bucket}, 3)}},
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 53)},
         {inst({Field::Dpt}, 3)}},
        {{sw_is(2), fld(Field::Dpt, nd::CmpOp::Eq, 80)},
         {inst({Field::Dpt}, 1)}},
        {{sw_is(3), fld(Field::Dpt, nd::CmpOp::Eq, 53)},
         {inst({Field::Dpt}, 3)}},
        // BUG: copied from the S2 block; should test sw == 3.
        {{sw_is(2), fld(Field::Dpt, nd::CmpOp::Eq, 80)},
         {inst({Field::Dpt}, 2)}},
    };
    c.imp_symptom.sw = 3;
    c.imp_symptom.packet.dpt = 80;
    c.imp_symptom.packet.sip = 10001;
    c.imp_symptom.packet.bucket = 2;
    c.imp_symptom.want_port = 2;

    c.nc_policy = Policy::par(
        Policy::match_sw(
            1, Policy::par(
                   Policy::match(
                       Field::Dpt, 80,
                       Policy::par(Policy::match(Field::Bucket, 1,
                                                 Policy::fwd(2)),
                                   Policy::match(Field::Bucket, 2,
                                                 Policy::fwd(3)))),
                   Policy::match(Field::Dpt, 53, Policy::fwd(3)))),
        Policy::par(
            Policy::match_sw(2, Policy::match(Field::Dpt, 80, Policy::fwd(1))),
            // BUG: should be match_sw(3).
            Policy::match_sw(2, Policy::match(Field::Dpt, 80, Policy::fwd(2)))));
    c.nc_symptom = {3, 1, c.imp_symptom.packet, 2};
    c.fixed = [](const ReplayOutcome& out, const ReplayOutcome&,
                 const std::vector<int64_t>&) {
      return out.delivered("H2", 80) > 0;
    };
  } else if (s.id == "Q2") {
    c.imp_program.name = "dns acl (buggy threshold)";
    c.imp_program.blocks = {
        // BUG: should be pkt.sip < 7.
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 53),
          fld(Field::Sip, nd::CmpOp::Lt, 6)},
         {inst({Field::Dpt, Field::Sip}, 2)}},
        {{sw_is(2), fld(Field::Dpt, nd::CmpOp::Eq, 53)},
         {inst({Field::Dpt}, 1)}},
    };
    c.imp_symptom.sw = 1;
    c.imp_symptom.packet.dpt = 53;
    c.imp_symptom.packet.sip = 6;
    c.imp_symptom.want_port = 2;
    // Pyretic: the threshold becomes an enumerated whitelist; the analogue
    // of the bug is a missing match arm for sip 6.
    netcore::PolicyPtr allow = Policy::match(Field::Sip, 5, Policy::fwd(2));
    for (int64_t ip = 4; ip >= 1; --ip) {
      allow = Policy::par(Policy::match(Field::Sip, ip, Policy::fwd(2)), allow);
    }
    c.nc_policy = Policy::par(
        Policy::match_sw(1, Policy::match(Field::Dpt, 53, allow)),
        Policy::match_sw(2, Policy::match(Field::Dpt, 53, Policy::fwd(1))));
    c.nc_symptom = {1, 1, c.imp_symptom.packet, 2};
    c.fixed = [](const ReplayOutcome& out, const ReplayOutcome& base,
                 const std::vector<int64_t>&) {
      return out.delivered("H17", 53) > base.delivered("H17", 53);
    };
  } else if (s.id == "Q3") {
    c.imp_program.name = "lb + stale firewall";
    c.imp_program.blocks = {
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 80),
          fld(Field::Sip, nd::CmpOp::Gt, 3)},
         {inst({Field::Dpt, Field::Sip}, 2)}},
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 80),
          fld(Field::Sip, nd::CmpOp::Le, 3)},
         {inst({Field::Dpt, Field::Sip}, 3)}},
        {{sw_is(2), fld(Field::Dpt, nd::CmpOp::Eq, 80)},
         {inst({Field::Dpt}, 1)}},
        // BUG: stale whitelist -- should admit the offloaded sips 2..3.
        {{sw_is(3), fld(Field::Dpt, nd::CmpOp::Eq, 80),
          fld(Field::Sip, nd::CmpOp::Gt, 3)},
         {inst({Field::Dpt, Field::Sip}, 1)}},
    };
    c.imp_symptom.sw = 3;
    c.imp_symptom.packet.dpt = 80;
    c.imp_symptom.packet.sip = 3;
    c.imp_symptom.want_port = 1;
    netcore::PolicyPtr fw = Policy::par(
        Policy::match(Field::Sip, 4, Policy::fwd(1)),
        Policy::par(Policy::match(Field::Sip, 5, Policy::fwd(1)),
                    Policy::match(Field::Sip, 6, Policy::fwd(1))));
    c.nc_policy = Policy::par(
        Policy::match_sw(
            1, Policy::match(
                   Field::Dpt, 80,
                   Policy::par(Policy::match(Field::Sip, 3, Policy::fwd(3)),
                               Policy::match(Field::Sip, 2, Policy::fwd(3))))),
        Policy::par(
            Policy::match_sw(2, Policy::match(Field::Dpt, 80, Policy::fwd(1))),
            Policy::match_sw(3, Policy::match(Field::Dpt, 80, fw))));
    c.nc_symptom = {3, 1, c.imp_symptom.packet, 1};
    c.fixed = [](const ReplayOutcome& out, const ReplayOutcome& base,
                 const std::vector<int64_t>&) {
      return out.delivered("H20b", 80) > base.delivered("H20b", 80);
    };
  } else if (s.id == "Q4") {
    c.imp_program.name = "reactive forwarding without packet_out";
    c.imp_program.blocks = {
        {{sw_is(1), fld(Field::Dpt, nd::CmpOp::Eq, 80)},
         {inst({Field::Dpt, Field::Sip}, 2, /*po=*/false)}},  // BUG
        {{sw_is(2), fld(Field::Dpt, nd::CmpOp::Eq, 80)},
         {inst({Field::Dpt, Field::Sip}, 1, /*po=*/false)}},  // BUG
    };
    c.imp_symptom.sw = 1;
    c.imp_symptom.packet.dpt = 80;
    c.imp_symptom.packet.sip = 10001;
    c.imp_symptom.want_port = 2;
    c.nc_supported = false;  // the Pyretic runtime releases packets itself
    c.fixed = [](const ReplayOutcome& out, const ReplayOutcome& base,
                 const std::vector<int64_t>&) {
      return out.delivered("H20", 80) > base.delivered("H20", 80);
    };
  } else {  // Q5
    c.imp_program.name = "mac learning with too-coarse matches";
    c.imp_program.blocks = {
        {{sw_is(5), fld(Field::Dip, nd::CmpOp::Eq, 32)},
         {inst({Field::InPort, Field::Dip}, 2)}},  // BUG: no Sip match
        {{sw_is(5), fld(Field::Dip, nd::CmpOp::Eq, 33)},
         {inst({Field::InPort, Field::Dip}, 3)}},
    };
    c.imp_symptom.sw = 5;
    c.imp_symptom.in_port = 1;
    c.imp_symptom.packet.sip = 34;
    c.imp_symptom.packet.dip = 32;
    c.imp_symptom.packet.dpt = 80;
    c.imp_symptom.want_port = 2;
    c.nc_policy = Policy::match_sw(
        5, Policy::par(Policy::match(Field::Dip, 32, Policy::fwd(2)),
                       Policy::match(Field::Dip, 33, Policy::fwd(3))));
    c.nc_match_fields = {Field::InPort, Field::Dip};  // BUG: no Sip
    c.nc_symptom = {5, 1, c.imp_symptom.packet, 2};
    c.fixed = [](const ReplayOutcome&, const ReplayOutcome&,
                 const std::vector<int64_t>& learned) {
      for (int64_t ip : learned) {
        if (ip == 34) return true;
      }
      return false;
    };
  }
  return c;
}

// The Backtester's acceptance rule, at its default alpha.
bool gate(const ReplayOutcome& out, const ReplayOutcome& base) {
  return backtest::side_effect_free(base, out, backtest::compare(base, out));
}

// The Table 3 loop, shared by both languages. For each scenario whose case
// `supported` accepts: build the static base and the workload, replay the
// buggy program, then replay every candidate of `generate` and count those
// that fix the symptom and pass the gate. `control(net, lc, cand)` returns
// the language's controller for `net` (cand is null for the buggy run);
// `describe(lc, cand)` names an accepted candidate.
template <typename Generate, typename Control, typename Describe>
std::vector<LangCell> run_scenarios(bool (*supported)(const LangCase&),
                                    Generate generate, Control control,
                                    Describe describe) {
  std::vector<LangCell> cells;
  for (const auto& s : scenario::all_scenarios()) {
    const LangCase lc = make_case(s);
    LangCell cell;
    cell.scenario = s.id;
    if (!supported(lc)) {
      cell.supported = false;
      cells.push_back(std::move(cell));
      continue;
    }

    const auto world_base = scenario::build_base(s);
    const auto work = s.make_workload(world_base->net());
    const auto candidates = generate(lc, s);
    using Candidate = typename decltype(candidates)::value_type;
    auto run_with = [&](const Candidate* cand) {
      sdn::Network net(world_base);
      const auto controller = control(net, lc, cand);
      net.set_controller(controller.get());
      sdn::replay(net, work);
      return LangRun{backtest::outcome_from_stats(net.stats()),
                     controller->learned()};
    };

    const LangRun base = run_with(nullptr);
    cell.generated = candidates.size();
    for (const auto& cand : candidates) {
      const LangRun run = run_with(&cand);
      if (lc.fixed(run.outcome, base.outcome, run.learned) &&
          gate(run.outcome, base.outcome)) {
        ++cell.passed;
        cell.accepted_descriptions.push_back(describe(lc, cand));
      }
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace

std::vector<LangCell> run_trema_scenarios() {
  return run_scenarios(
      [](const LangCase&) { return true; },
      [](const LangCase& lc, const scenario::Scenario&) {
        return imp::generate_repairs(lc.imp_program, lc.imp_symptom);
      },
      [](sdn::Network& net, const LangCase& lc, const imp::ImpChange* cand) {
        const bool manual =
            cand != nullptr && cand->kind == imp::ImpChangeKind::ManualInstall;
        if (manual) net.install(lc.imp_symptom.sw, cand->manual);
        return std::make_unique<imp::ImpController>(
            net, cand != nullptr && !manual ? cand->apply(lc.imp_program)
                                            : lc.imp_program);
      },
      [](const LangCase& lc, const imp::ImpChange& cand) {
        return cand.describe(lc.imp_program);
      });
}

std::vector<LangCell> run_pyretic_scenarios() {
  using netcore::NetcoreChange;
  return run_scenarios(
      [](const LangCase& lc) { return lc.nc_supported; },
      [](const LangCase& lc, const scenario::Scenario& s) {
        auto candidates = netcore::generate_repairs(lc.nc_policy, lc.nc_symptom);
        // The wildcard-entry bug (Q5) is repaired at the runtime layer:
        // also propose adding each absent match field.
        if (s.id == "Q5") {
          for (Field f : {Field::Sip, Field::Spt, Field::Smc}) {
            NetcoreChange c;
            c.kind = NetcoreChange::Kind::AddRuntimeMatchField;
            c.new_field = f;
            c.cost = 2.5;
            candidates.push_back(std::move(c));
          }
        }
        return candidates;
      },
      [](sdn::Network& net, const LangCase& lc, const NetcoreChange* cand) {
        netcore::PolicyPtr policy = lc.nc_policy;
        std::vector<Field> fields = lc.nc_match_fields;
        if (cand != nullptr) {
          switch (cand->kind) {
            case NetcoreChange::Kind::ManualInstall:
              net.install(lc.nc_symptom.sw, cand->manual);
              break;
            case NetcoreChange::Kind::AddRuntimeMatchField:
              fields.push_back(cand->new_field);
              break;
            default:
              policy = cand->apply(lc.nc_policy);
          }
        }
        return std::make_unique<netcore::NetcoreController>(
            net, std::move(policy), std::move(fields));
      },
      [](const LangCase& lc, const NetcoreChange& cand) {
        return cand.describe(lc.nc_policy);
      });
}

}  // namespace mp::langs
