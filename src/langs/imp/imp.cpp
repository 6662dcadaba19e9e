#include "langs/imp/imp.h"

#include <algorithm>

namespace mp::imp {

int64_t Operand::eval(int64_t sw, int64_t in_port, const sdn::Packet& p) const {
  switch (kind) {
    case Kind::Lit: return lit;
    case Kind::SwitchId: return sw;
    case Kind::Field: return sdn::field_of(p, in_port, field);
  }
  return 0;
}

std::string Operand::to_string() const {
  switch (kind) {
    case Kind::Lit: return std::to_string(lit);
    case Kind::SwitchId: return "sw";
    case Kind::Field: return std::string("pkt.") + sdn::to_string(field);
  }
  return "?";
}

bool Cond::eval(int64_t sw, int64_t in_port, const sdn::Packet& p) const {
  return ndlog::cmp_eval(op, Value(lhs.eval(sw, in_port, p)),
                         Value(rhs.eval(sw, in_port, p)));
}

std::string Cond::to_string() const {
  return lhs.to_string() + " " + ndlog::to_string(op) + " " + rhs.to_string();
}

std::string Install::to_string() const {
  std::string out = "install(match=[";
  for (size_t i = 0; i < match_fields.size(); ++i) {
    if (i) out += ",";
    out += sdn::to_string(match_fields[i]);
  }
  out += "], out=" + this->out.to_string() + ")";
  if (send_packet_out) out += " + packet_out";
  return out;
}

std::string Block::to_string() const {
  std::string out = "if (";
  for (size_t i = 0; i < guard.size(); ++i) {
    if (i) out += " && ";
    out += guard[i].to_string();
  }
  out += ") { ";
  for (const auto& in : body) out += in.to_string() + "; ";
  out += "}";
  return out;
}

std::string Program::to_string() const {
  std::string out = "def packet_in(sw, pkt):  # " + name + "\n";
  for (const auto& b : blocks) out += "  " + b.to_string() + "\n";
  return out;
}

size_t Program::site_count() const {
  size_t n = 0;
  for (const auto& b : blocks) {
    n += b.guard.size() * 2;  // literal + operator per conjunct
    n += b.body.size();       // output port per install
  }
  return n;
}

void ImpController::on_packet_in(int64_t sw, int64_t in_port,
                                 const sdn::Packet& p,
                                 eval::TagMask miss_tags) {
  ++packet_ins_;
  if (std::find(learned_.begin(), learned_.end(), p.sip) == learned_.end()) {
    learned_.push_back(p.sip);
  }
  for (const Block& b : program_.blocks) {
    bool ok = true;
    for (const Cond& c : b.guard) {
      if (!c.eval(sw, in_port, p)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (const Install& in : b.body) {
      sdn::FlowEntry e;
      for (sdn::Field f : in.match_fields) {
        e.match.push_back({f, Value(sdn::field_of(p, in_port, f))});
      }
      e.priority = 0;
      e.tags = miss_tags;
      const int64_t port = in.out.eval(sw, in_port, p);
      e.action = port < 0 ? sdn::Action::drop() : sdn::Action::output(port);
      net_->install(sw, e);
      if (in.send_packet_out && port >= 0) {
        net_->packet_out(sw, port, miss_tags);
      }
    }
  }
}

std::string ImpChange::describe(const Program& p) const {
  auto guard_str = [&](const Cond& c) { return c.to_string(); };
  switch (kind) {
    case ImpChangeKind::ChangeLit: {
      const Cond& c = p.blocks[block].guard[cond];
      Cond after = c;
      after.rhs = Operand::literal(new_lit);
      return "Changing " + guard_str(c) + " to " + guard_str(after);
    }
    case ImpChangeKind::ChangeOp: {
      const Cond& c = p.blocks[block].guard[cond];
      Cond after = c;
      after.op = new_op;
      return "Changing " + guard_str(c) + " to " + guard_str(after);
    }
    case ImpChangeKind::DeleteCond:
      return "Deleting guard " + guard_str(p.blocks[block].guard[cond]);
    case ImpChangeKind::ChangeOut:
      return "Changing output port to " + std::to_string(new_lit);
    case ImpChangeKind::AddPacketOut:
      return "Adding the missing send_packet_out call";
    case ImpChangeKind::AddMatchField:
      return std::string("Adding match field ") + sdn::to_string(new_field) +
             " to " + p.blocks[block].body[install].to_string();
    case ImpChangeKind::ManualInstall:
      return "Manually installing a flow entry";
  }
  return "?";
}

Program ImpChange::apply(const Program& p) const {
  Program out = p;
  switch (kind) {
    case ImpChangeKind::ChangeLit:
      out.blocks[block].guard[cond].rhs = Operand::literal(new_lit);
      break;
    case ImpChangeKind::ChangeOp:
      out.blocks[block].guard[cond].op = new_op;
      break;
    case ImpChangeKind::DeleteCond:
      out.blocks[block].guard.erase(out.blocks[block].guard.begin() +
                                    static_cast<long>(cond));
      break;
    case ImpChangeKind::ChangeOut:
      out.blocks[block].body[install].out = Operand::literal(new_lit);
      break;
    case ImpChangeKind::AddPacketOut:
      out.blocks[block].body[install].send_packet_out = true;
      break;
    case ImpChangeKind::AddMatchField:
      out.blocks[block].body[install].match_fields.push_back(new_field);
      break;
    case ImpChangeKind::ManualInstall:
      break;  // applied by the harness
  }
  return out;
}

std::vector<ImpChange> generate_repairs(const Program& p,
                                        const ImpSymptom& symptom) {
  std::vector<ImpChange> out;
  // Manual install first (cheapest structural repair, as in Table 2's A).
  {
    ImpChange c;
    c.kind = ImpChangeKind::ManualInstall;
    c.manual.match = {{sdn::Field::Dpt, Value(symptom.packet.dpt)},
                      {sdn::Field::Sip, Value(symptom.packet.sip)}};
    c.manual.priority = 0;
    c.manual.action = sdn::Action::output(symptom.want_port);
    c.cost = 2.0;
    out.push_back(std::move(c));
  }
  for (size_t bi = 0; bi < p.blocks.size(); ++bi) {
    const Block& b = p.blocks[bi];
    // The block must be capable of producing the wanted output.
    bool relevant = false;
    for (const Install& in : b.body) {
      const int64_t port =
          in.out.eval(symptom.sw, symptom.in_port, symptom.packet);
      if (port == symptom.want_port) relevant = true;
    }
    if (!relevant) continue;
    // Find the failing conjuncts for the symptom packet.
    std::vector<size_t> failing;
    for (size_t ci = 0; ci < b.guard.size(); ++ci) {
      if (!b.guard[ci].eval(symptom.sw, symptom.in_port, symptom.packet)) {
        failing.push_back(ci);
      }
    }
    if (failing.empty()) {
      // The block already fires for the symptom packet: the bug is in its
      // body. Propose the forgotten packet_out (Q4) and finer match
      // fields (Q5) for each install.
      for (size_t ii = 0; ii < b.body.size(); ++ii) {
        if (!b.body[ii].send_packet_out) {
          ImpChange ch;
          ch.kind = ImpChangeKind::AddPacketOut;
          ch.block = bi;
          ch.install = ii;
          ch.cost = 3.0;
          out.push_back(std::move(ch));
        }
        for (sdn::Field f : {sdn::Field::Sip, sdn::Field::Spt,
                             sdn::Field::Smc, sdn::Field::Proto}) {
          bool present = false;
          for (sdn::Field g : b.body[ii].match_fields) {
            if (g == f) present = true;
          }
          if (present) continue;
          ImpChange ch;
          ch.kind = ImpChangeKind::AddMatchField;
          ch.block = bi;
          ch.install = ii;
          ch.new_field = f;
          ch.cost = 2.5;
          out.push_back(std::move(ch));
        }
      }
      continue;
    }
    if (failing.size() != 1) continue;  // single-edit repairs only
    const size_t ci = failing[0];
    const Cond& c = b.guard[ci];
    const int64_t lv = c.lhs.eval(symptom.sw, symptom.in_port, symptom.packet);
    // (a) literal rewrite (rhs literal only, as in real Trema conditions).
    if (c.rhs.kind == Operand::Kind::Lit) {
      int64_t wanted = lv;
      switch (c.op) {
        case ndlog::CmpOp::Lt: wanted = lv + 1; break;
        case ndlog::CmpOp::Gt: wanted = lv - 1; break;
        default: wanted = lv; break;
      }
      if (wanted != c.rhs.lit) {
        ImpChange ch;
        ch.kind = ImpChangeKind::ChangeLit;
        ch.block = bi;
        ch.cond = ci;
        ch.new_lit = wanted;
        ch.cost = std::llabs(wanted - c.rhs.lit) == 1 ? 1.0 : 2.0;
        out.push_back(std::move(ch));
      }
    }
    // (b) operator rewrite.
    const int64_t rv = c.rhs.eval(symptom.sw, symptom.in_port, symptom.packet);
    for (ndlog::CmpOp op : ndlog::all_cmp_ops()) {
      if (op == c.op) continue;
      if (!ndlog::cmp_eval(op, Value(lv), Value(rv))) continue;
      ImpChange ch;
      ch.kind = ImpChangeKind::ChangeOp;
      ch.block = bi;
      ch.cond = ci;
      ch.new_op = op;
      ch.cost = 2.0;
      out.push_back(std::move(ch));
    }
    // (c) guard deletion.
    {
      ImpChange ch;
      ch.kind = ImpChangeKind::DeleteCond;
      ch.block = bi;
      ch.cond = ci;
      ch.cost = 4.0;
      out.push_back(std::move(ch));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ImpChange& a, const ImpChange& b) { return a.cost < b.cost; });
  constexpr size_t kMaxCandidates = 16;  // the cheapest are kept
  if (out.size() > kMaxCandidates) out.resize(kMaxCandidates);
  return out;
}

}  // namespace mp::imp
