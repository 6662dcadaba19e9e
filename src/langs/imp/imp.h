// Trema stand-in (Section 5.8): a small imperative controller language.
// A program is a packet_in handler: a list of guarded blocks; each block's
// guard is a conjunction of comparisons over the switch id and packet
// fields, and its body installs flow entries (send_flow_mod_add) and/or
// releases the buffered packet (send_packet_out). This covers the part of
// Ruby/Trema the paper's 42-rule meta model describes (Appendix B.2):
// conditionals, expressions over packet attributes, and the flow-mod API.
//
// The repair space mirrors the meta model: literals and comparison
// operators in guards, literal output ports, guard deletion, and manual
// installs. Trema being imperative changes the *frontend*, not the repair
// pipeline: candidates are backtested through the same simulator and KS
// gate as NDlog ones.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ndlog/ast.h"  // CmpOp
#include "sdn/network.h"

namespace mp::imp {

struct Operand {
  enum class Kind : uint8_t { Lit, SwitchId, Field };
  Kind kind = Kind::Lit;
  int64_t lit = 0;
  sdn::Field field = sdn::Field::Dpt;

  static Operand literal(int64_t v) { return {Kind::Lit, v, sdn::Field::Dpt}; }
  static Operand switch_id() { return {Kind::SwitchId, 0, sdn::Field::Dpt}; }
  static Operand pkt(sdn::Field f) { return {Kind::Field, 0, f}; }
  int64_t eval(int64_t sw, int64_t in_port, const sdn::Packet& p) const;
  std::string to_string() const;
};

struct Cond {
  Operand lhs;
  ndlog::CmpOp op = ndlog::CmpOp::Eq;
  Operand rhs;
  bool eval(int64_t sw, int64_t in_port, const sdn::Packet& p) const;
  std::string to_string() const;
};

struct Install {
  // Match fields copied from the packet plus the literal output port.
  std::vector<sdn::Field> match_fields;
  Operand out;                // usually a literal port
  bool send_packet_out = true;
  std::string to_string() const;
};

struct Block {
  std::vector<Cond> guard;    // conjunction
  std::vector<Install> body;
  std::string to_string() const;
};

struct Program {
  std::string name;
  std::vector<Block> blocks;
  std::string to_string() const;
  size_t site_count() const;  // mutable syntactic sites (for meta counts)
};

// Controller executing an imp program reactively.
class ImpController : public sdn::ControllerIface {
 public:
  ImpController(sdn::Network& net, Program program)
      : net_(&net), program_(std::move(program)) {}
  void on_packet_in(int64_t sw, int64_t in_port, const sdn::Packet& p,
                    eval::TagMask miss_tags) override;
  const Program& program() const { return program_; }
  size_t packet_ins() const { return packet_ins_; }
  // Source ips that triggered a PacketIn (Q5's learning check).
  const std::vector<int64_t>& learned() const { return learned_; }

 private:
  sdn::Network* net_;
  Program program_;
  size_t packet_ins_ = 0;
  std::vector<int64_t> learned_;
};

// --- Repair space -----------------------------------------------------

// A symptom for imperative programs: a concrete packet at a switch that
// should have been forwarded to `want_port` but was not.
struct ImpSymptom {
  int64_t sw = 0;
  int64_t in_port = 0;
  sdn::Packet packet;
  int64_t want_port = 0;
};

enum class ImpChangeKind : uint8_t {
  ChangeLit,      // guard literal
  ChangeOp,       // guard comparison operator
  DeleteCond,     // drop one conjunct
  ChangeOut,      // output-port literal
  AddPacketOut,   // add the forgotten send_packet_out (Q4)
  AddMatchField,  // add a match field to an install (Q5)
  ManualInstall,  // operator-installed entry
};

struct ImpChange {
  ImpChangeKind kind = ImpChangeKind::ChangeLit;
  size_t block = 0;
  size_t cond = 0;
  size_t install = 0;
  int64_t new_lit = 0;
  ndlog::CmpOp new_op = ndlog::CmpOp::Eq;
  sdn::Field new_field = sdn::Field::Sip;
  sdn::FlowEntry manual;
  double cost = 0.0;
  std::string describe(const Program& p) const;
  Program apply(const Program& p) const;
};

// Cost-ordered candidate enumeration driven by the symptom: for each block
// whose body could produce the wanted forwarding, propose minimal guard
// edits (the imperative analogue of the meta-provenance expansion).
std::vector<ImpChange> generate_repairs(const Program& p,
                                        const ImpSymptom& symptom);

}  // namespace mp::imp
