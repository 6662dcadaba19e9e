// Pyretic stand-in (Section 5.8, Appendix B.3): a NetCore-style policy
// algebra. Policies compose from primitive actions (fwd/drop/modify),
// equality matches (restriction), parallel (|) and sequential (>>)
// composition -- Figure 4 of the Pyretic paper, which the meta model in
// Appendix B.3 encodes. Two properties of the abstraction matter for the
// reproduction and fall out of this design naturally:
//   - matches are equality-only, so operator-mutation repairs do not
//     exist (the paper: fewer Q1 candidates for Pyretic), and
//   - the runtime releases buffered packets itself, so Q4 ("forgotten
//     packets") cannot be expressed at all.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sdn/network.h"

namespace mp::netcore {

class Policy;
using PolicyPtr = std::shared_ptr<const Policy>;

class Policy {
 public:
  enum class Kind : uint8_t { Fwd, Drop, Modify, Match, Parallel, Sequential };

  static PolicyPtr fwd(int64_t port);
  static PolicyPtr drop();
  static PolicyPtr modify(sdn::Field f, int64_t v, PolicyPtr then);
  static PolicyPtr match(sdn::Field f, int64_t v, PolicyPtr then);
  static PolicyPtr match_sw(int64_t sw, PolicyPtr then);  // switch restriction
  static PolicyPtr par(PolicyPtr a, PolicyPtr b);
  static PolicyPtr seq(PolicyPtr a, PolicyPtr b);

  Kind kind() const { return kind_; }
  sdn::Field field() const { return field_; }
  bool on_switch() const { return on_switch_; }
  int64_t value() const { return value_; }
  const PolicyPtr& a() const { return a_; }
  const PolicyPtr& b() const { return b_; }

  std::string to_string() const;
  size_t size() const;  // number of AST nodes

 private:
  Kind kind_ = Kind::Drop;
  sdn::Field field_ = sdn::Field::Dpt;
  bool on_switch_ = false;
  int64_t value_ = 0;
  PolicyPtr a_, b_;
};

// Evaluates the policy on a packet at (sw, in_port): the set of output
// ports (empty = drop). Modifications apply to copies, Pyretic-style.
std::vector<int64_t> eval_policy(const PolicyPtr& p, int64_t sw,
                                 int64_t in_port, const sdn::Packet& pkt);

// Reactive controller: on PacketIn, evaluates the policy, installs an
// exact-match entry and -- as the Pyretic runtime does -- always releases
// the buffered packet.
class NetcoreController : public sdn::ControllerIface {
 public:
  NetcoreController(sdn::Network& net, PolicyPtr policy,
                    std::vector<sdn::Field> match_fields = {sdn::Field::Dpt,
                                                            sdn::Field::Sip,
                                                            sdn::Field::Bucket})
      : net_(&net), policy_(std::move(policy)),
        match_fields_(std::move(match_fields)) {}
  void on_packet_in(int64_t sw, int64_t in_port, const sdn::Packet& p,
                    eval::TagMask miss_tags) override;
  const std::vector<int64_t>& learned() const { return learned_; }

 private:
  sdn::Network* net_;
  PolicyPtr policy_;
  std::vector<sdn::Field> match_fields_;
  std::vector<int64_t> learned_;
};

// --- Repair space -----------------------------------------------------

struct NetcoreSymptom {
  int64_t sw = 0;
  int64_t in_port = 0;
  sdn::Packet packet;
  int64_t want_port = 0;
};

struct NetcoreChange {
  enum class Kind : uint8_t { ChangeMatchValue, DeleteMatch, ChangeFwdPort,
                              AddRuntimeMatchField, ManualInstall };
  Kind kind = Kind::ChangeMatchValue;
  std::vector<int> path;  // 0 = a(), 1 = b(), from the root
  int64_t new_value = 0;
  sdn::Field new_field = sdn::Field::Sip;  // for AddRuntimeMatchField
  sdn::FlowEntry manual;
  double cost = 0.0;
  std::string describe(const PolicyPtr& p) const;
  PolicyPtr apply(const PolicyPtr& p) const;
};

// Mutation enumeration guided by the symptom. Note the absence of
// operator mutations: match() only supports equality.
std::vector<NetcoreChange> generate_repairs(const PolicyPtr& p,
                                            const NetcoreSymptom& symptom);

}  // namespace mp::netcore
