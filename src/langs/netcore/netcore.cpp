#include "langs/netcore/netcore.h"

#include <algorithm>

namespace mp::netcore {

namespace {

PolicyPtr make(Policy p) { return std::make_shared<Policy>(std::move(p)); }

struct Builder : Policy {};

}  // namespace

PolicyPtr Policy::fwd(int64_t port) {
  Policy p;
  p.kind_ = Kind::Fwd;
  p.value_ = port;
  return make(std::move(p));
}

PolicyPtr Policy::drop() {
  Policy p;
  p.kind_ = Kind::Drop;
  return make(std::move(p));
}

PolicyPtr Policy::modify(sdn::Field f, int64_t v, PolicyPtr then) {
  Policy p;
  p.kind_ = Kind::Modify;
  p.field_ = f;
  p.value_ = v;
  p.a_ = std::move(then);
  return make(std::move(p));
}

PolicyPtr Policy::match(sdn::Field f, int64_t v, PolicyPtr then) {
  Policy p;
  p.kind_ = Kind::Match;
  p.field_ = f;
  p.value_ = v;
  p.a_ = std::move(then);
  return make(std::move(p));
}

PolicyPtr Policy::match_sw(int64_t sw, PolicyPtr then) {
  Policy p;
  p.kind_ = Kind::Match;
  p.on_switch_ = true;
  p.value_ = sw;
  p.a_ = std::move(then);
  return make(std::move(p));
}

PolicyPtr Policy::par(PolicyPtr a, PolicyPtr b) {
  Policy p;
  p.kind_ = Kind::Parallel;
  p.a_ = std::move(a);
  p.b_ = std::move(b);
  return make(std::move(p));
}

PolicyPtr Policy::seq(PolicyPtr a, PolicyPtr b) {
  Policy p;
  p.kind_ = Kind::Sequential;
  p.a_ = std::move(a);
  p.b_ = std::move(b);
  return make(std::move(p));
}

std::string Policy::to_string() const {
  switch (kind_) {
    case Kind::Fwd: return "fwd(" + std::to_string(value_) + ")";
    case Kind::Drop: return "drop";
    case Kind::Modify:
      return std::string("modify(") + sdn::to_string(field_) + "=" +
             std::to_string(value_) + ") >> " + a_->to_string();
    case Kind::Match:
      return std::string("match(") +
             (on_switch_ ? "switch" : sdn::to_string(field_)) + "=" +
             std::to_string(value_) + ")[" + a_->to_string() + "]";
    case Kind::Parallel:
      return "(" + a_->to_string() + " | " + b_->to_string() + ")";
    case Kind::Sequential:
      return "(" + a_->to_string() + " >> " + b_->to_string() + ")";
  }
  return "?";
}

size_t Policy::size() const {
  size_t n = 1;
  if (a_) n += a_->size();
  if (b_) n += b_->size();
  return n;
}

std::vector<int64_t> eval_policy(const PolicyPtr& p, int64_t sw,
                                 int64_t in_port, const sdn::Packet& pkt) {
  if (!p) return {};
  switch (p->kind()) {
    case Policy::Kind::Fwd: return {p->value()};
    case Policy::Kind::Drop: return {};
    case Policy::Kind::Modify: {
      sdn::Packet copy = pkt;
      switch (p->field()) {
        case sdn::Field::Dpt: copy.dpt = p->value(); break;
        case sdn::Field::Sip: copy.sip = p->value(); break;
        case sdn::Field::Dip: copy.dip = p->value(); break;
        default: break;
      }
      return eval_policy(p->a(), sw, in_port, copy);
    }
    case Policy::Kind::Match: {
      const int64_t have = p->on_switch()
                               ? sw
                               : sdn::field_of(pkt, in_port, p->field());
      if (have != p->value()) return {};
      return eval_policy(p->a(), sw, in_port, pkt);
    }
    case Policy::Kind::Parallel: {
      auto xs = eval_policy(p->a(), sw, in_port, pkt);
      auto ys = eval_policy(p->b(), sw, in_port, pkt);
      xs.insert(xs.end(), ys.begin(), ys.end());
      return xs;
    }
    case Policy::Kind::Sequential: {
      // Simplified sequencing: the first policy's decision feeds the
      // second only if the first produced output (NetCore's >> on the
      // packet set).
      auto xs = eval_policy(p->a(), sw, in_port, pkt);
      if (xs.empty()) return {};
      return eval_policy(p->b(), sw, in_port, pkt);
    }
  }
  return {};
}

void NetcoreController::on_packet_in(int64_t sw, int64_t in_port,
                                     const sdn::Packet& p,
                                     eval::TagMask miss_tags) {
  if (std::find(learned_.begin(), learned_.end(), p.sip) == learned_.end()) {
    learned_.push_back(p.sip);
  }
  const auto ports = eval_policy(policy_, sw, in_port, p);
  sdn::FlowEntry e;
  for (sdn::Field f : match_fields_) {
    e.match.push_back({f, Value(sdn::field_of(p, in_port, f))});
  }
  e.priority = 0;
  e.tags = miss_tags;
  e.action = ports.empty() ? sdn::Action::drop() : sdn::Action::output(ports[0]);
  net_->install(sw, e);
  // The Pyretic runtime always handles the buffered packet itself.
  if (!ports.empty()) net_->packet_out(sw, ports[0], miss_tags);
}

namespace {

const Policy* at_path(const PolicyPtr& p, const std::vector<int>& path,
                      size_t i = 0) {
  if (!p) return nullptr;
  if (i == path.size()) return p.get();
  return at_path(path[i] == 0 ? p->a() : p->b(), path, i + 1);
}

PolicyPtr rebuild(const PolicyPtr& p, const std::vector<int>& path, size_t i,
                  const std::function<PolicyPtr(const PolicyPtr&)>& f) {
  if (!p) return p;
  if (i == path.size()) return f(p);
  Policy copy = *p;
  PolicyPtr child =
      rebuild(path[i] == 0 ? p->a() : p->b(), path, i + 1, f);
  // Reconstruct with the replaced child.
  switch (p->kind()) {
    case Policy::Kind::Modify:
      return Policy::modify(p->field(), p->value(), child);
    case Policy::Kind::Match:
      return p->on_switch() ? Policy::match_sw(p->value(), child)
                            : Policy::match(p->field(), p->value(), child);
    case Policy::Kind::Parallel:
      return path[i] == 0 ? Policy::par(child, p->b())
                          : Policy::par(p->a(), child);
    case Policy::Kind::Sequential:
      return path[i] == 0 ? Policy::seq(child, p->b())
                          : Policy::seq(p->a(), child);
    default:
      return p;
  }
}

void collect_matches(const PolicyPtr& p, std::vector<int>& path,
                     std::vector<std::vector<int>>& matches,
                     std::vector<std::vector<int>>& fwds) {
  if (!p) return;
  if (p->kind() == Policy::Kind::Match) matches.push_back(path);
  if (p->kind() == Policy::Kind::Fwd) fwds.push_back(path);
  if (p->a()) {
    path.push_back(0);
    collect_matches(p->a(), path, matches, fwds);
    path.pop_back();
  }
  if (p->b()) {
    path.push_back(1);
    collect_matches(p->b(), path, matches, fwds);
    path.pop_back();
  }
}

}  // namespace

std::string NetcoreChange::describe(const PolicyPtr& p) const {
  const Policy* node = at_path(p, path);
  switch (kind) {
    case Kind::ChangeMatchValue:
      if (node != nullptr) {
        return "Changing " +
               std::string(node->on_switch() ? "match(switch=" +
                                                   std::to_string(node->value())
                                             : "match(" +
                                                   std::string(sdn::to_string(
                                                       node->field())) +
                                                   "=" +
                                                   std::to_string(node->value())) +
               ") to =" + std::to_string(new_value);
      }
      return "Changing a match value";
    case Kind::DeleteMatch:
      return node != nullptr ? "Deleting " + std::string("match(...)") +
                                   " restriction at " + node->to_string()
                             : "Deleting a match restriction";
    case Kind::ChangeFwdPort:
      return "Changing fwd(...) to fwd(" + std::to_string(new_value) + ")";
    case Kind::AddRuntimeMatchField:
      return std::string("Matching additionally on ") +
             sdn::to_string(new_field);
    case Kind::ManualInstall:
      return "Manually installing a flow entry";
  }
  return "?";
}

PolicyPtr NetcoreChange::apply(const PolicyPtr& p) const {
  switch (kind) {
    case Kind::ChangeMatchValue:
      return rebuild(p, path, 0, [&](const PolicyPtr& n) {
        return n->on_switch() ? Policy::match_sw(new_value, n->a())
                              : Policy::match(n->field(), new_value, n->a());
      });
    case Kind::DeleteMatch:
      return rebuild(p, path, 0, [](const PolicyPtr& n) { return n->a(); });
    case Kind::ChangeFwdPort:
      return rebuild(p, path, 0, [&](const PolicyPtr&) {
        return Policy::fwd(new_value);
      });
    case Kind::AddRuntimeMatchField:
    case Kind::ManualInstall:
      return p;  // applied by the harness / runtime configuration
  }
  return p;
}

std::vector<NetcoreChange> generate_repairs(const PolicyPtr& p,
                                            const NetcoreSymptom& symptom) {
  std::vector<NetcoreChange> out;
  {
    NetcoreChange c;
    c.kind = NetcoreChange::Kind::ManualInstall;
    c.manual.match = {{sdn::Field::Dpt, Value(symptom.packet.dpt)},
                      {sdn::Field::Sip, Value(symptom.packet.sip)}};
    c.manual.priority = 0;
    c.manual.action = sdn::Action::output(symptom.want_port);
    c.cost = 2.0;
    out.push_back(std::move(c));
  }
  std::vector<int> path;
  std::vector<std::vector<int>> matches, fwds;
  collect_matches(p, path, matches, fwds);
  for (const auto& mpath : matches) {
    const Policy* node = at_path(p, mpath);
    if (node == nullptr) continue;
    const int64_t have =
        node->on_switch()
            ? symptom.sw
            : sdn::field_of(symptom.packet, symptom.in_port, node->field());
    if (have == node->value()) continue;  // this match already passes
    // Equality-only: the lone value rewrite (no operator mutations) ...
    NetcoreChange c;
    c.kind = NetcoreChange::Kind::ChangeMatchValue;
    c.path = mpath;
    c.new_value = have;
    c.cost = std::llabs(have - node->value()) == 1 ? 1.0 : 2.0;
    out.push_back(std::move(c));
    // ... or dropping the restriction entirely.
    NetcoreChange d;
    d.kind = NetcoreChange::Kind::DeleteMatch;
    d.path = mpath;
    d.cost = 4.0;
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const NetcoreChange& a, const NetcoreChange& b) {
              return a.cost < b.cost;
            });
  constexpr size_t kMaxCandidates = 16;  // the cheapest are kept
  if (out.size() > kMaxCandidates) out.resize(kMaxCandidates);
  return out;
}

}  // namespace mp::netcore
