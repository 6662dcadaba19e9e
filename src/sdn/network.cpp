#include "sdn/network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace mp::sdn {

namespace {

// PathMemo slot layout, low bits first: the visited switches' signature
// (bit min(dense id, 39) per switch) 40 | host id 16 | hops 6 | outcome 2.
// Outcome 0 marks an empty slot.
constexpr unsigned kSigBits = 40;
constexpr unsigned kHostShift = 40;
constexpr unsigned kHopsShift = 56;
constexpr unsigned kOutcomeShift = 62;
constexpr int64_t kMaxHost = int64_t{1} << 16;
constexpr size_t kMaxHops = 64;
enum Outcome : uint64_t { kNoOutcome, kDelivered, kDropped, kExternal };

uint64_t sig_bit(const Switch& s) {
  return uint64_t{1} << std::min<uint32_t>(s.dense(), kSigBits - 1);
}

// Calls fn(b) for every set bit b of `mask`.
template <class Fn>
void for_each_tag(eval::TagMask mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1)
    fn(static_cast<size_t>(std::countr_zero(mask)));
}

}  // namespace

HostNames::HostNames(const std::vector<Host>& hosts) {
  names_.reserve(hosts.size());
  for (const Host& h : hosts) names_.push_back(h.name);
  std::sort(names_.begin(), names_.end());
  names_.erase(std::unique(names_.begin(), names_.end()), names_.end());
  ids_.reserve(hosts.size());
  for (const Host& h : hosts) ids_.try_emplace(h.id, number(h.name));
}

uint32_t HostNames::number(std::string_view name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  return static_cast<uint32_t>(
      it != names_.end() && *it == name ? it - names_.begin() : size());
}

uint64_t DeliveryStats::delivered(std::string_view host, int64_t dpt) const {
  if (hosts == nullptr) return 0;
  const uint32_t h = hosts->number(host);
  // Hosts that share a name share a number, so a key may repeat.
  uint64_t n = 0;
  for (const PortTally& t : per_host_port) {
    if (t.host == h && t.dpt == dpt) n += t.packets;
  }
  return n;
}

Network::Network(std::shared_ptr<const WorldBase> base)
    : base_(std::move(base)) {
  if (base_ == nullptr) throw std::invalid_argument("Network: null base");
}

WorldBase::WorldBase(Network net) : net_(std::move(net)) {
  if (net_.base() != nullptr)
    throw std::invalid_argument("WorldBase: the network is on a base");
  net_.number_hosts();
  if (obs::enabled()) {
    static obs::Counter& builds =
        obs::Registry::global().counter("sdn.base.builds");
    builds.add(1);
  }
}

const Network& Network::topology() const {
  return base_ != nullptr ? base_->net() : *this;
}

void Network::own_topology(const char* op) const {
  if (base_ != nullptr) {
    throw std::logic_error(std::string("Network::") + op +
                           ": a world on a WorldBase shares its topology");
  }
}

const FlowTable* Network::dynamic_layer(const Switch& s) const {
  // Only a dirty switch can have one; a self-built world has none.
  if ((dirty_ & sig_bit(s)) == 0 || s.dense() >= dynamic_.size())
    return nullptr;
  const FlowTable& t = dynamic_[s.dense()];
  return t.size() == 0 ? nullptr : &t;
}

// add_host, link and external change the topology through add_switch
// first, so on a base they throw before changing anything.
Switch& Network::add_switch(int64_t id) {
  own_topology("add_switch");
  return switches_.try_emplace(id, id, static_cast<uint32_t>(switches_.size()))
      .first->second;
}

Switch* Network::find_switch(int64_t id) {
  own_topology("find_switch");
  auto it = switches_.find(id);
  return it == switches_.end() ? nullptr : &it->second;
}

const Switch* Network::find_switch(int64_t id) const {
  const auto& switches = topology().switches_;
  auto it = switches.find(id);
  return it == switches.end() ? nullptr : &it->second;
}

Host& Network::add_host(Host h) {
  if (names_ != nullptr) {
    throw std::logic_error(
        "Network::add_host: the hosts were numbered at the first delivery");
  }
  Switch& sw = add_switch(h.sw);
  sw.connect(h.port, PortPeer{PortPeer::Kind::Host, h.id, 0});
  hosts_.push_back(std::move(h));
  return hosts_.back();
}

const Host* Network::host_by_ip(int64_t ip) const {
  for (const Host& h : hosts())
    if (h.ip == ip) return &h;
  return nullptr;
}

std::vector<int64_t> Network::switch_ids() const {
  const auto& switches = topology().switches_;
  std::vector<int64_t> out;
  out.reserve(switches.size());
  for (const auto& [id, sw] : switches) out.push_back(id);
  return out;
}

void Network::link(int64_t sw_a, int64_t port_a, int64_t sw_b, int64_t port_b) {
  add_switch(sw_a).connect(port_a,
                           PortPeer{PortPeer::Kind::Switch, sw_b, port_b});
  add_switch(sw_b).connect(port_b,
                           PortPeer{PortPeer::Kind::Switch, sw_a, port_a});
}

void Network::external(int64_t sw, int64_t port) {
  add_switch(sw).connect(port, PortPeer{PortPeer::Kind::External, 0, 0});
}

void Network::install(int64_t sw, FlowEntry entry) {
  const Switch* s = std::as_const(*this).find_switch(sw);
  if (s == nullptr) return;
  ++stats_.flow_mods;
  recorder_.record_ctrl(CtrlMsgKind::FlowMod, sw, clock_);
  if (base_ == nullptr) {
    switches_.find(sw)->second.table().add(entry);
    return;
  }
  if (dynamic_.empty()) dynamic_.resize(base_->net().switch_count());
  dynamic_[s->dense()].add(entry);
  dirty_ |= sig_bit(*s);
}

void Network::packet_out(int64_t sw, int64_t port, eval::TagMask tags) {
  ++stats_.packet_outs;
  recorder_.record_ctrl(CtrlMsgKind::PacketOut, sw, clock_);
  pending_outs_.push_back(PendingOut{sw, port, tags});
}

void Network::set_tag_mode(bool on, eval::TagMask active) {
  tag_mode_ = on;
  active_tags_ = active;
  if (!on) return;
  tag_stats_.resize(eval::kMaxTags);
  for_each_tag(active_tags_, [&](size_t b) { size_tallies(tag_stats_[b]); });
}

const DeliveryStats& Network::tag_stats(size_t tag_index) const {
  static const DeliveryStats kEmpty;
  return tag_index < tag_stats_.size() ? tag_stats_[tag_index] : kEmpty;
}

void Network::number_hosts() {
  if (names_ != nullptr) return;
  names_ = base_ != nullptr ? base_->net().names_
                            : std::make_shared<const HostNames>(hosts_);
}

void Network::size_tallies(DeliveryStats& st) const {
  if (names_ == nullptr) return;
  st.hosts = names_;
  st.per_host.resize(names_->size());
  const std::vector<PortTally>& keys = stats_.per_host_port;
  for (size_t k = st.per_host_port.size(); k < keys.size(); ++k) {
    st.per_host_port.push_back({keys[k].host, keys[k].dpt, 0});
  }
}

void Network::deliver(int64_t host, int64_t dpt, eval::TagMask tags) {
  auto it = key_ids_.find({host, dpt});
  if (it == key_ids_.end()) {
    number_hosts();
    stats_.per_host_port.push_back({names_->number_of_id(host), dpt, 0});
    const auto key = static_cast<uint32_t>(stats_.per_host_port.size() - 1);
    it = key_ids_.emplace(std::pair{host, dpt}, key).first;
    size_tallies(stats_);
    if (tag_mode_) {
      for_each_tag(active_tags_,
                   [&](size_t b) { size_tallies(tag_stats_[b]); });
    }
  }
  const size_t k = it->second;
  const uint32_t h = stats_.per_host_port[k].host;
  const uint64_t n = tag_mode_ ? std::popcount(tags) : 1;
  stats_.per_host[h] += n;
  stats_.per_host_port[k].packets += n;
  if (!tag_mode_) return;
  for_each_tag(tags, [&](size_t b) {
    DeliveryStats& st = tag_stats_[b];
    ++st.per_host[h];
    ++st.per_host_port[k].packets;
  });
}

void Network::count(size_t DeliveryStats::*counter, eval::TagMask tags) {
  if (!tag_mode_) {
    ++(stats_.*counter);
    return;
  }
  stats_.*counter += static_cast<size_t>(std::popcount(tags));
  for_each_tag(tags, [&](size_t b) { ++(tag_stats_[b].*counter); });
}

void Network::record_batch(const std::vector<Injection>& work, PathMemo& memo) {
  // Only a plain-mode walk proves a path holds for every tag: one outcome
  // from a kAllTags start means every hop's winning rule carries kAllTags.
  const bool fill = base_ != nullptr && !tag_mode_;
  memo.slots_.assign(work.size(), 0);
  memo.base_ = fill ? base_ : nullptr;
  memo.entries_ = 0;
  for (size_t i = 0; i < work.size(); ++i) {
    const Injection& inj = work[i];
    ++clock_;
    const uint64_t slot = walk(inj.sw, inj.port, inj.packet);
    if (fill && slot != 0) {
      memo.slots_[i] = slot;
      ++memo.entries_;
    }
  }
  if (obs::enabled()) {
    static obs::Counter& entries =
        obs::Registry::global().counter("sdn.memo.entries");
    entries.add(memo.entries_);
  }
}

void Network::replay_batch(const std::vector<Injection>& work,
                           const PathMemo& memo) {
  const eval::TagMask tags = tag_mode_ ? active_tags_ : eval::kAllTags;
  if (memo.base_ == nullptr || memo.base_ != base_ ||
      memo.slots_.size() != work.size() || tags == 0) {
    for (const Injection& inj : work) inject(inj.sw, inj.port, inj.packet);
    return;
  }
  size_t hits = 0;
  size_t walks = 0;
  for (size_t i = 0; i < work.size(); ++i) {
    const Injection& inj = work[i];
    const uint64_t slot = memo.slots_[i];
    ++clock_;
    // Bits 0..39 of a slot are its path signature, the only bits dirty_
    // can hold.
    if (slot == 0 || (slot & dirty_) != 0) {
      walks += slot != 0;
      walk(inj.sw, inj.port, inj.packet);
      continue;
    }
    ++hits;
    stats_.hops += (slot >> kHopsShift) & (kMaxHops - 1);
    switch (slot >> kOutcomeShift) {
      case kDelivered:
        deliver(static_cast<int64_t>((slot >> kHostShift) & (kMaxHost - 1)),
                inj.packet.dpt, tags);
        break;
      case kDropped:
        count(&DeliveryStats::dropped, tags);
        break;
      default:
        count(&DeliveryStats::external, tags);
    }
  }
  memo_hits_ += hits;
  memo_walks_ += walks;
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& hit_counter = reg.counter("sdn.memo.hits");
    static obs::Counter& walk_counter = reg.counter("sdn.memo.walks");
    hit_counter.add(hits);
    walk_counter.add(walks);
  }
}

void Network::inject(int64_t sw, int64_t in_port, const Packet& p) {
  ++clock_;
  walk(sw, in_port, p);
}

uint64_t Network::walk(int64_t sw, int64_t in_port, const Packet& p) {
  // What a PathMemo slot keeps: the switches visited, the outcomes, and
  // whether every hop found its switch and matched without a miss.
  const size_t hops0 = stats_.hops;
  uint64_t sig = 0;
  bool static_walk = true;
  size_t outcomes = 0;
  Outcome outcome = kNoOutcome;
  int64_t host = 0;

  // Accounts a terminal outcome for every tag in `tags`. Outside tag mode
  // this is a single bump; in tag mode each tag also gets its own tallies.
  // (Joint outcomes still differ from sequential ones for some Q1
  // candidates: ROADMAP.md, item 10.)
  auto drop = [&](eval::TagMask tags) {
    count(&DeliveryStats::dropped, tags);
    ++outcomes;
    outcome = kDropped;
  };
  // Where `tags` go after leaving switch `s` through `port`: a terminal
  // outcome, or the next hop's ingress, which is returned.
  auto egress = [&](const Switch& s, int64_t port,
                    eval::TagMask tags) -> const PortPeer* {
    const PortPeer* peer = s.peer(port);
    if (peer == nullptr || peer->kind == PortPeer::Kind::None) {
      drop(tags);
    } else if (peer->kind == PortPeer::Kind::Host) {
      deliver(peer->peer, p.dpt, tags);
      ++outcomes;
      outcome = kDelivered;
      host = peer->peer;
    } else if (peer->kind == PortPeer::Kind::External) {
      count(&DeliveryStats::external, tags);
      ++outcomes;
      outcome = kExternal;
    } else {
      return peer;
    }
    return nullptr;
  };

  using Where = std::pair<int64_t, int64_t>;
  // Frontier of disjoint tag groups: all tags in a group sit at the same
  // position and have behaved identically so far. In normal operation the
  // frontier is a single kAllTags group, so this is exactly the plain
  // walk; in multi-query mode groups split only where candidate flow
  // tables genuinely diverge (Section 4.4's shared computation).
  std::map<Where, eval::TagMask> frontier;
  frontier[{sw, in_port}] = tag_mode_ ? active_tags_ : eval::kAllTags;

  size_t hop_budget = 4096;
  for (int wave = 0; wave < 8 && !frontier.empty(); ++wave) {
    std::map<Where, eval::TagMask> misses;
    std::vector<std::pair<Where, eval::TagMask>> work(frontier.begin(),
                                                      frontier.end());
    frontier.clear();
    while (!work.empty()) {
      auto [where, tags] = work.back();
      work.pop_back();
      // Once the budget is spent, every group still in flight drops.
      if (hop_budget == 0) {
        drop(tags);
        continue;
      }
      --hop_budget;
      ++stats_.hops;
      const Switch* s = std::as_const(*this).find_switch(where.first);
      if (s == nullptr) {
        static_walk = false;
        drop(tags);
        continue;
      }
      sig |= sig_bit(*s);
      const eval::TagMask missed = s->table().partition(
          p, where.second, tags,
          [&](const FlowRule& r, eval::TagMask sub) {
            if (r.action.kind == Action::Kind::Drop) {
              drop(sub);
            } else if (const PortPeer* next = egress(*s, r.action.port, sub)) {
              work.emplace_back(Where{next->peer, next->peer_port}, sub);
            }
          },
          dynamic_layer(*s));
      if (missed) {
        static_walk = false;
        misses[where] |= missed;
      }
    }

    if (misses.empty()) break;
    if (controller_ == nullptr) {
      for (const auto& [where, mask] : misses) drop(mask);
      break;
    }
    for (const auto& [where, mask] : misses) {
      ++stats_.packet_ins;
      if (tag_mode_) {
        for_each_tag(mask, [&](size_t b) { ++tag_stats_[b].packet_ins; });
      }
      recorder_.record_ctrl(CtrlMsgKind::PacketIn, where.first, clock_);
      pending_outs_.clear();
      controller_->on_packet_in(where.first, where.second, p, mask);
      // Resume the released tags along their PacketOut ports; the rest of
      // the buffered packet's worlds are lost (Q4's failure mode).
      eval::TagMask unreleased = mask;
      for (const PendingOut& out : pending_outs_) {
        if (out.sw != where.first) continue;
        const eval::TagMask sub = unreleased & out.tags;
        if (sub == 0) continue;
        unreleased &= ~sub;
        const Switch* s = std::as_const(*this).find_switch(where.first);
        if (s == nullptr) {
          drop(sub);
        } else if (const PortPeer* next = egress(*s, out.port, sub)) {
          frontier[{next->peer, next->peer_port}] |= sub;
        }
      }
      if (unreleased) drop(unreleased);
    }
  }
  // Tags still in flight when the wave cap is hit are lost.
  for (const auto& [where, tags] : frontier) drop(tags);

  // A walk with a miss may have changed a table, and one with several
  // outcomes split its tags, so neither is a static path.
  const size_t hops = stats_.hops - hops0;
  if (!static_walk || outcomes != 1 || hops >= kMaxHops ||
      (sig & dirty_) != 0 ||
      (outcome == kDelivered && (host < 0 || host >= kMaxHost))) {
    return 0;
  }
  const uint64_t host_bits = outcome == kDelivered ? uint64_t(host) : 0;
  return uint64_t{outcome} << kOutcomeShift | uint64_t{hops} << kHopsShift |
         host_bits << kHostShift | sig;
}

}  // namespace mp::sdn
