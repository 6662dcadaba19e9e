#include "sdn/network.h"

#include <algorithm>
#include <bit>

namespace mp::sdn {

namespace {

// Calls fn(b) for every set bit b of `mask`.
template <class Fn>
void for_each_tag(eval::TagMask mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1)
    fn(static_cast<size_t>(std::countr_zero(mask)));
}

}  // namespace

Switch& Network::add_switch(int64_t id) {
  auto [it, inserted] = switches_.try_emplace(id, Switch(id));
  return it->second;
}

Switch* Network::find_switch(int64_t id) {
  auto it = switches_.find(id);
  return it == switches_.end() ? nullptr : &it->second;
}

const Switch* Network::find_switch(int64_t id) const {
  auto it = switches_.find(id);
  return it == switches_.end() ? nullptr : &it->second;
}

Host& Network::add_host(Host h) {
  Switch& sw = add_switch(h.sw);
  sw.connect(h.port, PortPeer{PortPeer::Kind::Host, h.id, 0});
  hosts_.push_back(std::move(h));
  return hosts_.back();
}

const Host* Network::host_by_ip(int64_t ip) const {
  for (const Host& h : hosts_)
    if (h.ip == ip) return &h;
  return nullptr;
}

const Host* Network::host_by_id(int64_t id) const {
  for (const Host& h : hosts_)
    if (h.id == id) return &h;
  return nullptr;
}

std::vector<int64_t> Network::switch_ids() const {
  std::vector<int64_t> out;
  out.reserve(switches_.size());
  for (const auto& [id, sw] : switches_) out.push_back(id);
  return out;
}

void Network::link(int64_t sw_a, int64_t port_a, int64_t sw_b, int64_t port_b) {
  add_switch(sw_a).connect(port_a, PortPeer{PortPeer::Kind::Switch, sw_b, port_b});
  add_switch(sw_b).connect(port_b, PortPeer{PortPeer::Kind::Switch, sw_a, port_a});
}

void Network::external(int64_t sw, int64_t port) {
  add_switch(sw).connect(port, PortPeer{PortPeer::Kind::External, 0, 0});
}

void Network::install(int64_t sw, FlowEntry entry) {
  Switch* s = find_switch(sw);
  if (s == nullptr) return;
  ++stats_.flow_mods;
  recorder_.record_ctrl(CtrlMsgKind::FlowMod, sw, clock_);
  s->table().add(std::move(entry));
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
  pending_tags_.resize(eval::kMaxTags);
  for_each_tag(active_tags_,
               [&](size_t b) { pending_tags_[b].resize(keys_.size()); });
}

void Network::reset_dynamic_state() {
  // Reactive (controller-installed) entries are dropped; static
  // (pre-configured) entries carry negative priority and survive.
  for (auto& [id, sw] : switches_) sw.table().reset_dynamic_state();
  stats_ = DeliveryStats{};
  for (DeliveryStats& st : tag_stats_) st = DeliveryStats{};
  std::fill(pending_.begin(), pending_.end(), 0);
  for (std::vector<uint64_t>& tally : pending_tags_)
    std::fill(tally.begin(), tally.end(), 0);
  pending_outs_.clear();
}

void Network::fold(std::vector<uint64_t>& pending, DeliveryStats& st) const {
  for (size_t k = 0; k < pending.size(); ++k) {
    uint64_t& n = pending[k];
    if (n == 0) continue;
    // Whole-number sums are exact in a double, so folding a tally at once
    // equals adding 1.0 per delivery.
    st.per_host.add(keys_[k].host, static_cast<double>(n));
    st.per_host_port.add(keys_[k].host_port, static_cast<double>(n));
    n = 0;
  }
}

const DeliveryStats& Network::stats() const {
  fold(pending_, stats_);
  return stats_;
}

const DeliveryStats& Network::tag_stats(size_t tag_index) const {
  static const DeliveryStats kEmpty;
  if (tag_index >= tag_stats_.size()) return kEmpty;
  fold(pending_tags_[tag_index], tag_stats_[tag_index]);
  return tag_stats_[tag_index];
}

void Network::deliver(int64_t host, int64_t dpt, eval::TagMask tags) {
  auto [it, fresh] = key_ids_.try_emplace({host, dpt},
                                          static_cast<uint32_t>(keys_.size()));
  if (fresh) {
    const Host* h = host_by_id(host);
    std::string name = h != nullptr ? h->name : "?";
    keys_.push_back({name, name + ":" + std::to_string(dpt)});
    pending_.push_back(0);
    if (tag_mode_) {
      for_each_tag(active_tags_,
                   [&](size_t b) { pending_tags_[b].push_back(0); });
    }
  }
  const size_t k = it->second;
  if (!tag_mode_) {
    ++stats_.delivered;
    ++pending_[k];
    return;
  }
  const auto n = static_cast<size_t>(std::popcount(tags));
  stats_.delivered += n;
  pending_[k] += n;
  for_each_tag(tags, [&](size_t b) {
    ++tag_stats_[b].delivered;
    ++pending_tags_[b][k];
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

void Network::inject_batch(const std::vector<Injection>& work, bool record) {
  if (record) recorder_.reserve_ingress(work.size());
  for (const Injection& inj : work) inject(inj.sw, inj.port, inj.packet, record);
}

void Network::inject(int64_t sw, int64_t in_port, const Packet& p, bool record) {
  ++clock_;
  if (record) recorder_.record_ingress(Injection{sw, in_port, p, clock_});

  // Accounts a terminal outcome for every tag in `tags`. Outside tag mode
  // this is a single bump; in tag mode each candidate world gets its own
  // statistics (so joint outcomes equal sequential ones exactly).
  auto drop = [&](eval::TagMask tags) {
    count(&DeliveryStats::dropped, tags);
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
    } else if (peer->kind == PortPeer::Kind::External) {
      count(&DeliveryStats::external, tags);
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
      if (hop_budget-- == 0) {
        drop(tags);
        continue;
      }
      ++stats_.hops;
      const Switch* s = find_switch(where.first);
      if (s == nullptr) {
        drop(tags);
        continue;
      }
      const eval::TagMask missed = s->table().partition(
          p, where.second, tags, [&](const FlowRule& r, eval::TagMask sub) {
            if (r.action.kind == Action::Kind::Drop) {
              drop(sub);
            } else if (const PortPeer* next = egress(*s, r.action.port, sub)) {
              work.emplace_back(Where{next->peer, next->peer_port}, sub);
            }
          });
      if (missed) misses[where] |= missed;
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
        const Switch* s = find_switch(where.first);
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
}

}  // namespace mp::sdn
