// The simulated network: switches, hosts, links, and the forwarding loop
// with reactive control. On a flow-table miss the packet is buffered and
// the controller is invoked (PacketIn); the controller may install flow
// entries (FlowMod) and/or release the buffered packet (PacketOut). If no
// PacketOut arrives the buffered packet is dropped -- exactly the failure
// mode of scenario Q4 ("forgotten packets").
//
// Tag support: in tag mode every flow entry carries a candidate mask and
// forwarding is resolved per tag; the controller is still invoked only
// once per distinct miss, with the mask of tags that missed (Section 4.4).
//
// World base: a world's static base (topology plus every rule installed
// while it was built) is the same in every world of a scenario. A
// WorldBase holds it once, and every world built on it owns only its
// dynamic layer: the rules it installs, its dirty marks, tallies and logs.
// See src/sdn/README.md, "World base".
//
// Static-path memo: a packet whose walk meets only static rules walks the
// same path in every world on a base. PathMemo keeps that walk per
// workload position; see src/sdn/README.md, "Static-path memo".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sdn/recorder.h"
#include "sdn/switch.h"

namespace mp::sdn {

struct Host {
  int64_t id = 0;
  std::string name;
  int64_t ip = 0;
  int64_t mac = 0;
  int64_t sw = 0;
  int64_t port = 0;
};

class ControllerIface {
 public:
  virtual ~ControllerIface() = default;
  // `miss_tags`: candidate worlds in which the packet missed (kAllTags in
  // normal operation).
  virtual void on_packet_in(int64_t sw, int64_t in_port, const Packet& p,
                            eval::TagMask miss_tags) = 0;
};

// A topology's host numbering: its distinct host names in std::string byte
// order, so equal names share a number. Immutable; worlds and outcomes
// share one by shared_ptr. See src/sdn/README.md, "Delivery statistics".
class HostNames {
 public:
  explicit HostNames(const std::vector<Host>& hosts);
  size_t size() const { return names_.size(); }
  const std::string& name(uint32_t number) const { return names_[number]; }
  // The number of `name`, or size() when no host has it.
  uint32_t number(std::string_view name) const;
  // The number of the host with id `id` (the first one added, as ids may
  // repeat); throws std::out_of_range when no host has it.
  uint32_t number_of_id(int64_t id) const { return ids_.at(id); }
  bool operator==(const HostNames& o) const { return names_ == o.names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<int64_t, uint32_t> ids_;
};

// Packets delivered to one (host number, dpt) key.
struct PortTally {
  uint32_t host = 0;
  int64_t dpt = 0;
  uint64_t packets = 0;
};

struct DeliveryStats {
  // The numbering per_host and per_host_port use; null, with both empty,
  // until the network's first delivery.
  std::shared_ptr<const HostNames> hosts;
  std::vector<uint64_t> per_host;        // indexed by host number
  std::vector<PortTally> per_host_port;  // in first-delivery order
  size_t dropped = 0;
  size_t external = 0;
  size_t packet_ins = 0;
  size_t flow_mods = 0;
  size_t packet_outs = 0;
  size_t hops = 0;

  // Packets delivered in all, and to the host(s) named `host` on
  // destination port `dpt`.
  uint64_t delivered() const {
    return std::accumulate(per_host.begin(), per_host.end(), uint64_t{0});
  }
  uint64_t delivered(std::string_view host, int64_t dpt) const;
};

class WorldBase;

// Per workload position, the outcome of a walk that met only static rules
// in a world on a WorldBase, packed into 8 bytes (0 = not memoized).
// Filled by Network::record_batch and read-only afterwards, so concurrent
// replays may share it. It is valid only on the base of the world that
// filled it.
class PathMemo {
 public:
  PathMemo() = default;
  explicit PathMemo(size_t positions) : slots_(positions, 0) {}
  size_t size() const { return slots_.size(); }
  size_t entries() const { return entries_; }  // memoized positions

 private:
  friend class Network;
  std::vector<uint64_t> slots_;
  // The filling world's base; null when nothing was memoized.
  std::shared_ptr<const WorldBase> base_;
  size_t entries_ = 0;
};

class Network {
 public:
  // A self-built world: empty, filled through add_switch, link, external,
  // add_host and Switch::table(). It walks every packet; its main use is
  // to become a WorldBase.
  Network() = default;
  // A world on `base`: it reads the base's topology and static rules and
  // owns only what it installs, marking each switch it installs on dirty.
  // Its topology is the base's, so add_switch, link, external, add_host
  // and the non-const find_switch throw std::logic_error.
  explicit Network(std::shared_ptr<const WorldBase> base);

  Switch& add_switch(int64_t id);
  Switch* find_switch(int64_t id);
  const Switch* find_switch(int64_t id) const;
  // Also connects the switch port to the host. Throws std::logic_error
  // once the hosts are numbered (at the first delivery).
  Host& add_host(Host h);
  const Host* host_by_ip(int64_t ip) const;
  const std::vector<Host>& hosts() const { return topology().hosts_; }
  size_t switch_count() const { return topology().switches_.size(); }
  std::vector<int64_t> switch_ids() const;  // ascending

  // Bidirectional switch-to-switch link.
  void link(int64_t sw_a, int64_t port_a, int64_t sw_b, int64_t port_b);
  // Marks a port as an external uplink (e.g. the Internet).
  void external(int64_t sw, int64_t port);

  void set_controller(ControllerIface* c) { controller_ = c; }
  void set_tag_mode(bool on, eval::TagMask active = eval::kAllTags);

  // Control-plane operations (called by the controller).
  void install(int64_t sw, FlowEntry entry);
  void packet_out(int64_t sw, int64_t port, eval::TagMask tags = eval::kAllTags);

  // Injects a packet at (sw, in_port) and runs it to completion, invoking
  // the controller on misses. Advances the clock by one.
  void inject(int64_t sw, int64_t in_port, const Packet& p);

  // The shared static layer this world is built on; null if self-built.
  const std::shared_ptr<const WorldBase>& base() const { return base_; }
  // sdn::replay(*this, work) that also fills `memo` (one slot per position
  // of `work`) with every walk that did not miss and visited only clean
  // switches, when this world is on a base and not in tag mode; otherwise
  // `memo` is left empty.
  void record_batch(const std::vector<Injection>& work, PathMemo& memo);
  // sdn::replay(*this, work) that books each memoized packet whose path
  // avoids every dirty switch from `memo` instead of walking it: the same
  // clock, statistics and logs. `memo` is used only when this world is on
  // the base of the world that filled it and `work` has its size.
  void replay_batch(const std::vector<Injection>& work, const PathMemo& memo);
  // Memoized packets booked from, or walked past, a PathMemo.
  size_t memo_hits() const { return memo_hits_; }
  size_t memo_walks() const { return memo_walks_; }

  // Statistics over every world, and one candidate world's in tag mode
  // (tag_index = bit position). Plain reads: deliveries are tallied as
  // they happen.
  const DeliveryStats& stats() const { return stats_; }
  const DeliveryStats& tag_stats(size_t tag_index) const;
  Recorder& recorder() { return recorder_; }
  const Recorder& recorder() const { return recorder_; }
  // Packets injected so far (one clock tick each).
  uint64_t now() const { return clock_; }
  // Section 5.4 packet-log size: one kPacketLogEntryBytes entry per
  // injected packet.
  size_t packet_log_bytes() const { return clock_ * kPacketLogEntryBytes; }

 private:
  struct PairHash {
    size_t operator()(const std::pair<int64_t, int64_t>& k) const {
      return std::hash<uint64_t>()(static_cast<uint64_t>(k.first) * 1000003 ^
                                   static_cast<uint64_t>(k.second));
    }
  };

  // Runs one injected packet to completion (inject without the clock).
  // Returns the PathMemo slot of the walk, or 0 when it cannot be
  // memoized.
  uint64_t walk(int64_t sw, int64_t in_port, const Packet& p);
  // Where the switches, ports and hosts live: the base's network, or this
  // one when self-built.
  const Network& topology() const;
  // Throws std::logic_error when this world is on a base.
  void own_topology(const char* op) const;
  // The dynamic layer `s` has in a world on a base, or nullptr.
  const FlowTable* dynamic_layer(const Switch& s) const;
  // Terminal outcomes for every world in `tags`.
  void deliver(int64_t host, int64_t dpt, eval::TagMask tags);
  void count(size_t DeliveryStats::*counter, eval::TagMask tags);
  // Fixes the host numbering, once: the base's, or one of hosts_.
  void number_hosts();
  // Gives `st` the numbering and stats_'s keys, with zero tallies.
  void size_tallies(DeliveryStats& st) const;

  // Null for a self-built world, which keeps its topology and every rule
  // in switches_ and hosts_. A world on a base leaves both empty and keeps
  // each switch's installed rules in dynamic_, indexed by dense id
  // (allocated at the first install).
  std::shared_ptr<const WorldBase> base_;
  std::vector<FlowTable> dynamic_;
  std::map<int64_t, Switch> switches_;
  std::vector<Host> hosts_;
  ControllerIface* controller_ = nullptr;
  std::shared_ptr<const HostNames> names_;  // set by number_hosts()
  // Index into per_host_port of each delivered (host id, dpt) pair.
  std::unordered_map<std::pair<int64_t, int64_t>, uint32_t, PairHash> key_ids_;
  DeliveryStats stats_;
  std::vector<DeliveryStats> tag_stats_;  // kMaxTags in tag mode
  Recorder recorder_;
  uint64_t clock_ = 0;
  bool tag_mode_ = false;
  eval::TagMask active_tags_ = eval::kAllTags;
  // In a world on a base, bit min(dense id, 39) of every switch it
  // installed on; always 0 in a self-built world.
  uint64_t dirty_ = 0;
  size_t memo_hits_ = 0;
  size_t memo_walks_ = 0;

  // PacketOut releases are collected during a controller invocation and
  // consumed by the inject loop for the buffered packet.
  struct PendingOut {
    int64_t sw;
    int64_t port;
    eval::TagMask tags;
  };
  std::vector<PendingOut> pending_outs_;

  friend class WorldBase;
};

// The static layer every world of a scenario shares: a self-built
// network's switches, ports, hosts and every rule it holds, with their
// tuple-space indexes. Immutable once built, so worlds on several threads
// read it without locks. Held by shared_ptr<const WorldBase>; see
// src/sdn/README.md, "World base".
class WorldBase {
 public:
  // Keeps `net`, a self-built network, as the static layer and numbers
  // its hosts. Counts one sdn.base.builds.
  explicit WorldBase(Network net);
  // The base's network, e.g. for workload synthesis. Its own tallies and
  // logs stay empty: worlds replay on the base, never in it.
  const Network& net() const { return net_; }

 private:
  Network net_;
};

}  // namespace mp::sdn
