// A simulated OpenFlow switch: a flow table plus a port map. Ports connect
// to other switches, to hosts, or to the outside ("external", e.g. the
// Internet uplink).
#pragma once

#include <cstdint>
#include <map>

#include "sdn/flowtable.h"

namespace mp::sdn {

struct PortPeer {
  enum class Kind : uint8_t { None, Switch, Host, External };
  Kind kind = Kind::None;
  int64_t peer = 0;       // switch id or host id
  int64_t peer_port = 0;  // ingress port on the peer switch
};

class Switch {
 public:
  Switch() = default;
  explicit Switch(int64_t id, uint32_t dense = 0) : id_(id), dense_(dense) {}

  int64_t id() const { return id_; }
  // Position in the owning network's add_switch order.
  uint32_t dense() const { return dense_; }
  FlowTable& table() { return table_; }
  const FlowTable& table() const { return table_; }

  void connect(int64_t port, PortPeer peer) { ports_[port] = peer; }
  const PortPeer* peer(int64_t port) const {
    auto it = ports_.find(port);
    return it == ports_.end() ? nullptr : &it->second;
  }
  const std::map<int64_t, PortPeer>& ports() const { return ports_; }

 private:
  int64_t id_ = 0;
  uint32_t dense_ = 0;
  FlowTable table_;
  std::map<int64_t, PortPeer> ports_;
};

}  // namespace mp::sdn
