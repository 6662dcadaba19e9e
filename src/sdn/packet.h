// Packets and header fields for the simulated network. The simulator is
// the stand-in for Mininet + OpenFlow switches (see src/sdn/README.md):
// the repair pipeline only observes control-plane messages (PacketIn /
// FlowMod / PacketOut) and per-host delivery counts, which this model
// produces.
#pragma once

#include <cstdint>
#include <string>

#include "eval/tuple.h"
#include "util/value.h"

namespace mp::sdn {

enum class Proto : int64_t { Tcp = 6, Udp = 17, Icmp = 1 };

struct Packet {
  int64_t sip = 0;   // source IP (host number)
  int64_t dip = 0;   // destination IP
  int64_t smc = 0;   // source MAC
  int64_t dmc = 0;   // destination MAC
  int64_t spt = 0;   // source L4 port
  int64_t dpt = 0;   // destination L4 port (80 = HTTP, 53 = DNS)
  int64_t proto = static_cast<int64_t>(Proto::Tcp);
  int64_t bucket = 0;  // load-balancer source bucket (derived from sip)

  std::string to_string() const;
};

enum class Field : uint8_t {
  InPort,
  Sip,
  Dip,
  Smc,
  Dmc,
  Spt,
  Dpt,
  Proto,
  Bucket,
};
inline constexpr size_t kFieldCount = static_cast<size_t>(Field::Bucket) + 1;

const char* to_string(Field f);

// Field accessor; `in_port` is pipeline metadata, not part of the packet.
int64_t field_of(const Packet& p, int64_t in_port, Field f);

}  // namespace mp::sdn
