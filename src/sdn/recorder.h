// Runtime recording (Section 5.1 "Controllers" + Section 5.4 storage):
// every control-plane message is logged with a timestamp. The ingress
// side needs no copy: the workload a scenario replays is already the
// packet record (ScenarioHarness::workload()), and the network clock
// advances once per injected packet, so Network::packet_log_bytes()
// derives the Section 5.4 packet-log size (~120-byte entries) from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sdn/packet.h"

namespace mp::sdn {

struct Injection {
  int64_t sw = 0;
  int64_t port = 0;
  Packet packet;
};

enum class CtrlMsgKind : uint8_t { PacketIn, FlowMod, PacketOut };

struct CtrlMsg {
  CtrlMsgKind kind = CtrlMsgKind::PacketIn;
  int64_t sw = 0;
  uint64_t time = 0;
};

// Packet header + timestamp, as in the paper: ~120 bytes per entry.
inline constexpr size_t kPacketLogEntryBytes = 120;

class Recorder {
 public:
  void record_ctrl(CtrlMsgKind kind, int64_t sw, uint64_t time) {
    ctrl_.push_back(CtrlMsg{kind, sw, time});
  }

  const std::vector<CtrlMsg>& ctrl() const { return ctrl_; }
  size_t ctrl_log_bytes() const { return ctrl_.size() * 48; }

 private:
  std::vector<CtrlMsg> ctrl_;
};

}  // namespace mp::sdn
