// Synthetic traffic generation: the stand-in for the campus traces of
// Benson et al. [5] used by the paper (Section 5.2). Deterministic (seeded)
// mixes of HTTP/DNS/ICMP flows with skewed host popularity; flows carry
// multiple packets so "first packet of a flow" effects (Q4) are visible.
#pragma once

#include <vector>

#include "sdn/network.h"
#include "sdn/recorder.h"

namespace mp::sdn {

struct TrafficMix {
  double http = 0.55;
  double dns = 0.25;
  double icmp = 0.20;
};

// Campus-to-campus background traffic between the hosts already present in
// `net` (delivered via the proactive routes; creates realistic load and
// a stable baseline distribution for the KS gate).
std::vector<Injection> background_traffic(const Network& net, size_t packets,
                                          uint64_t seed,
                                          const TrafficMix& mix = {});
// Appending form: extends `out` in place (reserved once), so scenario
// workload assembly builds one batch without intermediate copies.
void background_traffic(const Network& net, size_t packets, uint64_t seed,
                        std::vector<Injection>& out, const TrafficMix& mix = {});

struct IngressOptions {
  size_t flows = 40;
  size_t packets_per_flow = 8;
  int64_t ingress_switch = 1;
  int64_t ingress_port = 1;
  int64_t dpt = 80;
  int64_t dst_ip = 0;       // destination (e.g. the web VIP)
  int64_t src_ip_base = 10000;
  size_t src_ip_count = 24;
  size_t buckets = 2;       // load-balancer buckets (sip % buckets + 1)
  uint64_t seed = 7;
};

// External (Internet-side) request traffic entering at the ingress switch.
std::vector<Injection> ingress_traffic(const IngressOptions& opt);
// Appending form (see background_traffic above).
void ingress_traffic(const IngressOptions& opt, std::vector<Injection>& out);

// Replays a recorded/synthesized workload into the network, injecting
// each packet in order and running it to completion. Packets stay
// serialized: a miss may install flow state the next packet's forwarding
// depends on. This is the memo-free reference that
// Network::record_batch/replay_batch must equal.
void replay(Network& net, const std::vector<Injection>& work);

}  // namespace mp::sdn
