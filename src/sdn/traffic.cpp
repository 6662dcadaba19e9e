#include "sdn/traffic.h"

#include "util/rng.h"

namespace mp::sdn {

void background_traffic(const Network& net, size_t packets, uint64_t seed,
                        std::vector<Injection>& out, const TrafficMix& mix) {
  const auto& hosts = net.hosts();
  if (hosts.size() < 2) return;
  Rng rng(seed);
  // The spare slot keeps the allocation sizes workloads have always had.
  // Peak RSS of long runs moves with them through glibc's dynamic mmap
  // threshold: without it, e2ebench sequential9 read ~7% higher on a
  // 4-vCPU x86-64 host.
  out.reserve(out.size() + packets + 1);
  for (size_t i = 0; i < packets; ++i) {
    const Host& src = hosts[rng.zipf(hosts.size())];
    const Host* dst = &hosts[rng.zipf(hosts.size())];
    if (dst->ip == src.ip) dst = &hosts[(rng.below(hosts.size() - 1) + 1) % hosts.size()];
    Packet p;
    p.sip = src.ip;
    p.dip = dst->ip;
    p.smc = src.mac;
    p.dmc = dst->mac;
    const double roll = rng.uniform();
    if (roll < mix.http) {
      p.dpt = 80;
      p.spt = 32768 + static_cast<int64_t>(rng.below(16384));
      p.proto = static_cast<int64_t>(Proto::Tcp);
    } else if (roll < mix.http + mix.dns) {
      p.dpt = 53;
      p.spt = 32768 + static_cast<int64_t>(rng.below(16384));
      p.proto = static_cast<int64_t>(Proto::Udp);
    } else {
      p.dpt = 0;
      p.spt = 0;
      p.proto = static_cast<int64_t>(Proto::Icmp);
    }
    p.bucket = p.sip % 2 + 1;
    out.push_back(Injection{src.sw, src.port, p});
  }
}

std::vector<Injection> background_traffic(const Network& net, size_t packets,
                                          uint64_t seed,
                                          const TrafficMix& mix) {
  std::vector<Injection> out;
  background_traffic(net, packets, seed, out, mix);
  return out;
}

void ingress_traffic(const IngressOptions& opt, std::vector<Injection>& out) {
  Rng rng(opt.seed);
  // Spare slot: see background_traffic.
  out.reserve(out.size() + opt.flows * opt.packets_per_flow + 1);
  for (size_t f = 0; f < opt.flows; ++f) {
    Packet p;
    p.sip = opt.src_ip_base + static_cast<int64_t>(rng.below(opt.src_ip_count));
    p.dip = opt.dst_ip;
    p.smc = p.sip + 100000;
    p.dmc = opt.dst_ip + 100000;
    p.spt = 32768 + static_cast<int64_t>(rng.below(16384));
    p.dpt = opt.dpt;
    p.proto = opt.dpt == 53 ? static_cast<int64_t>(Proto::Udp)
                            : static_cast<int64_t>(Proto::Tcp);
    p.bucket = p.sip % static_cast<int64_t>(opt.buckets) + 1;
    for (size_t k = 0; k < opt.packets_per_flow; ++k) {
      out.push_back(Injection{opt.ingress_switch, opt.ingress_port, p});
    }
  }
}

std::vector<Injection> ingress_traffic(const IngressOptions& opt) {
  std::vector<Injection> out;
  ingress_traffic(opt, out);
  return out;
}

void replay(Network& net, const std::vector<Injection>& work) {
  for (const Injection& inj : work) net.inject(inj.sw, inj.port, inj.packet);
}

}  // namespace mp::sdn
