#include "sdn/topology.h"

#include <algorithm>
#include <limits>
#include <map>

#include "util/rng.h"

namespace mp::sdn {

namespace {

// Port allocator: gives each new link a fresh port per switch.
class Ports {
 public:
  int64_t next(int64_t sw) { return ++next_[sw]; }
  void reserve(int64_t sw, int64_t up_to) {
    next_[sw] = std::max(next_[sw], up_to);
  }

 private:
  std::map<int64_t, int64_t> next_;
};

// The switch graph in dense form: switch i is ids[i], and adj[i] lists its
// switch-facing (port, neighbour index) pairs in port order.
struct SwitchGraph {
  std::vector<int64_t> ids;  // ascending
  std::vector<std::vector<std::pair<int64_t, size_t>>> adj;

  explicit SwitchGraph(const Network& net) : ids(net.switch_ids()) {
    adj.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      for (const auto& [port, peer] : net.find_switch(ids[i])->ports()) {
        if (peer.kind != PortPeer::Kind::Switch) continue;
        const size_t j = index_of(peer.peer);
        if (j != ids.size()) adj[i].emplace_back(port, j);
      }
    }
  }
  size_t index_of(int64_t id) const {
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    return it != ids.end() && *it == id ? size_t(it - ids.begin()) : ids.size();
  }
};

constexpr int64_t kNoRoute = std::numeric_limits<int64_t>::min();

// next_hop[i] = egress port at switch i toward switch `dest` on a BFS
// shortest path (the first port, in port order, facing the BFS parent),
// or kNoRoute when i is `dest` or cannot reach it.
std::vector<int64_t> bfs_ports_toward(const SwitchGraph& g, size_t dest) {
  constexpr size_t kUnseen = ~size_t{0};
  std::vector<size_t> toward(g.ids.size(), kUnseen);
  std::vector<size_t> queue{dest};
  toward[dest] = dest;
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t cur = queue[head];
    for (const auto& [port, next] : g.adj[cur]) {
      if (toward[next] != kUnseen) continue;
      toward[next] = cur;
      queue.push_back(next);
    }
  }
  std::vector<int64_t> next_hop(g.ids.size(), kNoRoute);
  for (size_t i = 0; i < g.ids.size(); ++i) {
    if (i == dest || toward[i] == kUnseen) continue;
    for (const auto& [port, next] : g.adj[i]) {
      if (next == toward[i]) {
        next_hop[i] = port;
        break;
      }
    }
  }
  return next_hop;
}

}  // namespace

size_t install_host_routes(Network& net, const std::vector<int64_t>& ips,
                           const std::vector<int64_t>& exclude) {
  size_t installed = 0;
  const SwitchGraph g(net);
  std::vector<Switch*> switches;
  for (int64_t id : g.ids) {
    const bool excluded =
        std::find(exclude.begin(), exclude.end(), id) != exclude.end();
    switches.push_back(excluded ? nullptr : net.find_switch(id));
  }
  // One BFS per destination switch, shared by the hosts behind it.
  std::vector<std::vector<int64_t>> routes(g.ids.size());
  for (int64_t ip : ips) {
    const Host* h = net.host_by_ip(ip);
    if (h == nullptr) continue;
    const size_t dest = g.index_of(h->sw);
    if (dest == g.ids.size()) continue;
    if (routes[dest].empty()) routes[dest] = bfs_ports_toward(g, dest);
    const std::vector<int64_t>& next_hop = routes[dest];
    FlowEntry e;
    e.match.push_back({Field::Dip, Value(h->ip)});
    e.priority = -1;  // static / proactive
    for (size_t i = 0; i < g.ids.size(); ++i) {
      if (switches[i] == nullptr) continue;
      const int64_t port = i == dest ? h->port : next_hop[i];
      if (port == kNoRoute) continue;
      e.action = Action::output(port);
      switches[i]->table().add(e);
      ++installed;
    }
  }
  return installed;
}

Campus build_campus(Network& net, const CampusOptions& opt) {
  Campus campus;
  Ports ports;
  Rng rng(opt.seed);

  const size_t core_count = std::max<size_t>(2, opt.core_count);
  // App switches 1..4 (S4 is the guest/branch switch used by scenarios).
  for (int64_t s = 1; s <= 4; ++s) {
    net.add_switch(s);
    campus.app_switches.push_back(s);
    ports.reserve(s, 8);  // low ports are host/app-facing
  }
  net.external(1, 1);

  // Core ring with cross-chords (backbone + operational zone routers).
  const int64_t core_base = 10;
  for (size_t i = 0; i < core_count; ++i) {
    campus.core_switches.push_back(core_base + static_cast<int64_t>(i));
    net.add_switch(campus.core_switches.back());
  }
  for (size_t i = 0; i < core_count; ++i) {
    const int64_t a = campus.core_switches[i];
    const int64_t b = campus.core_switches[(i + 1) % core_count];
    net.link(a, ports.next(a), b, ports.next(b));
  }
  for (size_t i = 0; i + core_count / 2 < core_count; i += 4) {
    const int64_t a = campus.core_switches[i];
    const int64_t b = campus.core_switches[i + core_count / 2];
    net.link(a, ports.next(a), b, ports.next(b));
  }
  // App network attachment points.
  net.link(1, ports.next(1), campus.core_switches[0],
           ports.next(campus.core_switches[0]));
  net.link(4, ports.next(4), campus.core_switches[1 % core_count],
           ports.next(campus.core_switches[1 % core_count]));

  // Edge switches fill the remaining budget, round-robin on the cores.
  const size_t used = 4 + core_count;
  const size_t edge_count =
      opt.total_switches > used ? opt.total_switches - used : 0;
  int64_t next_id = core_base + static_cast<int64_t>(core_count);
  for (size_t e = 0; e < edge_count; ++e) {
    const int64_t id = next_id++;
    campus.edge_switches.push_back(id);
    net.add_switch(id);
    const int64_t core = campus.core_switches[e % core_count];
    net.link(id, ports.next(id), core, ports.next(core));
  }

  // Campus end hosts on the edges (ips >= 100).
  int64_t next_ip = 100;
  int64_t next_host_id = 1000;
  for (int64_t edge : campus.edge_switches) {
    for (size_t h = 0; h < opt.hosts_per_edge; ++h) {
      Host host;
      host.id = next_host_id++;
      host.ip = next_ip++;
      host.mac = host.ip + 100000;
      host.name = "E" + std::to_string(host.ip);
      host.sw = edge;
      host.port = ports.next(edge);
      net.add_host(host);
      campus.host_ips.push_back(host.ip);
    }
  }

  campus.static_entries = install_host_routes(net, campus.host_ips, {});
  return campus;
}

}  // namespace mp::sdn
