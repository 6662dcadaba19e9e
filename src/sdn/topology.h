// Stanford-campus-like topology generator (Section 5.2): a proactively
// configured core of operational-zone/backbone routers plus edge networks
// with end hosts; switches 1..3 are reserved for the reactive scenario
// applications (S1 = ingress with an Internet uplink, S2/S3 = server
// switches). Static (proactive) routes use negative priorities, so they
// rank below every controller-installed entry.
#pragma once

#include <cstdint>
#include <vector>

#include "sdn/network.h"

namespace mp::sdn {

struct CampusOptions {
  size_t total_switches = 36;  // includes the 4 app switches
  size_t core_count = 12;      // operational-zone + backbone routers
  size_t hosts_per_edge = 6;
  uint64_t seed = 1;
};

struct Campus {
  std::vector<int64_t> app_switches;   // {1, 2, 3}
  std::vector<int64_t> core_switches;
  std::vector<int64_t> edge_switches;
  std::vector<int64_t> host_ips;       // campus end hosts (ips >= 100)
  size_t static_entries = 0;
};

// Builds the topology into `net` and installs proactive Dip-based routes
// between all campus hosts. Scenario hosts/servers are added by the
// scenario builders on the app switches afterwards.
Campus build_campus(Network& net, const CampusOptions& opt = {});

// Installs proactive Dip-based routes toward the given hosts on every
// switch except `exclude` (the reactive app switches: traffic toward the
// scenario servers is routed proactively through the core but handled
// reactively on the last hops, as in the paper's mixed configuration).
// Returns the number of entries installed.
size_t install_host_routes(Network& net, const std::vector<int64_t>& ips,
                           const std::vector<int64_t>& exclude = {});

}  // namespace mp::sdn
