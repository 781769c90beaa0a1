// Routing oracle: Network's flat per-destination-device route table checked
// against the per-address, map-based BFS it replaced.  NextHop is compared
// for every (device, address, flow hash 0..15), so a change in the ECMP
// candidate order fails here, and PathTo and EstimatePathLatency are
// compared alongside, on the fleet leaf-spine, the failover leaf-spine,
// the linear fabric and seeded random graphs, each with devices offline
// and links removed.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "net/topology.h"

namespace flexnet::net {
namespace {

// (address, home device) pairs.
using Addresses = std::vector<std::pair<std::uint64_t, DeviceId>>;

// The reference: one BFS per address over a snapshot of the links, offline
// devices never relaying; parents at equal depth are recorded in the order
// the BFS visits them, and that order is the ECMP candidate order.
class ReferenceRoutes {
 public:
  ReferenceRoutes(Network& network, const Addresses& addresses) {
    for (const auto& d : network.devices()) {
      links_[d->id()] = network.LinksOf(d->id());
      online_[d->id()] = d->device().online();
    }
    for (const auto& [address, home] : addresses) {
      home_[address] = home;
      std::unordered_map<DeviceId, int> depth{{home, 0}};
      std::deque<DeviceId> queue{home};
      routes_[home][address] = {};
      while (!queue.empty()) {
        const DeviceId current = queue.front();
        queue.pop_front();
        if (current != home && !online_[current]) continue;
        for (const Network::Link& end : links_[current]) {
          const auto it = depth.find(end.peer);
          if (it == depth.end()) {
            depth[end.peer] = depth[current] + 1;
            queue.push_back(end.peer);
          } else if (it->second != depth[current] + 1) {
            continue;
          }
          routes_[end.peer][address].push_back(current);
        }
      }
    }
  }

  // An address attached after the routes were built: home only.
  void AttachLate(std::uint64_t address, DeviceId home) {
    home_[address] = home;
  }

  DeviceId NextHop(DeviceId at, std::uint64_t address,
                   std::uint64_t flow_hash) const {
    const auto dit = routes_.find(at);
    if (dit == routes_.end()) return DeviceId();
    const auto ait = dit->second.find(address);
    if (ait == dit->second.end() || ait->second.empty()) return DeviceId();
    return ait->second[flow_hash % ait->second.size()];
  }

  std::vector<DeviceId> PathTo(DeviceId from, std::uint64_t address) const {
    const auto it = home_.find(address);
    if (it == home_.end()) return {};
    std::vector<DeviceId> path{from};
    while (path.back() != it->second) {
      const DeviceId next = NextHop(path.back(), address, 0);
      if (!next.valid()) return {};
      path.push_back(next);
    }
    return path;
  }

  // Cost of every device reachable from `from` along the BFS tree (by hop
  // count, offline devices included) — what EstimatePathLatency returns.
  std::unordered_map<DeviceId, SimDuration> LatenciesFrom(DeviceId from) {
    std::unordered_map<DeviceId, SimDuration> cost{{from, 0}};
    std::deque<DeviceId> queue{from};
    while (!queue.empty()) {
      const DeviceId current = queue.front();
      queue.pop_front();
      for (const Network::Link& end : links_[current]) {
        if (cost.contains(end.peer)) continue;
        cost[end.peer] = cost[current] + end.latency;
        queue.push_back(end.peer);
      }
    }
    return cost;
  }

 private:
  std::unordered_map<DeviceId, std::vector<Network::Link>> links_;
  std::unordered_map<DeviceId, bool> online_;
  std::unordered_map<std::uint64_t, DeviceId> home_;
  std::unordered_map<DeviceId,
                     std::unordered_map<std::uint64_t, std::vector<DeviceId>>>
      routes_;
};

constexpr std::uint64_t kUnattached = 0xdeadbeef;

// Compares NextHop for every (device, address, flow hash 0..15) and PathTo
// for every (device, address); `late` addresses were attached after the
// last rebuild.  Returns the number of (device, address) pairs with a
// route, so callers can check the topology actually routes.
std::size_t ExpectSameRoutes(Network& network, const Addresses& addresses,
                             const Addresses& late = {}) {
  ReferenceRoutes reference(network, addresses);
  std::vector<std::uint64_t> all{kUnattached};
  for (const auto& [address, home] : addresses) all.push_back(address);
  for (const auto& [address, home] : late) {
    reference.AttachLate(address, home);
    all.push_back(address);
  }
  std::size_t routed = 0;
  for (const auto& d : network.devices()) {
    const DeviceId at = d->id();
    for (const std::uint64_t address : all) {
      for (std::uint64_t hash = 0; hash < 16; ++hash) {
        const DeviceId want = reference.NextHop(at, address, hash);
        const DeviceId got = network.NextHop(at, address, hash);
        if (got != want) {
          ADD_FAILURE() << "NextHop(" << at.value() << ", " << address
                        << ", hash " << hash << ") = " << got.value()
                        << ", reference " << want.value();
          return routed;
        }
      }
      const auto path = network.PathTo(at, address);
      if (path != reference.PathTo(at, address)) {
        ADD_FAILURE() << "PathTo(" << at.value() << ", " << address << ")";
        return routed;
      }
      if (path.size() > 1) ++routed;
    }
  }
  return routed;
}

// Compares EstimatePathLatency from each source to every device, plus a
// device id the network does not have.
void ExpectSameLatencies(Network& network, const std::vector<DeviceId>& sources) {
  ReferenceRoutes reference(network, {});
  for (const DeviceId from : sources) {
    const auto cost = reference.LatenciesFrom(from);
    std::vector<DeviceId> targets{DeviceId(999999)};
    for (const auto& d : network.devices()) targets.push_back(d->id());
    for (const DeviceId to : targets) {
      const auto got = network.EstimatePathLatency(from, to);
      const auto it = cost.find(to);
      if (it == cost.end()) {
        EXPECT_FALSE(got.ok()) << from.value() << " -> " << to.value();
      } else {
        ASSERT_TRUE(got.ok()) << from.value() << " -> " << to.value();
        EXPECT_EQ(got.value(), it->second)
            << from.value() << " -> " << to.value();
      }
    }
  }
}

Addresses EndpointAddresses(const LeafSpineTopology& topo) {
  Addresses out;
  for (const EndpointIds& e : topo.endpoints) out.emplace_back(e.address, e.host);
  return out;
}

void SetOnline(Network& network, DeviceId id, bool online) {
  network.Find(id)->device().set_online(online);
}

TEST(RoutingOracleTest, FleetLeafSpine) {
  sim::Simulator sim;
  Network network(&sim);
  LeafSpineConfig config;  // the benchmark fleet: 1,088 devices
  config.spines = 8;
  config.leaves = 120;
  config.hosts_per_leaf = 4;
  const LeafSpineTopology topo = BuildLeafSpine(network, config);
  ASSERT_EQ(network.devices().size(), 1088u);
  const Addresses addresses = EndpointAddresses(topo);
  const std::vector<DeviceId> sources{topo.spines[0], topo.leaves[7],
                                      topo.endpoint(0).host,
                                      topo.endpoint(479).nic};
  EXPECT_EQ(ExpectSameRoutes(network, addresses), 1088u * 480u - 480u);
  ExpectSameLatencies(network, sources);

  SetOnline(network, topo.spines[1], false);
  SetOnline(network, topo.spines[6], false);
  SetOnline(network, topo.leaves[3], false);
  ASSERT_TRUE(network.RemoveLink(topo.leaves[10], topo.spines[0]).ok());
  network.RebuildRoutes();
  EXPECT_GT(ExpectSameRoutes(network, addresses), 0u);
  ExpectSameLatencies(network, sources);
}

TEST(RoutingOracleTest, FailoverLeafSpineDrainsAndPartitions) {
  sim::Simulator sim;
  Network network(&sim);
  LeafSpineConfig config;  // FailoverTest's topology
  config.spines = 2;
  config.leaves = 2;
  config.hosts_per_leaf = 1;
  const LeafSpineTopology topo = BuildLeafSpine(network, config);
  const Addresses addresses = EndpointAddresses(topo);
  std::vector<DeviceId> all;
  for (const auto& d : network.devices()) all.push_back(d->id());
  EXPECT_GT(ExpectSameRoutes(network, addresses), 0u);

  SetOnline(network, topo.spines[0], false);
  network.RebuildRoutes();
  EXPECT_GT(ExpectSameRoutes(network, addresses), 0u);

  SetOnline(network, topo.leaves[1], false);
  network.RebuildRoutes();
  ExpectSameRoutes(network, addresses);

  SetOnline(network, topo.spines[0], true);
  SetOnline(network, topo.leaves[1], true);
  ASSERT_TRUE(network.RemoveLink(topo.leaves[0], topo.spines[0]).ok());
  ASSERT_TRUE(network.RemoveLink(topo.leaves[0], topo.spines[1]).ok());
  network.RebuildRoutes();
  ExpectSameRoutes(network, addresses);
  EXPECT_TRUE(network.PathTo(topo.endpoint(0).host, topo.endpoint(1).address)
                  .empty());
  ExpectSameLatencies(network, all);
}

TEST(RoutingOracleTest, Linear) {
  sim::Simulator sim;
  Network network(&sim);
  const LinearTopology topo = BuildLinear(network, 3);
  const Addresses addresses{{topo.client.address, topo.client.host},
                            {topo.server.address, topo.server.host}};
  std::vector<DeviceId> all;
  for (const auto& d : network.devices()) all.push_back(d->id());
  EXPECT_GT(ExpectSameRoutes(network, addresses), 0u);
  ExpectSameLatencies(network, all);

  SetOnline(network, topo.switches[1], false);
  network.RebuildRoutes();
  ExpectSameRoutes(network, addresses);
  ExpectSameLatencies(network, all);
}

// Random connected graphs: a random spanning tree plus extra links, random
// latencies, device ids unrelated to insertion order, some devices
// offline (relays and destinations alike), some homes with two addresses.
// After the rebuild an address and a link are added without a rebuild:
// the address must stay unroutable away from home, the new link must not
// carry routes, and EstimatePathLatency must see it.
TEST(RoutingOracleTest, RandomGraphsWithOfflineDevices) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulator sim;
    Network network(&sim);
    const std::size_t n = 4 + rng.NextBounded(45);
    std::vector<DeviceId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const DeviceId id(1 + (i * 7919) % 10007);
      network.AddDevice(
          MakeSwitch(SwitchKind::kDrmt, id, "d" + std::to_string(i)));
      ids.push_back(id);
    }
    const auto latency = [&] {
      return static_cast<SimDuration>(100 * (1 + rng.NextBounded(20)));
    };
    for (std::size_t i = 1; i < n; ++i) {
      ASSERT_TRUE(
          network.AddLink(ids[i], ids[rng.NextBounded(i)], latency()).ok());
    }
    for (std::size_t extra = 0; extra < n; ++extra) {
      const DeviceId a = ids[rng.NextBounded(n)];
      const DeviceId b = ids[rng.NextBounded(n)];
      if (a != b) (void)network.AddLink(a, b, latency());  // may duplicate
    }
    Addresses addresses;
    std::uint64_t next_address = 0x0a000001;
    for (const DeviceId id : ids) {
      if (!rng.NextBool(0.5)) continue;
      const int count = rng.NextBool(0.25) ? 2 : 1;
      for (int k = 0; k < count; ++k) {
        ASSERT_TRUE(network.AttachAddress(id, next_address).ok());
        addresses.emplace_back(next_address++, id);
      }
    }
    for (const DeviceId id : ids) {
      if (rng.NextBool(0.2)) SetOnline(network, id, false);
    }
    network.RebuildRoutes();

    const Addresses late{{next_address, ids[rng.NextBounded(n)]}};
    ASSERT_TRUE(network.AttachAddress(late[0].second, late[0].first).ok());
    ExpectSameRoutes(network, addresses, late);
    ExpectSameLatencies(network, ids);

    // A link added without a rebuild: routes unchanged, latency sees it.
    const auto next_hops = [&] {
      std::vector<DeviceId> hops;
      for (const DeviceId at : ids) {
        for (const auto& [address, home] : addresses) {
          for (std::uint64_t hash = 0; hash < 16; ++hash) {
            hops.push_back(network.NextHop(at, address, hash));
          }
        }
      }
      return hops;
    };
    const std::vector<DeviceId> before = next_hops();
    for (std::size_t tries = 0; tries < 8; ++tries) {
      const DeviceId a = ids[rng.NextBounded(n)];
      const DeviceId b = ids[rng.NextBounded(n)];
      if (a != b && network.AddLink(a, b, 1).ok()) break;
    }
    EXPECT_EQ(next_hops(), before);
    ExpectSameLatencies(network, ids);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace flexnet::net
