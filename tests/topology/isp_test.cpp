#include "topology/isp_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "net/sites.hpp"
#include "util/error.hpp"

namespace cdnsim::topology {
namespace {

NodeRegistry make_world_registry(std::size_t n, std::uint64_t seed) {
  NodeInfo provider;
  provider.location = net::atlanta_site().location;
  NodeRegistry reg(provider);
  util::Rng rng(seed);
  const auto placements = net::place_nodes(n, net::PlacementConfig{}, rng);
  for (const auto& p : placements) reg.add_server({p.location, 0, p.site_index});
  return reg;
}

TEST(IspTest, AssignsMultipleIsps) {
  auto reg = make_world_registry(300, 1);
  util::Rng rng(2);
  assign_isps(reg, IspConfig{}, rng);
  EXPECT_GT(distinct_isp_count(reg), 8);
}

TEST(IspTest, ProviderGetsDedicatedIsp) {
  auto reg = make_world_registry(50, 3);
  util::Rng rng(4);
  assign_isps(reg, IspConfig{}, rng);
  for (NodeId id : reg.server_ids()) {
    EXPECT_NE(reg.isp(id), reg.isp(kProviderNode));
  }
}

TEST(IspTest, IspsAreRegional) {
  // Two nodes in different macro-regions never share an ISP.
  auto reg = make_world_registry(400, 5);
  util::Rng rng(6);
  assign_isps(reg, IspConfig{}, rng);
  const auto& sites = net::world_sites();
  std::map<std::int32_t, net::Region> isp_region;
  for (NodeId id : reg.server_ids()) {
    const auto region = sites[reg.info(id).site_index].region;
    const auto [it, inserted] = isp_region.emplace(reg.isp(id), region);
    if (!inserted) {
      EXPECT_EQ(it->second, region) << "ISP spans regions";
    }
  }
}

TEST(IspTest, SameSiteNodesOftenShareIsp) {
  auto reg = make_world_registry(600, 7);
  util::Rng rng(8);
  IspConfig cfg;
  cfg.mixing_probability = 0.0;  // no multi-homing: site determines ISP
  assign_isps(reg, cfg, rng);
  std::map<std::size_t, std::int32_t> site_isp;
  for (NodeId id : reg.server_ids()) {
    const auto site = reg.info(id).site_index;
    const auto [it, inserted] = site_isp.emplace(site, reg.isp(id));
    if (!inserted) {
      EXPECT_EQ(it->second, reg.isp(id));
    }
  }
}

TEST(IspTest, MixingCreatesIntraSiteDiversity) {
  auto reg = make_world_registry(600, 9);
  util::Rng rng(10);
  IspConfig cfg;
  cfg.mixing_probability = 1.0;
  assign_isps(reg, cfg, rng);
  // With full mixing, at least one site hosts two ISPs.
  std::map<std::size_t, std::set<std::int32_t>> site_isps;
  for (NodeId id : reg.server_ids()) {
    site_isps[reg.info(id).site_index].insert(reg.isp(id));
  }
  bool any_diverse = false;
  for (const auto& [site, isps] : site_isps) {
    if (isps.size() > 1) any_diverse = true;
  }
  EXPECT_TRUE(any_diverse);
}

TEST(IspTest, SingleIspPerRegion) {
  auto reg = make_world_registry(100, 11);
  util::Rng rng(12);
  IspConfig cfg;
  cfg.isps_per_region = 1;
  assign_isps(reg, cfg, rng);
  // At most one ISP per region => at most 5 ISPs.
  EXPECT_LE(distinct_isp_count(reg), 5);
}

TEST(IspTest, InvalidConfigThrows) {
  auto reg = make_world_registry(10, 13);
  util::Rng rng(14);
  IspConfig bad;
  bad.isps_per_region = 0;
  EXPECT_THROW(assign_isps(reg, bad, rng), cdnsim::PreconditionError);
  IspConfig bad2;
  bad2.mixing_probability = 2.0;
  EXPECT_THROW(assign_isps(reg, bad2, rng), cdnsim::PreconditionError);
}

}  // namespace
}  // namespace cdnsim::topology
