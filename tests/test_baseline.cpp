#include "baseline/presets.hpp"

#include <gtest/gtest.h>

namespace eevfs::baseline {
namespace {

TEST(Presets, AllValidateCleanly) {
  for (const auto& [name, config] : all_presets()) {
    EXPECT_NO_THROW(config.validate()) << name;
  }
}

TEST(Presets, PfAndNpfDifferOnlyInPrefetchAndPower) {
  const auto pf = eevfs_pf();
  const auto npf = eevfs_npf();
  EXPECT_EQ(pf.cache_policy, core::CachePolicy::kPrefetch);
  EXPECT_EQ(npf.cache_policy, core::CachePolicy::kNone);
  EXPECT_EQ(npf.power_policy, core::PowerPolicy::kNone);
  EXPECT_EQ(pf.num_storage_nodes, npf.num_storage_nodes);
  EXPECT_EQ(pf.prefetch_file_count, npf.prefetch_file_count);
}

TEST(Presets, MaidHasNoForeknowledge) {
  const auto m = maid();
  EXPECT_EQ(m.cache_policy, core::CachePolicy::kLruOnMiss);
  EXPECT_EQ(m.power_policy, core::PowerPolicy::kIdleTimer);
}

TEST(Presets, PdcConcentratesWithoutBufferCache) {
  const auto p = pdc();
  EXPECT_EQ(p.disk_placement, core::DiskPlacement::kConcentrate);
  EXPECT_EQ(p.cache_policy, core::CachePolicy::kNone);
}

TEST(Presets, AlwaysOnNeverManagesPower) {
  const auto a = always_on();
  EXPECT_EQ(a.power_policy, core::PowerPolicy::kNone);
  EXPECT_EQ(a.cache_policy, core::CachePolicy::kNone);
  EXPECT_FALSE(a.write_buffering);
}

TEST(Presets, OracleIsPfWithPerfectForesight) {
  const auto o = oracle();
  EXPECT_EQ(o.cache_policy, core::CachePolicy::kPrefetch);
  EXPECT_EQ(o.power_policy, core::PowerPolicy::kOracle);
}

TEST(Presets, AllPresetsHaveUniqueNames) {
  const auto presets = all_presets();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    for (std::size_t j = i + 1; j < presets.size(); ++j) {
      EXPECT_STRNE(presets[i].name, presets[j].name);
    }
  }
  EXPECT_EQ(presets.size(), 7u);
}

TEST(Presets, DrpmUsesMultiSpeedDisks) {
  const auto d = drpm();
  ASSERT_TRUE(d.disk_profile_override.has_value());
  // Multi-speed: tiny break-even relative to the stock ATA disk.
  EXPECT_LT(d.disk_profile_override->break_even_seconds(),
            disk::DiskProfile::ata133_fast().break_even_seconds() / 2);
  EXPECT_EQ(d.power_policy, core::PowerPolicy::kIdleTimer);
  EXPECT_EQ(d.cache_policy, core::CachePolicy::kNone);
  // The low-RPM mode draws more than a stopped platter.
  EXPECT_GT(d.disk_profile_override->standby_watts,
            disk::DiskProfile::ata133_fast().standby_watts);
}

TEST(Presets, ProfileOverrideAppliesToAllNodes) {
  auto cfg = drpm();
  EXPECT_EQ(cfg.node_disk_profile(0).name, "DRPM multi-speed (baseline)");
  EXPECT_EQ(cfg.node_disk_profile(1).name, "DRPM multi-speed (baseline)");
  cfg.disk_profile_override.reset();
  EXPECT_NE(cfg.node_disk_profile(1).name, "DRPM multi-speed (baseline)");
}

TEST(Presets, ConfigEnumNamesRoundTrip) {
  EXPECT_EQ(core::to_string(core::PowerPolicy::kPredictive), "predictive");
  EXPECT_EQ(core::to_string(core::PowerPolicy::kNone), "none");
  EXPECT_EQ(core::to_string(core::CachePolicy::kLruOnMiss), "lru_on_miss");
  EXPECT_EQ(core::to_string(core::PlacementPolicy::kRandom), "random");
  EXPECT_EQ(core::to_string(core::DiskPlacement::kConcentrate),
            "concentrate");
}

}  // namespace
}  // namespace eevfs::baseline
