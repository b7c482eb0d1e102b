// The BUD/PRE-BUD substrate ([12]) that EEVFS builds on.
#include "baseline/bud_simulator.hpp"

#include <gtest/gtest.h>

namespace eevfs::baseline {
namespace {

std::vector<BlockRequest> workload(std::uint64_t seed = 11,
                                   std::size_t requests = 2000) {
  BlockWorkloadConfig cfg;
  cfg.num_requests = requests;
  cfg.seed = seed;
  return generate_block_workload(cfg);
}

TEST(BlockWorkload, DeterministicSortedAndSkewed) {
  const auto a = workload();
  const auto b = workload();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].block, b[i].block);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
  // Zipf: block 0 dominates.
  std::size_t zero = 0;
  for (const auto& r : a) zero += r.block == 0;
  EXPECT_GT(zero, a.size() / 50);
}

TEST(BlockWorkload, RejectsEmptyConfig) {
  BlockWorkloadConfig cfg;
  cfg.num_blocks = 0;
  EXPECT_THROW(generate_block_workload(cfg), std::invalid_argument);
  cfg = {};
  cfg.num_requests = 0;
  EXPECT_THROW(generate_block_workload(cfg), std::invalid_argument);
}

TEST(BudSimulator, ServesEveryRequestUnderEveryPolicy) {
  const auto reqs = workload();
  for (const auto policy :
       {BudPolicy::kAlwaysOn, BudPolicy::kDpmOnly, BudPolicy::kPreBud}) {
    BudSimulator sim(BudConfig{}, policy);
    const BudStats s = sim.run(reqs);
    EXPECT_EQ(s.buffer_hits + s.data_disk_reads, reqs.size())
        << to_string(policy);
    EXPECT_EQ(s.response_time_sec.count(), reqs.size());
    EXPECT_GT(s.total_joules, 0.0);
  }
}

TEST(BudSimulator, AlwaysOnNeverTransitions) {
  BudSimulator sim(BudConfig{}, BudPolicy::kAlwaysOn);
  const BudStats s = sim.run(workload());
  EXPECT_EQ(s.power_transitions, 0u);
  EXPECT_EQ(s.buffer_hits, 0u);
}

TEST(BudSimulator, PreBudBeatsDpmBeatsAlwaysOn) {
  const auto reqs = workload();
  BudStats on, dpm, prebud;
  {
    BudSimulator s(BudConfig{}, BudPolicy::kAlwaysOn);
    on = s.run(reqs);
  }
  {
    BudSimulator s(BudConfig{}, BudPolicy::kDpmOnly);
    dpm = s.run(reqs);
  }
  {
    BudSimulator s(BudConfig{}, BudPolicy::kPreBud);
    prebud = s.run(reqs);
  }
  // The ordering [12] reports: prefetching opens windows DPM alone
  // cannot, and both beat no power management.
  EXPECT_LT(dpm.total_joules, on.total_joules);
  EXPECT_LT(prebud.total_joules, dpm.total_joules);
  EXPECT_GT(prebud.hit_rate(), 0.3);
  EXPECT_GT(prebud.blocks_prefetched, 0u);
}

TEST(BudSimulator, GateRejectsUnprofitableCopies) {
  // Uniform accesses over many blocks: reuse inside the window is rare,
  // so most prefetch candidacies must be rejected.
  BlockWorkloadConfig wcfg;
  wcfg.zipf_alpha = 0.0;  // uniform
  wcfg.num_blocks = 5000;
  wcfg.num_requests = 1500;
  const auto reqs = generate_block_workload(wcfg);
  BudSimulator sim(BudConfig{}, BudPolicy::kPreBud);
  const BudStats s = sim.run(reqs);
  EXPECT_GT(s.prefetches_rejected, s.blocks_prefetched);
  EXPECT_LT(s.hit_rate(), 0.3);
}

TEST(BudSimulator, ZeroLookaheadDegeneratesToDpm) {
  const auto reqs = workload();
  BudConfig cfg;
  cfg.lookahead = 0;
  BudSimulator prebud(cfg, BudPolicy::kPreBud);
  BudSimulator dpm(BudConfig{}, BudPolicy::kDpmOnly);
  const BudStats a = prebud.run(reqs);
  const BudStats b = dpm.run(reqs);
  EXPECT_EQ(a.blocks_prefetched, 0u);
  EXPECT_EQ(a.buffer_hits, 0u);
  EXPECT_DOUBLE_EQ(a.total_joules - a.buffer_disk_joules,
                   b.total_joules - b.buffer_disk_joules);
}

TEST(BudSimulator, BufferCapacityIsRespected) {
  BudConfig cfg;
  cfg.buffer_capacity_blocks = 5;
  BudSimulator sim(cfg, BudPolicy::kPreBud);
  const BudStats s = sim.run(workload());
  EXPECT_LE(s.blocks_prefetched, 5u);
}

TEST(BudSimulator, MoreDataDisksMoreRelativeSavings) {
  // The finding that motivated EEVFS (§I): the buffer disk amortises
  // over more sleepable data disks.
  double gain_small = 0.0, gain_large = 0.0;
  const auto reqs = workload(3, 3000);
  for (const std::size_t disks : {2u, 8u}) {
    BudConfig cfg;
    cfg.data_disks = disks;
    BudStats on, pb;
    {
      BudSimulator s(cfg, BudPolicy::kAlwaysOn);
      on = s.run(reqs);
    }
    {
      BudSimulator s(cfg, BudPolicy::kPreBud);
      pb = s.run(reqs);
    }
    const double gain = (on.total_joules - pb.total_joules) / on.total_joules;
    (disks == 2 ? gain_small : gain_large) = gain;
  }
  EXPECT_GT(gain_large, gain_small);
}

TEST(BudSimulator, InvalidUsageThrows) {
  BudConfig cfg;
  cfg.data_disks = 0;
  EXPECT_THROW(BudSimulator(cfg, BudPolicy::kDpmOnly),
               std::invalid_argument);
  cfg = {};
  cfg.buffer_disks = 0;
  EXPECT_THROW(BudSimulator(cfg, BudPolicy::kPreBud),
               std::invalid_argument);

  BudSimulator sim(BudConfig{}, BudPolicy::kDpmOnly);
  EXPECT_THROW(sim.run({}), std::invalid_argument);
  const auto reqs = workload(1, 10);
  BudSimulator sim2(BudConfig{}, BudPolicy::kDpmOnly);
  sim2.run(reqs);
  EXPECT_THROW(sim2.run(reqs), std::logic_error);
}

TEST(BudSimulator, RejectsUnsortedRequests) {
  BudSimulator sim(BudConfig{}, BudPolicy::kDpmOnly);
  std::vector<BlockRequest> bad = {{100, 0}, {50, 1}};
  EXPECT_THROW(sim.run(bad), std::invalid_argument);
}


TEST(BudSimulator, OneRequestMakespanIsTheMeteredInterval) {
  // One read under idle-timer DPM: the data disk serves it, idles until
  // its timer puts it to sleep, and every disk is metered until the
  // simulation ends.  The makespan is that interval, so the energy lies
  // between every disk in standby and every disk spinning up over it.
  const BudConfig cfg;
  BudSimulator sim(cfg, BudPolicy::kDpmOnly);
  const BudStats s = sim.run({BlockRequest{.arrival = 0, .block = 0}});
  ASSERT_EQ(s.response_time_sec.count(), 1u);
  EXPECT_GT(s.makespan, cfg.idle_threshold);  // past the sleep
  const double seconds = ticks_to_seconds(s.makespan);
  const auto disks = static_cast<double>(cfg.data_disks + cfg.buffer_disks);
  EXPECT_GE(s.total_joules, cfg.profile.standby_watts * disks * seconds);
  EXPECT_LE(s.total_joules, cfg.profile.spin_up_watts * disks * seconds);
}

class BudPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BudPropertyTest, InvariantsAcrossPoliciesAndDiskCounts) {
  const auto policy = static_cast<BudPolicy>(std::get<0>(GetParam()));
  const std::size_t disks = std::get<1>(GetParam());
  BudConfig cfg;
  cfg.data_disks = disks;
  const auto reqs = workload(7, 1500);
  BudSimulator sim(cfg, policy);
  const BudStats s = sim.run(reqs);

  // Everything served, exactly once.
  EXPECT_EQ(s.buffer_hits + s.data_disk_reads, reqs.size());
  EXPECT_EQ(s.response_time_sec.count(), reqs.size());
  // Physical bounds: between all-standby and all-spin-up power over the
  // metered interval.
  const double seconds = ticks_to_seconds(s.makespan);
  const auto total_disks = static_cast<double>(disks + cfg.buffer_disks);
  EXPECT_GE(s.total_joules, cfg.profile.standby_watts * total_disks * seconds);
  EXPECT_LE(s.total_joules, cfg.profile.spin_up_watts * total_disks * seconds);
  // Policy-specific structure.
  if (policy == BudPolicy::kAlwaysOn) {
    EXPECT_EQ(s.power_transitions, 0u);
    EXPECT_EQ(s.buffer_hits, 0u);
  }
  if (policy != BudPolicy::kPreBud) {
    EXPECT_EQ(s.blocks_prefetched, 0u);
  }
  EXPECT_GT(s.response_time_sec.min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByDisks, BudPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<std::size_t>(1, 2, 4, 8)));

}  // namespace
}  // namespace eevfs::baseline
