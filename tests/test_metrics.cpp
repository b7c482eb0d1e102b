#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace eevfs::core {
namespace {

RunMetrics with_energy(Joules j) {
  RunMetrics m;
  m.total_joules = j;
  return m;
}

TEST(RunMetrics, EnergyGainVsBaseline) {
  const RunMetrics pf = with_energy(85.0);
  const RunMetrics npf = with_energy(100.0);
  EXPECT_DOUBLE_EQ(pf.energy_gain_vs(npf), 0.15);
  EXPECT_DOUBLE_EQ(npf.energy_gain_vs(pf), -15.0 / 85.0);
  EXPECT_DOUBLE_EQ(pf.energy_gain_vs(with_energy(0.0)), 0.0);
}

TEST(RunMetrics, ResponsePenaltyVsBaseline) {
  RunMetrics slow, fast;
  slow.response_time_sec.add(1.37);
  fast.response_time_sec.add(1.0);
  EXPECT_NEAR(slow.response_penalty_vs(fast), 0.37, 1e-12);
  EXPECT_NEAR(fast.response_penalty_vs(slow), 1.0 / 1.37 - 1.0, 1e-12);
  RunMetrics empty;
  EXPECT_DOUBLE_EQ(slow.response_penalty_vs(empty), 0.0);
}

TEST(RunMetrics, BufferHitRate) {
  RunMetrics m;
  EXPECT_DOUBLE_EQ(m.buffer_hit_rate(), 0.0);
  m.buffer_hits = 3;
  m.data_disk_reads = 1;
  EXPECT_DOUBLE_EQ(m.buffer_hit_rate(), 0.75);
}

TEST(NodeMetrics, TotalsCombineDiskAndBase) {
  NodeMetrics nm;
  nm.disk_joules = 10.0;
  nm.base_joules = 32.0;
  nm.spin_ups = 2;
  nm.spin_downs = 3;
  EXPECT_DOUBLE_EQ(nm.total_joules(), 42.0);
  EXPECT_EQ(nm.power_transitions(), 5u);
}

}  // namespace
}  // namespace eevfs::core
