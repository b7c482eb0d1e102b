// Randomised state-machine exercise of DiskModel: thousands of random
// operation sequences, with invariants checked after every drain.
#include <gtest/gtest.h>

#include "disk/disk_model.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace eevfs::disk {
namespace {

struct FuzzResult {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t completion_order_violations = 0;
};

FuzzResult fuzz_once(std::uint64_t seed, double retry_prob) {
  sim::Simulator sim;
  DiskProfile profile = DiskProfile::ata133_fast();
  profile.spin_up_retry_prob = retry_prob;
  DiskModel disk(sim, profile, "fuzz" + std::to_string(seed));
  Rng rng(seed);

  FuzzResult result;
  std::uint64_t next_tag = 0;
  std::uint64_t last_completed_tag = 0;
  bool first_completion = true;

  for (int step = 0; step < 400; ++step) {
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // submit a request
        DiskRequest req;
        req.bytes = (1 + rng.next_below(20)) * kMB;
        req.sequential = rng.next_below(2) == 0;
        const std::uint64_t tag = next_tag++;
        req.on_complete = [&, tag](Tick, disk::IoStatus) {
          ++result.completed;
          if (!first_completion && tag != last_completed_tag + 1) {
            ++result.completion_order_violations;
          }
          first_completion = false;
          last_completed_tag = tag;
        };
        disk.submit(std::move(req));
        ++result.submitted;
        break;
      }
      case 2:
        disk.request_spin_down();
        break;
      case 3:
        disk.request_spin_up();
        break;
      case 4:  // let time pass
        sim.run(sim.now() +
                seconds_to_ticks(rng.uniform(0.01, 20.0)));
        break;
    }
  }
  sim.run();
  disk.finalize();

  // Invariants -----------------------------------------------------------
  // 1. Every submitted request completed exactly once.
  EXPECT_EQ(result.completed, result.submitted) << "seed " << seed;
  // 2. FIFO completion order.
  EXPECT_EQ(result.completion_order_violations, 0u) << "seed " << seed;
  // 3. The meter accounts every tick exactly once.
  EXPECT_EQ(disk.meter().total_ticks(), sim.now()) << "seed " << seed;
  // 4. Transition counters are consistent: a disk can only spin up after
  //    spinning down, so ups <= downs, and it ends spun up or down.
  EXPECT_LE(disk.spin_ups(), disk.spin_downs()) << "seed " << seed;
  EXPECT_GE(disk.spin_downs(), disk.spin_ups());
  // 5. Queue fully drained.
  EXPECT_EQ(disk.queue_depth(), 0u) << "seed " << seed;
  // 6. Energy is positive and bounded by the max-power envelope.
  const double seconds = ticks_to_seconds(sim.now());
  EXPECT_GE(disk.meter().total_joules(),
            profile.standby_watts * seconds * 0.999);
  EXPECT_LE(disk.meter().total_joules(),
            profile.spin_up_watts * seconds * 1.001);
  return result;
}

class DiskFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiskFuzzTest, InvariantsHoldUnderRandomOperations) {
  const FuzzResult r = fuzz_once(GetParam(), 0.0);
  EXPECT_GT(r.submitted, 0u);
}

TEST_P(DiskFuzzTest, InvariantsHoldWithFlakySpinUps) {
  const FuzzResult r = fuzz_once(GetParam() ^ 0xF00D, 0.4);
  EXPECT_GT(r.submitted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(DiskFlakiness, RetriesAreCountedAndCostTime) {
  sim::Simulator sim;
  DiskProfile flaky = DiskProfile::ata133_fast();
  flaky.spin_up_retry_prob = 1.0;  // every spin-up retries
  DiskModel disk(sim, flaky, "always-flaky");
  ASSERT_TRUE(disk.request_spin_down());
  sim.run();
  const Tick t0 = sim.now();
  disk.request_spin_up();
  sim.run();
  EXPECT_EQ(disk.spin_up_retries(), 1u);
  EXPECT_EQ(sim.now() - t0, 2 * flaky.spin_up_time);
}

TEST(DiskFlakiness, ZeroProbabilityNeverRetries) {
  sim::Simulator sim;
  const DiskProfile profile = DiskProfile::ata133_fast();
  DiskModel disk(sim, profile, "solid");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(disk.request_spin_down());
    sim.run();
    disk.request_spin_up();
    sim.run();
  }
  EXPECT_EQ(disk.spin_up_retries(), 0u);
}

TEST(DiskFlakiness, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Simulator sim;
    DiskProfile flaky = DiskProfile::ata133_fast();
    flaky.spin_up_retry_prob = 0.5;
    DiskModel disk(sim, flaky, "repeatable");
    for (int i = 0; i < 50; ++i) {
      disk.request_spin_down();
      sim.run();
      disk.request_spin_up();
      sim.run();
    }
    return disk.spin_up_retries();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 10u);
  EXPECT_LT(a, 40u);
}

}  // namespace
}  // namespace eevfs::disk
