// Event-queue tests: the engine's binary heap with lazy cancellation
// must be observationally identical to the reference queue below — same
// firing order, same pending counts at schedule time (cancelled entries
// included), same high-water mark.  The randomized traces drive both
// and compare, with delays from the same tick out past 2^48 ticks.
//
// Also covered: the EventHandle slot/generation semantics for far-future
// timers — cancel before the clock nears them, cancel from an earlier
// event, cancel through a recycled slot whose stale entry is still
// queued — and FIFO order among equal timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace eevfs::sim {
namespace {

constexpr Tick kMs = kTicksPerSecond / 1000;

/// A minimal model of the engine's queue: one binary heap over
/// (time, seq) with lazily skipped cancellations, tracking liveness by
/// id instead of by slot generation.  Drives the expected firing order
/// and the expected pending/high-water accounting.
class ReferenceQueue {
 public:
  int schedule(Tick at) {
    const int id = next_id_++;
    items_.push_back(Item{at, seq_++, id});
    std::push_heap(items_.begin(), items_.end(), Later{});
    live_.insert(id);
    max_depth_ = std::max(max_depth_, items_.size());
    return id;
  }

  bool live(int id) const { return live_.count(id) != 0; }
  void cancel(int id) { live_.erase(id); }

  /// Mirrors Simulator::run(until): pops stale tops eagerly, stops
  /// before the first live event past `until`.
  void run(Tick until, std::vector<int>* fired) {
    while (!items_.empty()) {
      const Item top = items_.front();
      if (live_.count(top.id) == 0) {
        pop();
        continue;
      }
      if (until >= 0 && top.time > until) return;
      pop();
      live_.erase(top.id);
      fired->push_back(top.id);
    }
  }

  /// Mirrors Simulator::step(): skips the stale prefix, fires one event.
  bool step_one(std::vector<int>* fired) {
    while (!items_.empty()) {
      const Item top = items_.front();
      pop();
      if (live_.count(top.id) == 0) continue;
      live_.erase(top.id);
      fired->push_back(top.id);
      return true;
    }
    return false;
  }

  std::size_t pending() const { return items_.size(); }
  std::size_t max_depth() const { return max_depth_; }

 private:
  struct Item {
    Tick time;
    std::uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  void pop() {
    std::pop_heap(items_.begin(), items_.end(), Later{});
    items_.pop_back();
  }

  std::vector<Item> items_;
  std::set<int> live_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::size_t max_depth_ = 0;
};

/// Delay distribution from the same tick through milliseconds, seconds
/// and years to past 2^48 ticks.
Tick random_delay(Rng& rng) {
  switch (rng.next_below(20)) {
    case 0:
      return 0;  // same-tick
    case 1:
    case 2:
    case 3:
    case 4:
    case 5:
    case 6:
      return static_cast<Tick>(rng.next_below(16000));
    case 7:
    case 8:
    case 9:
    case 10:
    case 11:
      return static_cast<Tick>(rng.next_below(300 * kMs));
    case 12:
    case 13:
    case 14:
    case 15:
      return static_cast<Tick>(rng.next_below(30 * kTicksPerSecond));
    case 16:
    case 17:
      return static_cast<Tick>(rng.next_below(Tick{1} << 40));
    case 18:
      return static_cast<Tick>(rng.next_below(Tick{1} << 44));
    default:
      // Past 2^48 ticks (about 8.9 simulated years).
      return (Tick{1} << 48) + static_cast<Tick>(rng.next_below(Tick{1} << 30));
  }
}

/// Randomized trace against the reference: schedules, cancels, and
/// partial runs interleaved; firing order, handle liveness and the
/// pending count must match the reference exactly.
void run_equivalence_trace(std::uint64_t seed, bool partial_runs) {
  Rng rng(seed);
  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> fired_sim;
  std::vector<int> fired_ref;
  struct LiveHandle {
    int id;
    EventHandle handle;
  };
  std::vector<LiveHandle> handles;

  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 60 || handles.empty()) {
      const Tick at = sim.now() + random_delay(rng);
      const int id = ref.schedule(at);
      handles.push_back(
          {id, sim.schedule_at(at, [id, &fired_sim] { fired_sim.push_back(id); })});
    } else if (pick < 85) {
      const std::size_t i = rng.next_below(handles.size());
      EXPECT_EQ(handles[i].handle.pending(), ref.live(handles[i].id));
      handles[i].handle.cancel();
      ref.cancel(handles[i].id);
      handles[i] = handles.back();
      handles.pop_back();
    } else if (partial_runs) {
      const Tick until = sim.now() + static_cast<Tick>(rng.next_below(
                                         2 * kTicksPerSecond));
      sim.run(until);
      ref.run(until, &fired_ref);
      EXPECT_EQ(sim.now(), until);
      EXPECT_EQ(fired_sim, fired_ref);
    }
    EXPECT_EQ(sim.pending_events(), ref.pending());
  }

  // Stepped drain with schedule-inside-callback reactions — the pattern
  // every cluster component uses.  Firing order and the pending count
  // must match event by event (the count, cancelled entries included,
  // is what the sim.queue_depth_peak golden gauge pins).
  for (;;) {
    const bool fired = sim.step();
    if (fired) ref.step_one(&fired_ref);
    ASSERT_EQ(fired_sim, fired_ref);
    if (!fired) break;
    if (rng.next_below(100) < 30) {
      const Tick at = sim.now() + random_delay(rng);
      const int id = ref.schedule(at);
      handles.push_back(
          {id, sim.schedule_at(at, [id, &fired_sim] { fired_sim.push_back(id); })});
    }
    EXPECT_EQ(sim.pending_events(), ref.pending());
  }
  EXPECT_EQ(fired_sim, fired_ref);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), fired_sim.size());
  EXPECT_EQ(sim.max_queue_depth(), ref.max_depth());
}

TEST(SimWheel, MatchesReferenceHeapOrder) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_equivalence_trace(seed, /*partial_runs=*/true);
  }
}

TEST(SimWheel, MatchesReferencePendingCountsAndHighWater) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    run_equivalence_trace(seed, /*partial_runs=*/false);
  }
}

TEST(SimWheel, NearEventsBypassTheWheel) {
  // Near and far events share the one queue; both count as pending.
  Simulator sim;
  (void)sim.schedule_after(1 * kMs, [] {});
  (void)sim.schedule_after(10 * kTicksPerSecond, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(SimWheel, CancelInWheelNeverFires) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_after(10 * kTicksPerSecond, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.pending_events(), 1u);  // the entry stays until popped
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);  // tombstone swept out
  EXPECT_EQ(sim.now(), 0);              // nothing executed, clock untouched
}

TEST(SimWheel, CancelAfterCascadeIsSafeNoop) {
  // A far timer cancelled by an earlier event one millisecond before it
  // is due must not fire, and a second cancel is a no-op.
  Simulator sim;
  int fired_far = 0;
  EventHandle far = sim.schedule_at(100 * kMs, [&] { ++fired_far; });
  (void)sim.schedule_at(99 * kMs, [&] {
    EXPECT_TRUE(far.pending());
    far.cancel();
    EXPECT_FALSE(far.pending());
    far.cancel();  // double-cancel: still a no-op
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired_far, 0);
  EXPECT_EQ(sim.now(), 99 * kMs);
}

TEST(SimWheel, RecycledSlotAcrossWheelBoundary) {
  // Cancel a far timer, let its slot be recycled by a new event, then
  // drive the clock past the dead entry's time: the stale entry must
  // neither fire nor disturb the slot's new occupant, and the old
  // handle must stay inert throughout.
  Simulator sim;
  int fired_a = 0;
  int fired_b = 0;
  EventHandle a = sim.schedule_at(100 * kMs, [&] { ++fired_a; });
  a.cancel();  // slot released while its entry still sits in the heap
  EventHandle b =
      sim.schedule_at(200 * kMs, [&] { ++fired_b; });  // recycles the slot
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();  // stale ticket aimed at B's slot: generation check rejects
  EXPECT_TRUE(b.pending());
  EXPECT_EQ(sim.run(150 * kMs), 0u);  // passes A's time: tombstone swept
  EXPECT_EQ(fired_a, 0);
  EXPECT_TRUE(b.pending());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired_a, 0);
  EXPECT_EQ(fired_b, 1);
  EXPECT_EQ(sim.now(), 200 * kMs);
}

TEST(SimWheel, CascadeAcrossLevelsKeepsOrder) {
  // Events 5 ms apart over 600 ms, scheduled in reverse time order,
  // must fire in global (time, seq) order.
  Simulator sim;
  std::vector<int> fired;
  std::vector<int> expected;
  for (int k = 120; k >= 1; --k) {  // scheduled in reverse time order
    (void)sim.schedule_at(static_cast<Tick>(k) * 5 * kMs,
                    [k, &fired] { fired.push_back(k); });
  }
  for (int k = 1; k <= 120; ++k) expected.push_back(k);
  EXPECT_EQ(sim.run(), 120u);
  EXPECT_EQ(fired, expected);
}

TEST(SimWheel, WrapAroundPastWheelCoverage) {
  // Times past 2^48 ticks order exactly like near ones.
  Simulator sim;
  std::vector<int> fired;
  const Tick beyond = Tick{1} << 50;
  (void)sim.schedule_at(beyond + 1, [&] { fired.push_back(3); });
  (void)sim.schedule_at(beyond, [&] { fired.push_back(2); });
  (void)sim.schedule_at(5 * kTicksPerSecond, [&] { fired.push_back(1); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), beyond + 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimWheel, OverflowEntriesCancellable) {
  Simulator sim;
  int fired = 0;
  EventHandle h =
      sim.schedule_at((Tick{1} << 49) + 7, [&] { ++fired; });
  (void)sim.schedule_at(1 * kTicksPerSecond, [&] { h.cancel(); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimWheel, RunUntilLeavesWheelUntouchedBeyondHorizon) {
  // run(until) stops before the first live event past `until`, leaves
  // later events queued, and sets the clock to `until`.
  Simulator sim;
  (void)sim.schedule_after(10 * kTicksPerSecond, [] {});
  (void)sim.schedule_after(20 * kTicksPerSecond, [] {});
  EXPECT_EQ(sim.run(1 * kTicksPerSecond), 0u);
  EXPECT_EQ(sim.now(), 1 * kTicksPerSecond);
  EXPECT_EQ(sim.pending_events(), 2u);  // still queued
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimWheel, SameTickSameBucketFifo) {
  // Equal far-future timestamps must pop in schedule order.
  Simulator sim;
  std::vector<int> fired;
  const Tick at = 300 * kMs;
  for (int i = 0; i < 8; ++i) {
    (void)sim.schedule_at(at, [i, &fired] { fired.push_back(i); });
  }
  EXPECT_EQ(sim.run(), 8u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace eevfs::sim
