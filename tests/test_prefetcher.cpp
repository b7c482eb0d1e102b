// Direct unit tests of the PRE-BUD prefix gate (core/prefetcher).
#include "core/prefetcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "hint_views.hpp"
#include "util/rng.hpp"

namespace eevfs::core {
namespace {

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest()
      : profile(disk::DiskProfile::ata133_fast()),
        model(profile, seconds_to_ticks(5.0), 1.0) {}

  Prefetcher make(bool gate = true) const {
    return Prefetcher(model, profile, gate);
  }

  /// Accesses every `gap_s` seconds over the horizon for one file.
  std::vector<Tick> periodic(double gap_s, double horizon_s,
                             double offset_s = 0.0) const {
    std::vector<Tick> out;
    for (double t = offset_s; t < horizon_s; t += gap_s) {
      out.push_back(seconds_to_ticks(t));
    }
    return out;
  }

  disk::DiskProfile profile;
  EnergyPredictionModel model;
  static constexpr Tick kHorizon = 800 * kTicksPerSecond;
};

TEST_F(PrefetcherTest, EmptyCandidatesYieldEmptyPlan) {
  const auto plan =
      make().plan({}, {}, {{}, {}}, kHorizon, 80 * kGB);
  EXPECT_TRUE(plan.accepted.empty());
  EXPECT_TRUE(plan.rejected_by_gate.empty());
  EXPECT_EQ(plan.total_bytes, 0u);
  ASSERT_EQ(plan.residual_disk_accesses.size(), 2u);
}

TEST_F(PrefetcherTest, AcceptsSetThatOpensTheWholeHorizon) {
  // Three files interleave 5 s apart on one disk: no single file opens a
  // window, the set of all three opens the whole horizon — the prefix
  // gate must accept all of them (the greedy-per-file gate would not).
  HintOffsets accesses;
  std::vector<Tick> disk0;
  for (trace::FileId f = 0; f < 3; ++f) {
    accesses[f] = periodic(15.0, 800.0, 5.0 * f);
    for (const Tick t : accesses[f]) disk0.push_back(t);
  }
  std::sort(disk0.begin(), disk0.end());

  std::vector<PrefetchCandidate> cands = {
      {0, 10 * kMB, {0}}, {1, 10 * kMB, {0}}, {2, 10 * kMB, {0}}};
  const auto plan = make().plan(cands, hint_views(accesses), {disk0},
                                kHorizon, 80 * kGB);
  EXPECT_EQ(plan.accepted.size(), 3u);
  EXPECT_TRUE(plan.residual_disk_accesses[0].empty());
  EXPECT_GT(plan.predicted_benefit, 0.0);
}

TEST_F(PrefetcherTest, StopsAtThePrefixWhereBenefitPeaks) {
  // File 0 is hot (all the traffic); files 1 and 2 are never accessed —
  // copying them is pure cost, so the best prefix is just {0}.
  HintOffsets accesses;
  accesses[0] = periodic(10.0, 800.0);
  const std::vector<Tick> disk0 = accesses[0];

  std::vector<PrefetchCandidate> cands = {
      {0, 10 * kMB, {0}}, {1, 10 * kMB, {0}}, {2, 10 * kMB, {0}}};
  const auto plan = make().plan(cands, hint_views(accesses), {disk0},
                                kHorizon, 80 * kGB);
  ASSERT_EQ(plan.accepted.size(), 1u);
  EXPECT_EQ(plan.accepted[0].file, 0u);
  EXPECT_EQ(plan.rejected_by_gate,
            (std::vector<trace::FileId>{1, 2}));
}

TEST_F(PrefetcherTest, RejectsEverythingOnASleepableDisk) {
  // One access far in the future: the disk already sleeps the whole
  // horizon; buffering gains next to nothing and costs a copy.
  HintOffsets accesses;
  accesses[0] = {seconds_to_ticks(400)};
  HintOffsets dense;
  // Surround with dense traffic from a non-candidate file so removing
  // file 0 opens no window.
  std::vector<Tick> disk0 = periodic(3.0, 800.0);
  disk0.push_back(seconds_to_ticks(400));
  std::sort(disk0.begin(), disk0.end());

  std::vector<PrefetchCandidate> cands = {{0, 10 * kMB, {0}}};
  const auto plan = make().plan(cands, hint_views(accesses), {disk0},
                                kHorizon, 80 * kGB);
  EXPECT_TRUE(plan.accepted.empty());
  EXPECT_EQ(plan.rejected_by_gate, (std::vector<trace::FileId>{0}));
}

TEST_F(PrefetcherTest, NoGateAcceptsEverythingThatFits) {
  HintOffsets accesses;
  std::vector<PrefetchCandidate> cands;
  for (trace::FileId f = 0; f < 5; ++f) {
    cands.push_back({f, 10 * kMB, {0}});
  }
  const auto plan =
      make(/*gate=*/false)
          .plan(cands, hint_views(accesses), {{}}, kHorizon, 35 * kMB);
  // 35 MB capacity fits three 10 MB files.
  EXPECT_EQ(plan.accepted.size(), 3u);
  EXPECT_EQ(plan.total_bytes, 30 * kMB);
  EXPECT_TRUE(plan.rejected_by_gate.empty());  // capacity, not the gate
}

TEST_F(PrefetcherTest, CapacityBoundsTheGatedPrefixToo) {
  HintOffsets accesses;
  std::vector<Tick> disk0;
  std::vector<PrefetchCandidate> cands;
  for (trace::FileId f = 0; f < 4; ++f) {
    accesses[f] = periodic(20.0, 800.0, 5.0 * f);
    for (const Tick t : accesses[f]) disk0.push_back(t);
    cands.push_back({f, 10 * kMB, {0}});
  }
  std::sort(disk0.begin(), disk0.end());
  const auto plan = make().plan(cands, hint_views(accesses), {disk0},
                                kHorizon, 25 * kMB);
  EXPECT_LE(plan.accepted.size(), 2u);
  EXPECT_LE(plan.total_bytes, 25 * kMB);
}

TEST_F(PrefetcherTest, GroupsByDiskSetForStripedCandidates) {
  // Two striped files covering disks {0,1}: their accesses land on both
  // disks; accepting them must clear both residual timelines.
  HintOffsets accesses;
  accesses[0] = periodic(12.0, 800.0);
  accesses[1] = periodic(12.0, 800.0, 6.0);
  std::vector<Tick> timeline;
  for (const auto& [f, ts] : accesses) {
    timeline.insert(timeline.end(), ts.begin(), ts.end());
  }
  std::sort(timeline.begin(), timeline.end());

  std::vector<PrefetchCandidate> cands = {{0, 10 * kMB, {0, 1}},
                                          {1, 10 * kMB, {0, 1}}};
  const auto plan = make().plan(cands, hint_views(accesses),
                                {timeline, timeline}, kHorizon, 80 * kGB);
  EXPECT_EQ(plan.accepted.size(), 2u);
  EXPECT_TRUE(plan.residual_disk_accesses[0].empty());
  EXPECT_TRUE(plan.residual_disk_accesses[1].empty());
}

TEST_F(PrefetcherTest, ResidualsShrinkExactlyByAcceptedAccesses) {
  HintOffsets accesses;
  accesses[0] = periodic(10.0, 800.0);
  accesses[1] = {seconds_to_ticks(401)};  // not a candidate
  std::vector<Tick> disk0 = accesses[0];
  disk0.push_back(seconds_to_ticks(401));
  std::sort(disk0.begin(), disk0.end());

  std::vector<PrefetchCandidate> cands = {{0, 10 * kMB, {0}}};
  const auto plan = make().plan(cands, hint_views(accesses), {disk0},
                                kHorizon, 80 * kGB);
  ASSERT_EQ(plan.accepted.size(), 1u);
  // Only the non-candidate's access remains.
  EXPECT_EQ(plan.residual_disk_accesses[0],
            (std::vector<Tick>{seconds_to_ticks(401)}));
}

/// The copying gate the planner replaced, kept as the reference rule:
/// every residual update builds a fresh vector, each disk set's pricing
/// starts from a copy of the whole plan, and each improving prefix copies
/// it again.
PrefetchPlan copying_plan(const EnergyPredictionModel& model,
                          const disk::DiskProfile& buffer_profile,
                          bool prebud_gate,
                          std::span<const PrefetchCandidate> candidates,
                          const HintOffsets& file_accesses,
                          std::vector<std::vector<Tick>> disk_accesses,
                          Tick horizon, Bytes capacity, Bytes ram_capacity) {
  const auto remove_accesses = [](const std::vector<Tick>& disk,
                                  const std::vector<Tick>& file) {
    std::vector<Tick> out;
    std::size_t j = 0;
    for (const Tick a : disk) {
      if (j < file.size() && file[j] == a) {
        ++j;
        continue;
      }
      out.push_back(a);
    }
    return out;
  };
  static const std::vector<Tick> kNoAccesses;
  const auto accesses_of = [&](trace::FileId f) -> const std::vector<Tick>& {
    const auto it = file_accesses.find(f);
    return it == file_accesses.end() ? kNoAccesses : it->second;
  };

  PrefetchPlan out;
  out.residual_disk_accesses = std::move(disk_accesses);
  Bytes ram_remaining = ram_capacity;
  std::vector<PrefetchCandidate> buffer_candidates;
  if (ram_capacity > 0) {
    for (const PrefetchCandidate& c : candidates) {
      if (c.bytes <= ram_remaining) {
        ram_remaining -= c.bytes;
        for (const std::size_t d : c.disks) {
          out.residual_disk_accesses[d] = remove_accesses(
              out.residual_disk_accesses[d], accesses_of(c.file));
        }
        out.ram_pinned.push_back(c);
        out.ram_pinned_bytes += c.bytes;
      } else {
        buffer_candidates.push_back(c);
      }
    }
    candidates = buffer_candidates;
  }

  std::map<std::vector<std::size_t>, std::vector<PrefetchCandidate>> groups;
  for (const PrefetchCandidate& c : candidates) groups[c.disks].push_back(c);
  const auto set_savings = [&](const std::vector<std::size_t>& disks,
                               const std::vector<std::vector<Tick>>& res) {
    Joules total = 0.0;
    for (const std::size_t d : disks) {
      total += model.plan_windows(res.at(d), 0, horizon).predicted_savings;
    }
    return total;
  };
  const auto copy_cost = [&](const PrefetchCandidate& c) {
    const auto width = static_cast<Bytes>(c.disks.size());
    const Bytes per_disk = (c.bytes + width - 1) / width;
    const Tick read_time = model.profile().service_time(per_disk, false);
    const Tick write_time = buffer_profile.service_time(c.bytes, true);
    return static_cast<double>(c.disks.size()) *
               energy(model.profile().active_watts -
                          model.profile().idle_watts,
                      read_time) +
           energy(buffer_profile.active_watts - buffer_profile.idle_watts,
                  write_time);
  };

  Bytes remaining = capacity;
  for (auto& [disks, list] : groups) {
    if (!prebud_gate) {
      for (const PrefetchCandidate& c : list) {
        if (c.bytes > remaining) continue;
        for (const std::size_t d : disks) {
          out.residual_disk_accesses[d] = remove_accesses(
              out.residual_disk_accesses[d], accesses_of(c.file));
        }
        out.accepted.push_back(c);
        out.total_bytes += c.bytes;
        remaining -= c.bytes;
      }
      continue;
    }
    const Joules base_savings = set_savings(disks, out.residual_disk_accesses);
    std::vector<std::vector<Tick>> residual = out.residual_disk_accesses;
    Joules copy_cost_sum = 0.0;
    Joules best_benefit = 0.0;
    std::size_t best_k = 0;
    Bytes prefix_bytes = 0;
    std::vector<std::vector<Tick>> best_residual = residual;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const PrefetchCandidate& c = list[k];
      if (prefix_bytes + c.bytes > remaining) break;
      prefix_bytes += c.bytes;
      for (const std::size_t d : disks) {
        residual[d] = remove_accesses(residual[d], accesses_of(c.file));
      }
      copy_cost_sum += copy_cost(c);
      const Joules benefit =
          set_savings(disks, residual) - base_savings - copy_cost_sum;
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_k = k + 1;
        best_residual = residual;
      }
    }
    for (std::size_t k = 0; k < list.size(); ++k) {
      if (k < best_k) {
        out.accepted.push_back(list[k]);
        out.total_bytes += list[k].bytes;
        remaining -= list[k].bytes;
      } else {
        out.rejected_by_gate.push_back(list[k].file);
      }
    }
    if (best_k > 0) {
      out.residual_disk_accesses = std::move(best_residual);
      out.predicted_benefit += best_benefit;
    }
  }
  return out;
}

std::vector<trace::FileId> files_of(const std::vector<PrefetchCandidate>& cs) {
  std::vector<trace::FileId> files;
  for (const PrefetchCandidate& c : cs) files.push_back(c.file);
  return files;
}

// The planner keeps working timelines only for the disk set it prices
// and edits the residuals in place; over random nodes it must decide
// exactly what the copying gate decides, to the last bit of the benefit.
TEST_F(PrefetcherTest, MatchesTheCopyingGateOnRandomNodes) {
  Rng rng(20261017);
  std::size_t accepting = 0;
  std::size_t rejecting = 0;
  std::size_t pinning = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t num_disks = 1 + rng.next_below(4);
    const std::size_t width = std::min<std::size_t>(
        1 + rng.next_below(2), num_disks);
    const std::size_t num_files = 1 + rng.next_below(16);
    HintOffsets accesses;
    std::vector<std::vector<Tick>> disks(num_disks);
    std::vector<PrefetchCandidate> cands;
    for (trace::FileId f = 0; f < num_files; ++f) {
      // Whole seconds, so files share ticks now and then.  A third of the
      // files go unread: copying one only costs, so the best prefix
      // often stops short of the longest one that fits.
      std::vector<Tick>& mine = accesses[f];
      const std::size_t n = rng.next_below(3) == 0 ? 0 : rng.next_below(12);
      for (std::size_t i = 0; i < n; ++i) {
        mine.push_back(seconds_to_ticks(static_cast<double>(
            rng.next_below(800))));
      }
      std::sort(mine.begin(), mine.end());
      const std::size_t first = rng.next_below(num_disks);
      std::vector<std::size_t> set;
      for (std::size_t j = 0; j < width; ++j) {
        set.push_back((first + j) % num_disks);
        disks[set.back()].insert(disks[set.back()].end(), mine.begin(),
                                 mine.end());
      }
      if (rng.next_below(4) != 0) {
        cands.push_back({f, (1 + rng.next_below(30)) * kMB, set});
      }
    }
    for (auto& d : disks) std::sort(d.begin(), d.end());
    // Rank order is not file order.
    for (std::size_t i = cands.size(); i > 1; --i) {
      std::swap(cands[i - 1], cands[rng.next_below(i)]);
    }
    const Bytes capacity = rng.next_below(200) * kMB;
    const Bytes ram = rng.next_below(3) == 0 ? rng.next_below(40) * kMB : 0;
    const bool gate = rng.next_below(5) != 0;

    const PrefetchPlan got = make(gate).plan(cands, hint_views(accesses),
                                             disks, kHorizon, capacity, ram);
    const PrefetchPlan want = copying_plan(model, profile, gate, cands,
                                           accesses, disks, kHorizon,
                                           capacity, ram);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    EXPECT_EQ(files_of(got.accepted), files_of(want.accepted));
    EXPECT_EQ(got.rejected_by_gate, want.rejected_by_gate);
    EXPECT_EQ(got.total_bytes, want.total_bytes);
    EXPECT_EQ(got.predicted_benefit, want.predicted_benefit);
    EXPECT_EQ(got.residual_disk_accesses, want.residual_disk_accesses);
    EXPECT_EQ(files_of(got.ram_pinned), files_of(want.ram_pinned));
    EXPECT_EQ(got.ram_pinned_bytes, want.ram_pinned_bytes);
    if (!want.accepted.empty()) ++accepting;
    if (!want.rejected_by_gate.empty()) ++rejecting;
    if (!want.ram_pinned.empty()) ++pinning;
  }
  // The draws reach every branch of the rule.
  EXPECT_GT(accepting, 20u);
  EXPECT_GT(rejecting, 20u);
  EXPECT_GT(pinning, 20u);
}

}  // namespace
}  // namespace eevfs::core
