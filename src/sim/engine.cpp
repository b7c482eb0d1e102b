#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace eevfs::sim {

EventHandle Simulator::schedule_at(Tick at, Callback cb) {
  if (at < now_) {
    throw std::logic_error("Simulator::schedule_at: time in the past");
  }
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Record& rec = pool_[slot];
  rec.callback = std::move(cb);
  const QueueItem item{at, next_seq_++, slot, rec.gen};
  if (at < horizon_ || at - now_ <= kNearWindow) {
    push_heap_item(item);
  } else {
    insert_wheel(item);
  }
  note_depth();
  return EventHandle(this, slot, rec.gen);
}

EventHandle Simulator::schedule_after(Tick delay, Callback cb) {
  if (delay < 0) {
    throw std::logic_error("Simulator::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(cb));
}

void Simulator::push_heap_item(const QueueItem& item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Simulator::release(std::uint32_t slot) {
  Record& rec = pool_[slot];
  rec.callback.reset();
  ++rec.gen;  // every outstanding ticket for this slot is now stale
  free_.push_back(slot);
}

void Simulator::do_cancel(std::uint32_t slot, std::uint32_t gen) {
  if (pool_[slot].gen != gen) return;  // fired, cancelled, or recycled
  // The queue entry — wherever it currently sits: near heap, wheel
  // bucket, or overflow — is skipped lazily via its stale gen.
  release(slot);
}

void Simulator::insert_wheel(const QueueItem& item) {
  assert(item.time >= horizon_);
  const auto at = static_cast<std::uint64_t>(item.time);
  const auto hor = static_cast<std::uint64_t>(horizon_);
  for (int lvl = 0; lvl < kWheelLevels; ++lvl) {
    const int shift = kWheelShift + lvl * kWheelBits;
    if ((at >> shift) - (hor >> shift) < kWheelSlots) {
      const std::uint64_t idx = at >> shift;
      const auto slot = static_cast<std::size_t>(idx % kWheelSlots);
      buckets_[static_cast<std::size_t>(lvl)][slot].push_back(item);
      occupied_[static_cast<std::size_t>(lvl)] |= std::uint64_t{1} << slot;
      ++wheel_count_;
      const Tick bound = static_cast<Tick>(idx << shift);
      if (bound < wheel_bound_) wheel_bound_ = bound;
      return;
    }
  }
  overflow_.push_back(item);
  ++wheel_count_;
  if (item.time < overflow_min_) overflow_min_ = item.time;
  if (item.time < wheel_bound_) wheel_bound_ = item.time;
}

/// Earliest occupied window start at `lvl` given the current horizon,
/// kNoBound when the level is empty.  The occupancy bitmap is rotated so
/// the horizon's own slot is bit 0; countr_zero then walks the level in
/// time order (every occupied slot lies within one revolution ahead —
/// the insert rule never files an entry more than kWheelSlots windows
/// out at its level).
Tick Simulator::level_bound(int lvl, std::size_t* slot) const {
  const std::uint64_t bits = occupied_[static_cast<std::size_t>(lvl)];
  if (bits == 0) return kNoBound;
  const int shift = kWheelShift + lvl * kWheelBits;
  const std::uint64_t cur = static_cast<std::uint64_t>(horizon_) >> shift;
  const auto rot = static_cast<int>(cur % kWheelSlots);
  const auto off =
      static_cast<std::uint64_t>(std::countr_zero(std::rotr(bits, rot)));
  const std::uint64_t idx = cur + off;
  *slot = static_cast<std::size_t>(idx % kWheelSlots);
  return static_cast<Tick>(idx << shift);
}

Tick Simulator::compute_wheel_bound() const {
  Tick best = overflow_min_;
  for (int lvl = 0; lvl < kWheelLevels; ++lvl) {
    std::size_t slot = 0;
    const Tick bound = level_bound(lvl, &slot);
    if (bound < best) best = bound;
  }
  return best;
}

void Simulator::advance_wheel() {
  assert(wheel_count_ > 0);
  // Earliest bucket wins; on a tie between levels the higher level goes
  // first, so a coarse bucket sharing its window start with a level-0
  // bucket cascades down before that level-0 bucket dumps — otherwise
  // the dump would advance the horizon past entries still in the wheel.
  int best_lvl = -1;
  std::size_t best_slot = 0;
  Tick best = kNoBound;
  for (int lvl = 0; lvl < kWheelLevels; ++lvl) {
    std::size_t slot = 0;
    const Tick bound = level_bound(lvl, &slot);
    if (bound != kNoBound && (best_lvl < 0 || bound <= best)) {
      best = bound;
      best_lvl = lvl;
      best_slot = slot;
    }
  }
  if (!overflow_.empty() && (best_lvl < 0 || overflow_min_ < best)) {
    // Beyond-coverage entries: jump the horizon to the overflow
    // minimum's level-0 window and redistribute.  The earliest entry is
    // then guaranteed to land in a level-0 bucket, so this terminates.
    constexpr Tick kBucketMask = (Tick{1} << kWheelShift) - 1;
    horizon_ = std::max(horizon_, overflow_min_ & ~kBucketMask);
    cascade_scratch_.clear();
    cascade_scratch_.swap(overflow_);
    overflow_min_ = kNoBound;
    wheel_count_ -= cascade_scratch_.size();
    for (const QueueItem& item : cascade_scratch_) insert_wheel(item);
    wheel_bound_ = compute_wheel_bound();
    return;
  }
  assert(best_lvl >= 0);
  assert(best >= horizon_);
  std::vector<QueueItem>& bucket =
      buckets_[static_cast<std::size_t>(best_lvl)][best_slot];
  occupied_[static_cast<std::size_t>(best_lvl)] &=
      ~(std::uint64_t{1} << best_slot);
  if (best_lvl == 0) {
    // Dump into the near heap — cancelled entries included, so the
    // pending count and its high-water mark evolve exactly as with a
    // single global heap; the lazy gen check discards them on pop.
    horizon_ = std::max(horizon_, best + (Tick{1} << kWheelShift));
    wheel_count_ -= bucket.size();
    for (const QueueItem& item : bucket) push_heap_item(item);
    bucket.clear();
  } else {
    // Cascade one level down.  Raising the horizon to the window start
    // first guarantees every entry fits at the next level (the window
    // spans exactly kWheelSlots child windows).
    horizon_ = std::max(horizon_, best);
    cascade_scratch_.clear();
    cascade_scratch_.swap(bucket);
    wheel_count_ -= cascade_scratch_.size();
    for (const QueueItem& item : cascade_scratch_) insert_wheel(item);
  }
  wheel_bound_ = compute_wheel_bound();
}

bool Simulator::claim_next(Tick* time, Callback* cb) {
  for (;;) {
    if (!heap_.empty()) {
      if (stale_top()) {
        pop_top();
        continue;
      }
      // wheel_bound_ is kNoBound when the wheel is empty, so the common
      // pure-heap case short-circuits on the first compare.
      if (heap_.front().time < wheel_bound_ || wheel_count_ == 0) {
        const QueueItem top = heap_.front();
        pop_top();
        *time = top.time;
        *cb = std::move(pool_[top.slot].callback);
        release(top.slot);
        return true;
      }
    } else if (wheel_count_ == 0) {
      return false;
    }
    advance_wheel();
  }
}

std::uint64_t Simulator::run(Tick until) {
  // Deliberate wall-clock use: wall_seconds() is diagnostic-only meta
  // (run_report schema keeps it out of result comparisons), so the
  // determinism lint is waived here — the only engine-side use in the
  // tree (docs/static_analysis.md lists every waiver).
  const auto wall_start = std::chrono::steady_clock::now();  // eevfs-lint: allow(D1)
  // Accumulate on every exit path; wall time is diagnostic-only.
  struct WallGuard {
    std::chrono::steady_clock::time_point start;  // eevfs-lint: allow(D1)
    double* acc;
    ~WallGuard() {
      *acc += std::chrono::duration<double>(std::chrono::steady_clock::now() -  // eevfs-lint: allow(D1)
                                            start)
                  .count();
    }
  } guard{wall_start, &wall_seconds_};
  std::uint64_t count = 0;
  Callback cb;
  for (;;) {
    if (!heap_.empty()) {
      if (stale_top()) {
        pop_top();
        continue;
      }
      if (heap_.front().time < wheel_bound_ || wheel_count_ == 0) {
        const Tick at = heap_.front().time;
        if (until >= 0 && at > until) {
          now_ = until;
          return count;
        }
        const std::uint32_t slot = heap_.front().slot;
        pop_top();
        cb = std::move(pool_[slot].callback);
        release(slot);  // before invoking: handle.pending() is false inside
        assert(at >= now_);
        now_ = at;
        cb();
        ++executed_;
        ++count;
        continue;
      }
    } else if (wheel_count_ == 0) {
      break;
    }
    // Everything left (live heap top and all wheeled entries) lies past
    // `until`: stop without touching the wheel.
    if (until >= 0 && wheel_bound_ > until &&
        (heap_.empty() || heap_.front().time > until)) {
      now_ = until;
      return count;
    }
    advance_wheel();
  }
  if (until >= 0 && until > now_) now_ = until;
  return count;
}

bool Simulator::step() {
  Tick at = 0;
  Callback cb;
  if (!claim_next(&at, &cb)) return false;
  assert(at >= now_);
  now_ = at;
  cb();
  ++executed_;
  return true;
}

}  // namespace eevfs::sim
