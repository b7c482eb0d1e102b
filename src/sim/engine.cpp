#include "sim/engine.hpp"

#include <algorithm>
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
  heap_.push_back(QueueItem{at, next_seq_++, slot, rec.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
  return EventHandle(this, slot, rec.gen);
}

EventHandle Simulator::schedule_after(Tick delay, Callback cb) {
  if (delay < 0) {
    throw std::logic_error("Simulator::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(cb));
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
  release(slot);  // the heap entry is skipped lazily via its stale gen
}

bool Simulator::claim_next(Tick* time, Callback* cb) {
  while (!heap_.empty()) {
    if (stale_top()) {
      pop_top();
      continue;
    }
    const QueueItem top = heap_.front();
    pop_top();
    *time = top.time;
    *cb = std::move(pool_[top.slot].callback);
    release(top.slot);
    return true;
  }
  return false;
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
  while (!heap_.empty()) {
    if (stale_top()) {
      pop_top();
      continue;
    }
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
