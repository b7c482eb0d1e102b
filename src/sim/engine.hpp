// Deterministic discrete-event simulation engine.
//
// Design notes (why not std::priority_queue of owning events):
//  * events scheduled for the same tick must pop in the order they were
//    scheduled, otherwise runs are not reproducible across compilers —
//    we tie-break on a monotonically increasing sequence number;
//  * components (disks, NICs, power managers) need to *cancel* pending
//    events (e.g. an idle-timeout that is voided by a new request), so
//    schedule() returns a handle and cancelled events are skipped lazily;
//  * the hot path is allocation-free: event records live in a pooled
//    arena recycled through a free list, a handle is a (slot, generation)
//    ticket — not a shared_ptr liveness flag — and callbacks keep their
//    captures in InlineCallback's inline buffer instead of std::function
//    heap storage.  The heap itself holds plain 24-byte entries, so
//    ordering never moves a callback.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "util/units.hpp"

namespace eevfs::sim {

class Simulator;

/// Cancellable ticket for a scheduled event.  Default-constructed handles
/// are inert; cancel() on an already-fired, already-cancelled, or
/// recycled event is a no-op (the generation check tells a stale ticket
/// from the slot's current occupant).
///
/// A handle is a non-owning reference: it is only meaningful while its
/// Simulator is alive.  Every holder in the tree is a component torn
/// down before its engine, so this is a documented invariant rather than
/// a tracked one.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing.  Safe to call at any time.
  void cancel();

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = InlineCallback;

  /// Current simulated time.  Starts at 0.
  Tick now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (>= now).
  EventHandle schedule_at(Tick at, Callback cb);

  /// Schedules `cb` to run `delay` ticks from now (delay >= 0).
  EventHandle schedule_after(Tick delay, Callback cb);

  /// Runs until the event queue drains or `until` (if >= 0) is reached.
  /// Returns the number of events executed.
  std::uint64_t run(Tick until = -1);

  /// Runs a single event if one is pending; returns false if the queue is
  /// empty.  Useful for tests that step the simulation.
  bool step();

  /// Number of pending heap entries, cancelled-but-unpopped ones
  /// included.
  std::size_t pending_events() const { return heap_.size(); }

  std::uint64_t executed_events() const { return executed_; }

  /// High-water mark of the pending-event queue over the whole run.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Event records currently held by the arena (live + recyclable) —
  /// diagnostic, bounded by the queue's high-water mark.
  std::size_t pool_slots() const { return pool_.size(); }

  /// Wall-clock seconds spent inside run()/step() so far.  Diagnostic
  /// only — never feed this back into sim state or metrics that must be
  /// reproducible.
  double wall_seconds() const { return wall_seconds_; }

 private:
  friend class EventHandle;

  /// Pooled event record.  `gen` is bumped every time the slot is
  /// released (fire or cancel), instantly invalidating stale tickets.
  struct Record {
    Callback callback;
    std::uint32_t gen = 0;
  };

  /// Heap entry: plain data, cheap to sift.  Carries the generation so a
  /// cancelled slot can be recycled while its entry still sits in the
  /// heap — a mismatch on pop means "skip".
  struct QueueItem {
    Tick time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops entries until a live event is claimed: moves its callback out,
  /// releases the slot, and reports its time.  False when drained.  The
  /// slot is released *before* the callback runs, so handle.pending() is
  /// false inside the callback and the slot is immediately reusable.
  bool claim_next(Tick* time, Callback* cb);

  /// True when the top-of-heap entry refers to a released slot.
  bool stale_top() const {
    return pool_[heap_.front().slot].gen != heap_.front().gen;
  }
  void pop_top();
  void release(std::uint32_t slot);

  void do_cancel(std::uint32_t slot, std::uint32_t gen);
  bool is_pending(std::uint32_t slot, std::uint32_t gen) const {
    return pool_[slot].gen == gen;
  }

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  double wall_seconds_ = 0.0;
  std::vector<QueueItem> heap_;  // binary min-heap on (time, seq)
  std::vector<Record> pool_;
  std::vector<std::uint32_t> free_;  // released slots, ready for reuse
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->do_cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->is_pending(slot_, gen_);
}

}  // namespace eevfs::sim
