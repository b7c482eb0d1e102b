#include "disk/write_journal.hpp"

#include <stdexcept>
#include <utility>

namespace eevfs::disk {

std::string to_string(JournalMode m) {
  switch (m) {
    case JournalMode::kOff: return "off";
    case JournalMode::kCommit: return "commit";
    case JournalMode::kCheckpoint: return "checkpoint";
  }
  return "?";
}

JournalMode parse_journal_mode(std::string_view s) {
  if (s == "off") return JournalMode::kOff;
  if (s == "commit") return JournalMode::kCommit;
  if (s == "checkpoint") return JournalMode::kCheckpoint;
  throw std::invalid_argument("unknown journal mode: " + std::string(s));
}

WriteJournal::WriteJournal(sim::Simulator& sim, JournalParams params,
                           DiskModel& log)
    : sim_(sim), params_(params), log_(log) {}

void WriteJournal::append(
    std::uint32_t file, Bytes bytes, std::size_t data_disk,
    std::function<void(Tick, IoStatus, std::uint64_t)> done) {
  if (!enabled()) {
    (void)sim_.schedule_after(0, [this, done = std::move(done)] {
      done(sim_.now(), IoStatus::kOk, 0);
    });
    return;
  }
  JournalRecord rec;
  rec.file = file;
  rec.bytes = bytes;
  rec.data_disk = data_disk;
  const std::uint64_t ep = epoch_;
  DiskRequest header;
  header.bytes = kHeaderBytes;
  header.sequential = true;  // the log is append-only
  header.is_write = true;
  header.on_complete = [this, rec, ep, done = std::move(done)](
                           Tick t, IoStatus st) mutable {
    if (ep != epoch_) return;  // crashed mid-append: never acked, drop
    if (st != IoStatus::kOk) {
      done(t, st, 0);
      return;
    }
    JournalRecord durable = rec;
    durable.lsn = next_lsn_++;
    durable_.emplace(durable.lsn, durable);
    ++appends_;
    done(t, st, durable.lsn);
  };
  log_.submit(std::move(header));
}

void WriteJournal::mark_destaged(std::uint64_t lsn) {
  if (!enabled()) return;
  if (!durable_.contains(lsn)) return;  // already truncated
  if (!destaged_.insert(lsn).second) return;
  if (destaged_.size() == durable_.size()) {
    // Fully drained: truncating is a superblock update piggybacked on the
    // next log append — modeled as free in both journaling modes.
    truncate_marked();
    return;
  }
  if (params_.mode == JournalMode::kCheckpoint) {
    ++marks_since_checkpoint_;
    maybe_checkpoint();
  }
}

void WriteJournal::maybe_checkpoint() {
  if (checkpoint_in_flight_ ||
      marks_since_checkpoint_ < kCheckpointEvery) {
    return;
  }
  checkpoint_in_flight_ = true;
  marks_since_checkpoint_ = 0;
  const std::uint64_t ep = epoch_;
  DiskRequest cp;
  cp.bytes = kCheckpointBytes;
  cp.sequential = true;
  cp.is_write = true;
  cp.on_complete = [this, ep](Tick, IoStatus st) {
    if (ep != epoch_) return;  // crashed mid-checkpoint: nothing truncated
    checkpoint_in_flight_ = false;
    if (st != IoStatus::kOk) return;  // records stay durable — safe
    ++checkpoints_;
    truncate_marked();
  };
  log_.submit(std::move(cp));
}

void WriteJournal::truncate_marked() {
  for (const std::uint64_t lsn : destaged_) {
    truncated_records_ += durable_.erase(lsn);
  }
  destaged_.clear();
}

void WriteJournal::crash() {
  ++epoch_;  // drops every in-flight header/checkpoint completion
  destaged_.clear();
  marks_since_checkpoint_ = 0;
  checkpoint_in_flight_ = false;
}

void WriteJournal::replay(
    std::function<void(Tick, IoStatus, std::vector<JournalRecord>)> done) {
  if (!enabled() || durable_.empty()) {
    (void)sim_.schedule_after(0, [this, done = std::move(done)] {
      done(sim_.now(), IoStatus::kOk, {});
    });
    return;
  }
  const Bytes scan = kHeaderBytes * static_cast<Bytes>(durable_.size());
  const std::uint64_t ep = epoch_;
  DiskRequest read;
  read.bytes = scan;
  read.sequential = true;
  read.on_complete = [this, scan, ep, done = std::move(done)](
                         Tick t, IoStatus st) mutable {
    if (ep != epoch_) return;  // re-crashed mid-scan
    if (st != IoStatus::kOk) {
      // Scan unreadable (log disk gone): the records stay durable for a
      // later attempt; the caller decides what that means for the node.
      done(t, st, {});
      return;
    }
    replay_scan_bytes_ += scan;
    std::vector<JournalRecord> out;
    out.reserve(durable_.size());
    for (const auto& [lsn, rec] : durable_) {
      if (!destaged_.contains(lsn)) out.push_back(rec);
    }
    done(t, st, std::move(out));
  };
  log_.submit(std::move(read));
}

}  // namespace eevfs::disk
