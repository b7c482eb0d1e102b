// Write-ahead journal for the buffer-disk write buffer (robustness
// extension, crash-stop recovery).
//
// The paper's write path (§III-C) parks acknowledged writes on the buffer
// disk and destages them when the data disks spin up.  A whole-node crash
// loses the RAM-side index of that parking lot, so every acked-but-not-
// destaged write is gone even though its bytes are on a platter.  The
// journal closes that hole: a small commit header is appended to the
// buffer-disk log *after* the payload lands and *before* the write is
// acknowledged, so a restarted node can rebuild the destage queue by
// scanning the log.
//
// Three modes give the durability/energy ablation axis:
//   kOff        — no journal I/O at all; today's lossy behaviour.
//   kCommit     — append-before-ack headers; destage marks are RAM-only,
//                 so the log is durably truncated only when it fully
//                 drains.  Cheapest steady state, longest replay.
//   kCheckpoint — like kCommit, plus a durable checkpoint record every
//                 kCheckpointEvery destages that truncates the destaged
//                 prefix.  Extra steady-state I/O, shortest replay.
//
// The journal tracks *durable platter state* (headers, checkpoints) and
// *RAM state* (destage marks) separately so that crash() can model the
// crash-stop split exactly: platter contents survive, RAM marks do not.
// replay() never mutates durable state — replaying twice returns the same
// records, which is what makes node-level recovery idempotent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "disk/disk_model.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace eevfs::disk {

enum class JournalMode {
  kOff = 0,     // ablation: reproduce the lossy pre-journal behaviour
  kCommit,      // append-before-ack, truncate only on full drain
  kCheckpoint,  // append-before-ack + periodic durable checkpoints
};

std::string to_string(JournalMode m);
/// Parses "off" / "commit" / "checkpoint"; throws std::invalid_argument.
JournalMode parse_journal_mode(std::string_view s);

struct JournalParams {
  JournalMode mode = JournalMode::kCommit;
};

/// One journaled write, as recovered by replay().  `file` is the owning
/// node's file id (trace::FileId upstream); the journal itself is
/// layering-neutral and treats it as an opaque 32-bit key.
struct JournalRecord {
  std::uint64_t lsn = 0;
  std::uint32_t file = 0;
  Bytes bytes = 0;
  std::size_t data_disk = 0;  // destage target (primary stripe disk)
};

class WriteJournal {
 public:
  /// Size of one commit-header append (one log sector group).
  static constexpr Bytes kHeaderBytes = 4096;
  /// Size of one checkpoint record (kCheckpoint only).
  static constexpr Bytes kCheckpointBytes = 4096;
  /// Destages between durable checkpoints (kCheckpoint only).
  static constexpr std::uint64_t kCheckpointEvery = 8;

  /// `log` is the owning node's buffer disk: payloads, headers and
  /// checkpoints are all appended to it.
  WriteJournal(sim::Simulator& sim, JournalParams params, DiskModel& log);
  /// Its disk completions hold its address.
  WriteJournal(const WriteJournal&) = delete;
  WriteJournal& operator=(const WriteJournal&) = delete;

  bool enabled() const { return params_.mode != JournalMode::kOff; }
  const JournalParams& params() const { return params_; }

  /// Appends the commit header for one buffered write (payload already on
  /// the log disk).  `done` fires with the header-append outcome and the
  /// record's LSN; the caller must only ack the write after kOk.  kOff
  /// mode: completes kOk on the next tick with no I/O.  If the node
  /// crashes while the header is in flight, `done` is dropped (the ack
  /// never happened, so nothing was promised).
  void append(std::uint32_t file, Bytes bytes, std::size_t data_disk,
              std::function<void(Tick, IoStatus, std::uint64_t lsn)> done);

  /// Marks one record destaged.  kCommit: RAM-only; the log truncates
  /// durably when every durable record is marked.  kCheckpoint: every
  /// kCheckpointEvery marks a checkpoint record is appended and the
  /// marked records are durably truncated when it lands.  Unknown or
  /// already-truncated LSNs are ignored (replayed destages are idempotent).
  void mark_destaged(std::uint64_t lsn);

  /// Crash-stop: RAM destage marks and in-flight appends are lost;
  /// durable platter state (headers, checkpoints) survives.
  void crash();

  /// Scans the log after a restart: one sequential read covering every
  /// durable header, then `done` with the un-truncated records in LSN
  /// order (empty on scan failure — the records stay durable for a later
  /// attempt).  Never mutates durable state: replaying twice returns the
  /// same records.  kOff mode: completes immediately with no records.
  void replay(std::function<void(Tick, IoStatus,
                                 std::vector<JournalRecord>)> done);

  // --- introspection / counters ----------------------------------------
  /// Durable records not yet durably truncated (what a replay returns).
  std::size_t durable_records() const { return durable_.size(); }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t truncated_records() const { return truncated_records_; }
  Bytes replay_scan_bytes() const { return replay_scan_bytes_; }

 private:
  void maybe_checkpoint();
  /// Durably truncates every marked record (invoked on full drain or when
  /// a checkpoint record lands).
  void truncate_marked();

  sim::Simulator& sim_;
  JournalParams params_;
  DiskModel& log_;

  // Durable platter state: survives crash().
  std::map<std::uint64_t, JournalRecord> durable_;
  std::uint64_t next_lsn_ = 1;

  // RAM state: lost at crash().
  std::set<std::uint64_t> destaged_;
  std::uint64_t marks_since_checkpoint_ = 0;
  bool checkpoint_in_flight_ = false;
  std::uint64_t epoch_ = 0;  // bumped at crash; drops in-flight appends

  std::uint64_t appends_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t truncated_records_ = 0;
  Bytes replay_scan_bytes_ = 0;
};

}  // namespace eevfs::disk
