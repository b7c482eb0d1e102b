// The write-ahead journal for the buffer-disk write buffer, bottom-up:
// WriteJournal durability mechanics (append-before-ack, RAM vs platter
// state across crash(), checkpoint truncation, repeatable replay), then
// the StorageNode crash/replay integration (the ISSUE's acceptance
// criteria: acked writes survive a crash-stop whenever the journal is
// on; journal=off reproduces — and counts — the loss; replaying twice
// leaves bit-identical state).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/storage_node.hpp"
#include "disk/disk_model.hpp"
#include "disk/write_journal.hpp"

#include "hint_views.hpp"
#include "registry_count.hpp"

namespace eevfs {
namespace {

using disk::IoStatus;
using disk::JournalMode;
using disk::JournalRecord;

TEST(JournalMode, ParseRoundTrips) {
  for (const JournalMode m : {JournalMode::kOff, JournalMode::kCommit,
                              JournalMode::kCheckpoint}) {
    EXPECT_EQ(disk::parse_journal_mode(disk::to_string(m)), m);
  }
  EXPECT_THROW(disk::parse_journal_mode("wal"), std::invalid_argument);
}

// --- WriteJournal mechanics -------------------------------------------

class WriteJournalTest : public ::testing::Test {
 protected:
  disk::JournalParams params(JournalMode mode) {
    disk::JournalParams p;
    p.mode = mode;
    return p;
  }

  std::unique_ptr<disk::WriteJournal> make(disk::JournalParams p) {
    return std::make_unique<disk::WriteJournal>(
        sim, p, std::vector<disk::DiskModel*>{&log_disk});
  }

  /// Appends one record and runs the sim; returns the LSN `done` saw.
  std::uint64_t append(disk::WriteJournal& j, std::uint32_t file = 0) {
    std::uint64_t lsn = ~0ull;
    j.append(file, kMB, /*buffer_disk=*/0, /*data_disk=*/0,
             [&](Tick, IoStatus st, std::uint64_t l) {
               EXPECT_EQ(st, IoStatus::kOk);
               lsn = l;
             });
    sim.run();
    return lsn;
  }

  std::vector<JournalRecord> replay(disk::WriteJournal& j) {
    std::vector<JournalRecord> out;
    j.replay([&](Tick, IoStatus st, std::vector<JournalRecord> recs) {
      EXPECT_EQ(st, IoStatus::kOk);
      out = std::move(recs);
    });
    sim.run();
    return out;
  }

  sim::Simulator sim;
  disk::DiskProfile profile = disk::DiskProfile::ata133_fast();
  disk::DiskModel log_disk{sim, profile, "log"};
};

TEST_F(WriteJournalTest, OffModeAcksWithoutTouchingTheDisk) {
  auto j = make(params(JournalMode::kOff));
  EXPECT_FALSE(j->enabled());
  EXPECT_EQ(append(*j), 0u);  // LSN 0 = unjournaled
  EXPECT_EQ(log_disk.requests_completed(), 0u);
  EXPECT_EQ(j->appends(), 0u);
  EXPECT_TRUE(replay(*j).empty());
}

TEST_F(WriteJournalTest, CommitAppendsHeaderBeforeAck) {
  auto j = make(params(JournalMode::kCommit));
  EXPECT_EQ(append(*j, 7), 1u);
  EXPECT_EQ(append(*j, 8), 2u);
  EXPECT_EQ(j->appends(), 2u);
  EXPECT_EQ(j->durable_records(), 2u);
  // Each record cost exactly one header-sized log write.
  EXPECT_EQ(log_disk.requests_completed(), 2u);
  EXPECT_EQ(log_disk.bytes_transferred(),
            2 * disk::WriteJournal::kHeaderBytes);
}

TEST_F(WriteJournalTest, FullDrainTruncatesForFree) {
  auto j = make(params(JournalMode::kCommit));
  const std::uint64_t a = append(*j), b = append(*j);
  j->mark_destaged(a);
  EXPECT_EQ(j->durable_records(), 2u);  // partial drain: marks are RAM
  j->mark_destaged(b);
  EXPECT_EQ(j->durable_records(), 0u);  // full drain: durable truncate
  EXPECT_EQ(j->truncated_records(), 2u);
  // Truncation piggybacks on the superblock — no extra disk I/O.
  EXPECT_EQ(log_disk.requests_completed(), 2u);
  // Marking an already-truncated LSN is a no-op (idempotent destages).
  j->mark_destaged(a);
  EXPECT_EQ(j->truncated_records(), 2u);
}

TEST_F(WriteJournalTest, CrashLosesRamMarksButNotDurableRecords) {
  auto j = make(params(JournalMode::kCommit));
  const std::uint64_t a = append(*j);
  append(*j);
  append(*j);
  j->mark_destaged(a);  // RAM-only in commit mode
  j->crash();
  // The destage mark died with the process: replay must return all
  // three records — re-destaging record `a` is idempotent upstream.
  const auto recs = replay(*j);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].lsn, 1u);
  EXPECT_EQ(recs[2].lsn, 3u);
}

TEST_F(WriteJournalTest, CheckpointDurablyTruncatesTheDestagedPrefix) {
  constexpr std::uint64_t kEvery = disk::WriteJournal::kCheckpointEvery;
  auto j = make(params(JournalMode::kCheckpoint));
  std::vector<std::uint64_t> lsns;
  for (std::uint64_t i = 0; i <= kEvery; ++i) lsns.push_back(append(*j));
  // The kEvery-th mark triggers the checkpoint record.
  for (std::uint64_t i = 0; i < kEvery; ++i) j->mark_destaged(lsns[i]);
  sim.run();
  EXPECT_EQ(j->checkpoints(), 1u);
  EXPECT_EQ(j->truncated_records(), kEvery);
  EXPECT_EQ(j->durable_records(), 1u);
  // The checkpoint record is real I/O: kEvery + 1 headers + 1 checkpoint.
  EXPECT_EQ(log_disk.requests_completed(), kEvery + 2);
  // And it survives a crash: replay sees only the un-truncated tail.
  j->crash();
  EXPECT_EQ(replay(*j).size(), 1u);
}

TEST_F(WriteJournalTest, ReplayIsRepeatable) {
  auto j = make(params(JournalMode::kCommit));
  append(*j);
  append(*j);
  j->crash();
  const auto first = replay(*j);
  const auto second = replay(*j);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].lsn, second[i].lsn);
    EXPECT_EQ(first[i].file, second[i].file);
    EXPECT_EQ(first[i].bytes, second[i].bytes);
  }
  // Each replay paid one sequential scan over the durable headers.
  EXPECT_EQ(j->replay_scan_bytes(),
            2 * 2 * disk::WriteJournal::kHeaderBytes);
}

TEST_F(WriteJournalTest, CrashDropsInFlightAppends) {
  auto j = make(params(JournalMode::kCommit));
  bool fired = false;
  j->append(0, kMB, 0, 0,
            [&](Tick, IoStatus, std::uint64_t) { fired = true; });
  j->crash();  // header still in flight: the ack never happened
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(j->appends(), 0u);
  EXPECT_EQ(j->durable_records(), 0u);
}

TEST_F(WriteJournalTest, DeadLogDiskFailsAppendsAndReplaysTyped) {
  auto j = make(params(JournalMode::kCommit));
  append(*j);
  log_disk.fail();
  IoStatus append_st = IoStatus::kOk;
  j->append(0, kMB, 0, 0,
            [&](Tick, IoStatus st, std::uint64_t lsn) {
              append_st = st;
              EXPECT_EQ(lsn, 0u);
            });
  sim.run();
  EXPECT_EQ(append_st, IoStatus::kUnavailable);
  // An unreadable scan returns no records but leaves them durable for a
  // later attempt.
  IoStatus replay_st = IoStatus::kOk;
  j->replay([&](Tick, IoStatus st, std::vector<JournalRecord> recs) {
    replay_st = st;
    EXPECT_TRUE(recs.empty());
  });
  sim.run();
  EXPECT_EQ(replay_st, IoStatus::kUnavailable);
  EXPECT_EQ(j->durable_records(), 1u);
}

// --- StorageNode crash/replay integration ------------------------------

class NodeJournalTest : public ::testing::Test {
 protected:
  NodeJournalTest() : net(sim) {
    node_ep = net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000));
    client_ep = net.add_endpoint("client", net::mbps_to_bytes_per_sec(1000));
  }

  core::NodeParams params(JournalMode mode) {
    core::NodeParams p;
    p.id = 0;
    p.data_disks = 2;
    p.buffer_disks = 1;
    p.disk_profile = disk::DiskProfile::ata133_fast();
    p.power.policy = core::PowerPolicy::kPredictive;
    p.journal.mode = mode;
    return p;
  }

  std::unique_ptr<core::StorageNode> make_node(core::NodeParams p) {
    auto node =
        std::make_unique<core::StorageNode>(sim, net, node_ep, p, registry);
    const Tick horizon = seconds_to_ticks(600);
    core::HintOffsets pattern;
    for (trace::FileId f = 0; f < 4; ++f) {
      node->create_file(f, 10 * kMB);
      pattern[f].push_back(horizon - seconds_to_ticks(1));
    }
    node->receive_access_pattern(core::hint_views(pattern), horizon);
    node->start_prefetch({}, [] {});
    sim.run();
    return node;
  }

  /// Puts every data disk into standby so buffered writes park (the
  /// destage queue is what the crash destroys or the journal saves).
  void sleep_data_disks(core::StorageNode& node) {
    for (std::size_t d = 0; d < node.num_data_disks(); ++d) {
      node.mutable_data_disk(d).request_spin_down();
    }
    sim.run();
    ASSERT_EQ(node.data_disk(0).state(), disk::PowerState::kStandby);
  }

  /// One acked buffered write of `f`, parked behind sleeping disks.
  void park_write(core::StorageNode& node, trace::FileId f) {
    core::RequestStatus st = core::RequestStatus::kNoReplica;
    node.serve_write(f, 10 * kMB, client_ep,
                     [&](Tick, core::RequestStatus s) { st = s; });
    sim.run();
    ASSERT_EQ(st, core::RequestStatus::kOk);  // acked to the client
    ASSERT_TRUE(node.has_pending_writes());
  }

  std::size_t replay(core::StorageNode& node) {
    std::size_t replayed = ~std::size_t{0};
    node.replay_journal([&](std::size_t n) { replayed = n; });
    sim.run();
    return replayed;
  }

  sim::Simulator sim;
  net::NetworkFabric net;
  obs::Registry registry;
  net::EndpointId node_ep{}, client_ep{};
};

TEST_F(NodeJournalTest, JournalOffCrashLosesAckedWrites) {
  auto node = make_node(params(JournalMode::kOff));
  sleep_data_disks(*node);
  park_write(*node, 0);
  EXPECT_EQ(node->undestaged_acked(), 1u);
  node->crash();
  // The ack was a lie: the write is gone, and the split accounting says
  // *lost* (healthy disks, destroyed bookkeeping), not *stranded*.
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 1u);
  EXPECT_EQ(count(registry, "buffer.writes_stranded.count"), 0u);
  EXPECT_EQ(node->undestaged_acked(), 0u);
  EXPECT_FALSE(node->has_pending_writes());
  node->restart();
  EXPECT_EQ(replay(*node), 0u);  // nothing journaled, nothing back
  EXPECT_EQ(node->data_disk(0).requests_completed(), 0u);
}

TEST_F(NodeJournalTest, JournalReplayRecoversAckedWrites) {
  auto node = make_node(params(JournalMode::kCommit));
  sleep_data_disks(*node);
  park_write(*node, 0);
  node->crash();
  // The journal holds the IOU.
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 0u);
  ASSERT_NE(node->journal(), nullptr);
  EXPECT_EQ(node->journal()->durable_records(), 1u);
  node->restart();
  EXPECT_EQ(replay(*node), 1u);
  EXPECT_TRUE(node->has_pending_writes());
  bool flushed = false;
  node->flush_pending_writes([&] { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
  // The destage landed on the platters and retired the journal record.
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->journal()->durable_records(), 0u);
  EXPECT_EQ(node->undestaged_acked(), 0u);
}

TEST_F(NodeJournalTest, ReplayingTwiceIsIdempotent) {
  auto node = make_node(params(JournalMode::kCommit));
  sleep_data_disks(*node);
  park_write(*node, 0);
  park_write(*node, 1);
  node->crash();
  node->restart();
  EXPECT_EQ(replay(*node), 2u);
  // A crash *during* recovery replays again; live LSNs filter every
  // record, so the second pass re-queues nothing and state is
  // bit-identical: same at-risk count, same queue, one destage each.
  EXPECT_EQ(replay(*node), 0u);
  EXPECT_EQ(node->undestaged_acked(), 2u);
  bool flushed = false;
  node->flush_pending_writes([&] { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->data_disk(1).requests_completed(), 1u);
  EXPECT_EQ(node->journal()->durable_records(), 0u);
}

TEST_F(NodeJournalTest, CrashDuringPowerTransitionDropsTheRacingDestage) {
  auto node = make_node(params(JournalMode::kCommit));
  sleep_data_disks(*node);
  park_write(*node, 0);
  // Start the drain: disk 0 begins its spin-up ramp with the destage IO
  // queued behind it — then the crash lands mid-transition.  The epoch
  // guard must drop the racing completion (no retire, no double ack),
  // the flush waiter must still fire (a crash cannot wedge a drain),
  // and the journal must still hold the record for replay.
  bool drained = false;
  node->flush_pending_writes([&] { drained = true; });
  (void)sim.schedule_after(milliseconds_to_ticks(1.0), [&] { node->crash(); });
  sim.run();
  EXPECT_TRUE(drained);
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 0u);
  EXPECT_EQ(node->undestaged_acked(), 0u);
  ASSERT_NE(node->journal(), nullptr);
  EXPECT_EQ(node->journal()->durable_records(), 1u);  // retire never ran
  node->restart();
  EXPECT_EQ(replay(*node), 1u);
  bool flushed = false;
  node->flush_pending_writes([&] { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(node->journal()->durable_records(), 0u);
  EXPECT_FALSE(node->has_pending_writes());
  // At-least-once, not at-most-once: the platter may have seen the
  // dropped pre-crash destage too, but bookkeeping counts exactly one.
  EXPECT_GE(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->undestaged_acked(), 0u);
}

// --- RAM write-back tier vs the journal --------------------------------
//
// The RAM tier acks writes before anything reaches the buffer-disk log,
// so the journal's durability guarantee starts only at flush time.  The
// two tests pin both sides of that boundary.

TEST_F(NodeJournalTest, RamStagedWriteDiesWithTheProcessRegardlessOfJournal) {
  core::NodeParams p = params(JournalMode::kCommit);
  p.ram_cache_bytes = 64 * kMB;
  auto node = make_node(p);
  core::RequestStatus st = core::RequestStatus::kNoReplica;
  node->serve_write(0, 10 * kMB, client_ep,
                    [&](Tick, core::RequestStatus s) { st = s; });
  // Crash after the RAM-speed ack but before the 1 s flush interval: the
  // staged bytes never reached the buffer-disk log, so journal=commit
  // cannot save them — the loss is charged to lost_acked_writes.
  (void)sim.schedule_after(milliseconds_to_ticks(100.0),
                           [&] { node->crash(); });
  sim.run();
  EXPECT_EQ(st, core::RequestStatus::kOk);  // the ack was a lie
  EXPECT_EQ(count(registry, "ramcache.writes_absorbed.count"), 1u);
  EXPECT_EQ(count(registry, "ramcache.lost_writes.count"), 1u);
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 1u);
  EXPECT_EQ(count(registry, "ramcache.writebacks.count"), 0u);
  EXPECT_FALSE(node->has_pending_writes());
  node->restart();
  EXPECT_EQ(replay(*node), 0u);  // the journal never heard of the write
}

TEST_F(NodeJournalTest, RamFlushedWriteIsRecoveredByTheJournal) {
  core::NodeParams p = params(JournalMode::kCommit);
  p.ram_cache_bytes = 64 * kMB;
  auto node = make_node(p);
  sleep_data_disks(*node);
  core::RequestStatus st = core::RequestStatus::kNoReplica;
  node->serve_write(0, 10 * kMB, client_ep,
                    [&](Tick, core::RequestStatus s) { st = s; });
  // Run the flush interval out: the staged write lands on the buffer
  // disk with a commit header and parks behind the sleeping data disk.
  sim.run();
  ASSERT_EQ(st, core::RequestStatus::kOk);
  EXPECT_EQ(count(registry, "ramcache.writebacks.count"), 1u);
  EXPECT_EQ(node->undestaged_acked(), 1u);
  node->crash();
  // Past the durability window: the flushed write is journal-covered.
  EXPECT_EQ(count(registry, "ramcache.lost_writes.count"), 0u);
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 0u);
  ASSERT_NE(node->journal(), nullptr);
  EXPECT_EQ(node->journal()->durable_records(), 1u);
  node->restart();
  EXPECT_EQ(replay(*node), 1u);
  bool flushed = false;
  node->flush_pending_writes([&] { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->journal()->durable_records(), 0u);
}

}  // namespace
}  // namespace eevfs
