// Node-local prefetch planning (paper §IV-B + the PRE-BUD energy gate
// from the authors' earlier work [12] that EEVFS builds on).
//
// The server hands each node its slice of the globally most popular
// files, in rank order.  The node walks that list and accepts a candidate
// if it fits the buffer and — when the PRE-BUD gate is enabled — if
// redirecting its accesses to the buffer disk is predicted to save more
// energy than the copy costs.  Benefits are evaluated against the
// *residual* access pattern left by the candidates already accepted, so
// the marginal value of each additional file is priced correctly.
#pragma once

#include <span>
#include <vector>

#include "core/energy_model.hpp"
#include "disk/disk_profile.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

/// One file's application hints (§IV-C): its sorted access offsets,
/// relative to replay start.  A view: StorageServer::distribute_patterns
/// points it into the server's hint arena.
struct FileHints {
  trace::FileId file = 0;
  std::span<const Tick> offsets;
};

struct PrefetchCandidate {
  trace::FileId file = 0;
  Bytes bytes = 0;
  /// Data disks holding the file — one entry for whole-file placement,
  /// `stripe_width` entries when the node stripes (§VII extension).
  std::vector<std::size_t> disks;
};

struct PrefetchPlan {
  std::vector<PrefetchCandidate> accepted;
  std::vector<trace::FileId> rejected_by_gate;
  Bytes total_bytes = 0;
  Joules predicted_benefit = 0.0;
  /// Per-data-disk access times with the accepted files removed — what
  /// the power manager should expect to reach each disk.  StorageNode
  /// keeps them past planning only under kHints/kOracle, whose power
  /// manager takes them at replay start; other policies read just their
  /// sizes and release them at once.
  std::vector<std::vector<Tick>> residual_disk_accesses;
  /// Tier-aware split (RAM tier enabled): the hottest candidates that
  /// fit the RAM pin budget, taken off the top before the buffer-disk
  /// pass.  Serving these touches no spindle at all.
  std::vector<PrefetchCandidate> ram_pinned;
  Bytes ram_pinned_bytes = 0;
};

class Prefetcher {
 public:
  Prefetcher(EnergyPredictionModel data_disk_model,
             disk::DiskProfile buffer_profile, bool prebud_gate);

  /// `candidates` in priority (popularity-rank) order;
  /// `file_accesses` each hinted file's sorted offsets, ascending by file
  /// (a file without an entry has no accesses);
  /// `disk_accesses[d]` sorted offsets of everything on data disk d,
  /// which become the plan's residual timelines in place;
  /// `horizon` the trace duration; `capacity` remaining buffer bytes;
  /// `ram_capacity` the RAM-tier pin budget (0 = two-tier planning).
  /// RAM pins are filled rank-first and their accesses leave the
  /// residual timelines before the buffer tier is priced, so PRE-BUD
  /// sees the post-RAM residual.
  PrefetchPlan plan(std::span<const PrefetchCandidate> candidates,
                    std::span<const FileHints> file_accesses,
                    std::vector<std::vector<Tick>> disk_accesses,
                    Tick horizon, Bytes capacity, Bytes ram_capacity = 0) const;

 private:
  EnergyPredictionModel model_;
  disk::DiskProfile buffer_profile_;
  bool prebud_gate_;
};

}  // namespace eevfs::core
