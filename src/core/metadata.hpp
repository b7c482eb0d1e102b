// Distributed metadata management (paper §IV-D).
//
// The burden is split exactly as the paper describes: the storage server
// keeps only coarse metadata — which *node* owns a file, and its size —
// while each storage node keeps the local metadata that locates the file
// on its own disks (its stripe set; the node's buffer index records the
// buffered copies).  The server is never aware of individual disks.
//
// Both tables are dense and own no per-file heap block, so each costs
// O(files) of small fixed-size entries — the paper's scalability argument
// against per-block maps (PDC, §II-A):
//   - ServerMetadata is indexed by FileId: a primary-node column, a size
//     column, and every file's holders in one flat arena whose stride is
//     the copies-per-file count (the replication degree, or ec_n).  It
//     keeps no per-node file lists: the server creates each node's files
//     in one pass over placement's creation order.  place_files builds
//     it, and it never changes afterwards.
//   - NodeMetadata is one flat array of 16-byte LocalFileMeta entries
//     (file id, first stripe disk, size) sorted by FileId.  The stripe
//     width is the node's, the same for every file.
//
// The server's table also models its probe cost (lookup_cost), which
// routing pays on every request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

/// Server-side view of one file: everything the front end is allowed to
/// know.  A view, not a copy: `holders` points into the ServerMetadata it
/// came from.
struct ServerFileEntry {
  NodeId node = 0;  // primary replica (holders[0])
  Bytes size = 0;   // full logical file size (not a chunk size)
  /// All nodes holding a copy, primary first.  Size 1 without
  /// replication — the k-replica extension adds k-1 more.  Under erasure
  /// coding this is the chunk-holder sequence: entry j holds chunk j
  /// (j < ec_k data, j >= ec_k parity).
  std::span<const NodeId> holders;
  /// Erasure-coded file: holders are chunk holders and each node stores
  /// a ceil(size / ec_k)-byte chunk image; any ec_k chunks reconstruct.
  bool erasure = false;
  std::size_t ec_k = 0;
};
static_assert(std::is_trivially_copyable_v<ServerFileEntry>);

/// The server's file table, indexed by FileId.  Copy j of file f lives on
/// node (node_of[f] + j) mod the node count, j < copies(): distinct
/// consecutive nodes past the primary.  Built once by place_files (which
/// names it PlacementMap) and immutable afterwards, so the views lookup()
/// and holders() return stay valid for as long as the table lives.
class ServerMetadata {
 public:
  ServerMetadata() = default;
  /// Lays out `primaries.size()` files over `num_nodes` nodes with
  /// `copies` copies each (1 <= copies <= num_nodes).  `sizes` holds one
  /// logical size per file.  `ec_k > 0` marks every file (copies, ec_k)
  /// erasure-coded (requires ec_k < copies).
  ServerMetadata(std::vector<NodeId> primaries, std::size_t num_nodes,
                 std::size_t copies, std::span<const Bytes> sizes,
                 std::size_t ec_k = 0);

  /// Primary owning node per file, indexed by FileId (holders()[0]).
  /// Read-only: the constructor lays every other column out from it.
  std::vector<NodeId> node_of;

  std::size_t files() const { return node_of.size(); }
  NodeId node(trace::FileId f) const { return node_of.at(f); }
  /// Copies per file: the holder-arena stride.
  std::size_t copies() const { return copies_; }
  /// Every node holding a copy of `f`, primary first; throws
  /// std::out_of_range for unknown files.
  std::span<const NodeId> holders(trace::FileId f) const;

  /// Erasure mode: holders are ec_n = copies() chunk nodes per file and
  /// each stores a chunk_bytes()-sized image instead of the whole file.
  bool erasure() const { return ec_k_ > 0; }
  std::size_t ec_k() const { return ec_k_; }

  /// Looks a file up.  nullopt for unknown files.
  std::optional<ServerFileEntry> lookup(trace::FileId file) const;

  /// Resident bytes of the columns: the paper's scalability argument is
  /// that the server holds O(files) tiny entries, not block maps
  /// (contrast PDC, §II-A: "requires the overhead of managing metadata
  /// for all of the blocks in the disk system").
  Bytes memory_footprint() const;

  /// Modeled CPU time per lookup (hash probe + request parsing on the
  /// 2 GHz P4 server).
  static Tick lookup_cost() { return milliseconds_to_ticks(0.05); }

  /// Size of one erasure chunk of a `size`-byte file (k data chunks
  /// cover the file; parity chunks are the same size).
  static Bytes chunk_bytes(Bytes size, std::size_t k) {
    return k == 0 ? size : (size + k - 1) / k;
  }

 private:
  std::vector<Bytes> size_;
  /// files() x copies_ holders, file-major.  Empty with one copy per
  /// file: node_of is then the whole holder store.
  std::vector<NodeId> holder_arena_;
  std::size_t copies_ = 1;
  std::size_t ec_k_ = 0;
};

/// Node-side entry: local placement of one file, 16 bytes.  Trivially
/// copyable, so the node table is one flat array with no per-file heap
/// block.  The first stripe disk is a 16-bit index (StorageNode refuses
/// more data disks than NodeMetadata::kMaxDisks), and the stripe width is
/// the node's, the same for every file, so the file id, that index and
/// the size are the whole entry.
struct LocalFileMeta {
  /// Set by NodeMetadata::insert.
  trace::FileId file = 0;
  /// Stripe set: the node's stripe width in data disks from `first_disk`
  /// on, wrapping around the node's data disks.
  std::uint16_t first_disk = 0;
  Bytes size = 0;

  /// Stripe member j on a node with `data_disks` data disks.
  std::size_t disk(std::size_t j, std::size_t data_disks) const {
    return (first_disk + j) % data_disks;
  }
};
static_assert(std::is_trivially_copyable_v<LocalFileMeta>);

/// The node's file table: one flat array sorted by FileId, so a lookup is
/// a binary search.  insert appends; the first lookup after an
/// out-of-order insert sorts the whole array, so building n entries costs
/// one O(n log n) sort rather than a sorted insert per file.
class NodeMetadata {
 public:
  /// The most data disks a node may have: entries store the first stripe
  /// disk in 16 bits.
  static constexpr std::size_t kMaxDisks =
      std::numeric_limits<std::uint16_t>::max();

  using Entry = LocalFileMeta;

  /// Registers `file`, storing its id in the entry.  Registering an id
  /// twice is an error, reported as std::invalid_argument: by insert
  /// while the table is sorted, otherwise by every lookup (the sort
  /// finds it).
  void insert(trace::FileId file, LocalFileMeta meta);
  void reserve(std::size_t files) { entries_.reserve(files); }

  /// Throws std::out_of_range for unknown files (a routing bug, not a
  /// client error).  Entries never change after insert.
  const LocalFileMeta& at(trace::FileId file) const;

  bool contains(trace::FileId file) const { return find(file) != nullptr; }
  /// The entry of `file`, or null.
  const LocalFileMeta* find(trace::FileId file) const;

  std::size_t files() const { return entries_.size(); }
  /// Resident bytes of the table.
  Bytes memory_footprint() const;

  /// Iteration in FileId order.
  std::vector<Entry>::const_iterator begin() const {
    sort_entries();
    return entries_.begin();
  }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  /// Sorts the table by FileId if an insert left it unsorted.
  void sort_entries() const;

  /// Sorting reorders entries without changing the table's contents, so
  /// the const lookups may do it.
  mutable std::vector<Entry> entries_;
  mutable bool sorted_ = true;
};
// 16 bytes per file: the node tables of a 1024-node cell hold one entry
// per placed file.
static_assert(sizeof(NodeMetadata::Entry) == 16);

}  // namespace eevfs::core
