#include "core/metadata.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace eevfs::core {

ServerMetadata::ServerMetadata(std::vector<NodeId> primaries,
                               std::size_t num_nodes, std::size_t copies,
                               std::span<const Bytes> sizes, std::size_t ec_k)
    : node_of(std::move(primaries)),
      size_(sizes.begin(), sizes.end()),
      copies_(copies),
      ec_k_(ec_k) {
  const std::size_t n_files = node_of.size();
  if (copies < 1 || copies > num_nodes) {
    throw std::invalid_argument("ServerMetadata: need 1 <= copies <= nodes");
  }
  if (ec_k >= copies) {
    throw std::invalid_argument(
        "ServerMetadata: erasure needs ec_k < chunk count");
  }
  if (size_.size() != n_files) {
    throw std::invalid_argument("ServerMetadata: need one size per file");
  }
  if (std::any_of(node_of.begin(), node_of.end(),
                  [num_nodes](NodeId n) { return n >= num_nodes; })) {
    throw std::invalid_argument("ServerMetadata: primary past the node count");
  }
  if (copies > 1) {
    holder_arena_.resize(n_files * copies);
    for (std::size_t f = 0; f < n_files; ++f) {
      for (std::size_t j = 0; j < copies; ++j) {
        holder_arena_[f * copies + j] = (node_of[f] + j) % num_nodes;
      }
    }
  }
}

std::span<const NodeId> ServerMetadata::holders(trace::FileId f) const {
  if (f >= files()) {
    throw std::out_of_range("ServerMetadata: unknown file " +
                            std::to_string(f));
  }
  if (copies_ == 1) return std::span<const NodeId>(node_of).subspan(f, 1);
  return std::span<const NodeId>(holder_arena_).subspan(f * copies_, copies_);
}

std::optional<ServerFileEntry> ServerMetadata::lookup(
    trace::FileId file) const {
  ++lookups_;
  if (file >= files()) {
    ++misses_;
    return std::nullopt;
  }
  return ServerFileEntry{node_of[file], size_[file], holders(file), erasure(),
                         ec_k_};
}

Bytes ServerMetadata::memory_footprint() const {
  return static_cast<Bytes>(
      node_of.size() * sizeof(NodeId) + size_.size() * sizeof(Bytes) +
      holder_arena_.size() * sizeof(NodeId));
}

namespace {

bool by_file(const NodeMetadata::Entry& a, const NodeMetadata::Entry& b) {
  return a.file < b.file;
}

bool same_file(const NodeMetadata::Entry& a, const NodeMetadata::Entry& b) {
  return a.file == b.file;
}

}  // namespace

void NodeMetadata::insert(trace::FileId file, LocalFileMeta meta) {
  // A sorted table answers the duplicate check now; once an id arrives
  // out of order, the next lookup's sort does.
  if (sorted_ && !entries_.empty() && file <= entries_.back().file) {
    if (locate(file) != nullptr) {
      throw std::invalid_argument("NodeMetadata: duplicate file " +
                                  std::to_string(file));
    }
    sorted_ = false;
  }
  meta.file = file;
  entries_.push_back(meta);
}

void NodeMetadata::sort_entries() const {
  if (sorted_) return;
  std::sort(entries_.begin(), entries_.end(), by_file);
  const auto dup =
      std::adjacent_find(entries_.begin(), entries_.end(), same_file);
  if (dup != entries_.end()) {
    throw std::invalid_argument("NodeMetadata: duplicate file " +
                                std::to_string(dup->file));
  }
  sorted_ = true;
}

LocalFileMeta* NodeMetadata::locate(trace::FileId file) const {
  sort_entries();
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), file,
      [](const Entry& e, trace::FileId key) { return e.file < key; });
  return it == entries_.end() || it->file != file ? nullptr : &*it;
}

LocalFileMeta& NodeMetadata::at(trace::FileId file) {
  return const_cast<LocalFileMeta&>(std::as_const(*this).at(file));
}

const LocalFileMeta& NodeMetadata::at(trace::FileId file) const {
  ++lookups_;
  const LocalFileMeta* meta = locate(file);
  if (meta == nullptr) {
    throw std::out_of_range("NodeMetadata: unknown file " +
                            std::to_string(file));
  }
  return *meta;
}

const LocalFileMeta* NodeMetadata::find(trace::FileId file) const {
  ++lookups_;
  return locate(file);
}

LocalFileMeta* NodeMetadata::find(trace::FileId file) {
  ++lookups_;
  return locate(file);
}

Bytes NodeMetadata::memory_footprint() const {
  return static_cast<Bytes>(entries_.size() * sizeof(Entry));
}

}  // namespace eevfs::core
