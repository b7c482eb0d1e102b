// One file-access record.  EEVFS replays traces of these (paper §IV-A:
// "uses a trace to replay file access patterns").
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/units.hpp"

namespace eevfs::trace {

using FileId = std::uint32_t;
using ClientId = std::uint16_t;

inline constexpr FileId kInvalidFile = static_cast<FileId>(-1);
/// The most clients a cluster or a generated trace may have: the client
/// count and every client id fit ClientId.  ClusterConfig::validate and
/// the workload generators refuse more; the trace readers refuse an id
/// that does not fit ClientId.
inline constexpr std::size_t kMaxClients =
    std::numeric_limits<ClientId>::max();

enum class Op : std::uint8_t { kRead = 0, kWrite = 1 };

/// 24 bytes: the wide fields first, so the record has no padding but its
/// last byte.
struct TraceRecord {
  Tick arrival = 0;       // offset from trace start
  Bytes bytes = 0;        // full-file transfer size
  FileId file = 0;
  ClientId client = 0;
  Op op = Op::kRead;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};
static_assert(sizeof(TraceRecord) == 24);

}  // namespace eevfs::trace
