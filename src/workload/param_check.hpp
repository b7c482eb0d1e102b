// The range check the workload generators apply to each floating-point
// parameter, so a NaN, an infinity or a value too large for the integer
// it becomes is refused by name up front instead of hanging a sampler,
// being cast out of range or surfacing as an unsorted trace later.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/units.hpp"

namespace eevfs::workload {

/// Throws std::invalid_argument naming generator `who`'s `field` unless
/// `value` is finite and `in_range` (the caller's test of it, which a NaN
/// fails) holds; `range` says in words what that test asks.
inline void require_param(const char* who, const char* field, double value,
                          bool in_range, const char* range) {
  if (!std::isfinite(value) || !in_range) {
    throw std::invalid_argument(format("%s: %s must be finite and %s (got %g)",
                                       who, field, range, value));
  }
}

/// The most bytes a workload's requests may move in all.  A run's byte
/// counters keep Bytes room for the copies it adds (prefetch, parity,
/// destage), and Tick keeps room for the transfer times: 2^62 bytes take
/// under 2^59 ticks even over a type-2 node's 100 Mb/s NIC at 70%.
inline constexpr double kMaxTotalBytes = 0x1p62;

/// require_param for a file size in decimal MB: `count` requests of that
/// size must move at most kMaxTotalBytes.
inline void require_size_mb(const char* who, const char* field, double mb,
                            std::size_t count) {
  const double total =
      mb * static_cast<double>(kMB) * static_cast<double>(count);
  require_param(who, field, mb, mb > 0.0 && total <= kMaxTotalBytes,
                "positive, its bytes times num_requests at most 2^62");
}

/// require_param for inter_arrival_ms: `count` of the longest gaps must
/// sum to under 2^62 ticks, which leaves Tick room for each gap's
/// rounding.  A gap is at most `ms` but for its `jitter` share, an
/// exponential draw of at most Rng::kExponentialMaxFactor times its mean.
inline void require_gap_ms(const char* who, double ms, double jitter,
                           std::size_t count) {
  const double longest_ms =
      ms * (1.0 + jitter * (Rng::kExponentialMaxFactor - 1.0));
  const double total = longest_ms * static_cast<double>(kTicksPerMillisecond) *
                       static_cast<double>(count);
  require_param(who, "inter_arrival_ms", ms, ms >= 0.0 && total < 0x1p62,
                "non-negative, its longest gap times num_requests under "
                "2^62 ticks");
}

}  // namespace eevfs::workload
