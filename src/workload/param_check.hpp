// The range check the workload generators apply to each floating-point
// parameter, so a NaN or an infinity is refused by name up front instead
// of hanging a sampler or surfacing as an unsorted trace later.
#pragma once

#include <cmath>
#include <stdexcept>

#include "util/string_util.hpp"

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

}  // namespace eevfs::workload
