// Reads one counter from the registry a test's components count into.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/counters.hpp"

namespace eevfs {

/// The value of counter `name`; fails the test (and returns 0) when no
/// component registered it.
inline std::uint64_t count(const obs::Registry& registry,
                           const std::string& name) {
  const obs::Counter* c = registry.find_counter(name);
  EXPECT_NE(c, nullptr) << "no counter named " << name;
  return c == nullptr ? 0 : c->value();
}

}  // namespace eevfs
