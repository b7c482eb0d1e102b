#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace eevfs::workload {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expects `make` to throw std::invalid_argument whose message names
/// `field`.
template <typename Make>
void expect_refused(Make make, const std::string& field, double value) {
  try {
    (void)make();
    ADD_FAILURE() << field << " = " << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << field << " = " << value << ": " << e.what();
  }
}

TEST(Synthetic, DeterministicForSameSeed) {
  SyntheticConfig cfg;
  cfg.num_requests = 200;
  const Workload a = generate_synthetic(cfg);
  const Workload b = generate_synthetic(cfg);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i], b.requests[i]);
  }
  cfg.seed = 99;
  const Workload c = generate_synthetic(cfg);
  bool all_equal = true;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    if (!(a.requests[i] == c.requests[i])) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Synthetic, FixedSizesMatchMean) {
  SyntheticConfig cfg;
  cfg.mean_data_size_mb = 25.0;
  cfg.num_requests = 10;
  const Workload w = generate_synthetic(cfg);
  ASSERT_EQ(w.file_sizes.size(), cfg.num_files);
  for (const Bytes s : w.file_sizes) EXPECT_EQ(s, 25 * kMB);
  for (const auto& r : w.requests.records()) EXPECT_EQ(r.bytes, 25 * kMB);
}

TEST(Synthetic, LognormalSizesAverageToMean) {
  SyntheticConfig cfg;
  cfg.size_sigma = 0.8;
  cfg.mean_data_size_mb = 10.0;
  cfg.num_files = 20000;
  const Workload w = generate_synthetic(cfg);
  double sum = 0.0;
  for (const Bytes s : w.file_sizes) sum += static_cast<double>(s);
  EXPECT_NEAR(sum / static_cast<double>(cfg.num_files), 10e6, 0.5e6);
}

TEST(Synthetic, FixedInterArrivalSpacing) {
  SyntheticConfig cfg;
  cfg.inter_arrival_ms = 350.0;
  cfg.num_requests = 50;
  const Workload w = generate_synthetic(cfg);
  for (std::size_t i = 1; i < w.requests.size(); ++i) {
    EXPECT_EQ(w.requests[i].arrival - w.requests[i - 1].arrival,
              milliseconds_to_ticks(350.0));
  }
}

TEST(Synthetic, ZeroInterArrivalIsBurst) {
  SyntheticConfig cfg;
  cfg.inter_arrival_ms = 0.0;
  cfg.num_requests = 20;
  const Workload w = generate_synthetic(cfg);
  EXPECT_EQ(w.requests.duration(), 0);
}

TEST(Synthetic, JitteredArrivalsKeepMeanRate) {
  SyntheticConfig cfg;
  cfg.inter_arrival_ms = 100.0;
  cfg.inter_arrival_jitter = 1.0;  // fully exponential
  cfg.num_requests = 20000;
  const Workload w = generate_synthetic(cfg);
  const double mean_gap_ms =
      ticks_to_milliseconds(w.requests.duration()) /
      static_cast<double>(cfg.num_requests - 1);
  EXPECT_NEAR(mean_gap_ms, 100.0, 3.0);
}

// The paper's popularity semantics: working-set width grows with MU.
class MuWorkingSetTest : public ::testing::TestWithParam<double> {};

TEST_P(MuWorkingSetTest, WorkingSetScalesWithSqrtMu) {
  SyntheticConfig cfg;
  cfg.mu = GetParam();
  cfg.num_requests = 2000;
  const Workload w = generate_synthetic(cfg);
  const auto unique = w.requests.unique_files();
  // sigma = sqrt(mu); the touched set spans roughly +-3 sigma.
  if (cfg.mu <= 1.0) {
    EXPECT_LE(unique, 8u);
  } else if (cfg.mu <= 10.0) {
    EXPECT_LE(unique, 30u);
    EXPECT_GE(unique, 5u);
  } else if (cfg.mu <= 100.0) {
    EXPECT_LE(unique, 90u);
    EXPECT_GE(unique, 30u);
  } else {
    EXPECT_GE(unique, 100u);
    EXPECT_LE(unique, 300u);
  }
}

INSTANTIATE_TEST_SUITE_P(TableTwo, MuWorkingSetTest,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0));

TEST(Synthetic, Mu100IsFullyCoveredBySeventyFiles) {
  // Reproduces the paper's §VI-A observation: with K=70 prefetched files
  // the whole working set is covered for MU <= 100 but not for MU = 1000.
  SyntheticConfig cfg;
  cfg.num_requests = 1000;
  cfg.mu = 100.0;
  {
    const Workload w = generate_synthetic(cfg);
    const trace::PopularityAnalyzer a(w.requests);
    EXPECT_DOUBLE_EQ(a.coverage(70), 1.0);
  }
  cfg.mu = 1000.0;
  {
    const Workload w = generate_synthetic(cfg);
    const trace::PopularityAnalyzer a(w.requests);
    EXPECT_LT(a.coverage(70), 0.95);
    EXPECT_GT(a.coverage(70), 0.5);
  }
}

TEST(Synthetic, RejectsInvalidConfigs) {
  SyntheticConfig cfg;
  cfg.num_files = 0;
  EXPECT_THROW(generate_synthetic(cfg), std::invalid_argument);
  cfg = {};
  cfg.num_requests = 0;
  EXPECT_THROW(generate_synthetic(cfg), std::invalid_argument);
  cfg = {};
  cfg.mean_data_size_mb = -1;
  EXPECT_THROW(generate_synthetic(cfg), std::invalid_argument);
  cfg = {};
  cfg.mu = 0.0;
  EXPECT_THROW(generate_synthetic(cfg), std::invalid_argument);
  cfg = {};
  cfg.inter_arrival_ms = -5;
  EXPECT_THROW(generate_synthetic(cfg), std::invalid_argument);
}

// A NaN passes a `<= 0` test and an infinity passes a lower bound, so
// each would reach the samplers: a NaN MU loops in the Poisson sampler, a
// NaN delay breaks the arrival order.  Only make_synthetic_stream is
// called, and no stream is drained.
TEST(Synthetic, RejectsNonFiniteParameters) {
  const auto refused = [](const char* field, double SyntheticConfig::*member,
                          double value) {
    SyntheticConfig cfg;
    cfg.*member = value;
    expect_refused([&] { return make_synthetic_stream(cfg); }, field, value);
  };
  for (const double v : {kNan, kInf, -kInf}) {
    refused("mean_data_size_mb", &SyntheticConfig::mean_data_size_mb, v);
    refused("size_sigma", &SyntheticConfig::size_sigma, v);
    refused("mu", &SyntheticConfig::mu, v);
    refused("inter_arrival_ms", &SyntheticConfig::inter_arrival_ms, v);
    refused("inter_arrival_jitter", &SyntheticConfig::inter_arrival_jitter,
            v);
  }
  // Jitter above 1 makes the fixed part of a gap negative.
  refused("inter_arrival_jitter", &SyntheticConfig::inter_arrival_jitter,
          1.5);
}

// A finite value can still be too large for the integer it becomes: a
// mean size past 2^64 bytes was cast out of range, and a gap whose ticks
// over num_requests passed 2^63 overflowed the arrival clock (the CLI
// died on "arrivals must be sorted").  The bound is 2^62 ticks, leaving
// room for rounding; a jittered gap can draw up to
// Rng::kExponentialMaxFactor times its mean, so jitter lowers it.
TEST(Synthetic, RejectsOverflowingParameters) {
  const auto make = [](double size_mb, double ia_ms, double jitter) {
    SyntheticConfig cfg;
    cfg.num_requests = 1000;
    cfg.mean_data_size_mb = size_mb;
    cfg.inter_arrival_ms = ia_ms;
    cfg.inter_arrival_jitter = jitter;
    return [cfg] { return make_synthetic_stream(cfg); };
  };
  // 1,000 requests of 4.7e15 bytes move more than 2^62; of 4.6e15, less.
  expect_refused(make(1e30, 700.0, 0.0), "mean_data_size_mb", 1e30);
  expect_refused(make(4.7e9, 700.0, 0.0), "mean_data_size_mb", 4.7e9);
  EXPECT_NO_THROW(make(4.6e9, 700.0, 0.0)());
  // 1,000 gaps of 4.7e15 ticks pass 2^62; of 4.6e15, they do not.
  expect_refused(make(10.0, 1e30, 0.0), "inter_arrival_ms", 1e30);
  expect_refused(make(10.0, 4.7e12, 0.0), "inter_arrival_ms", 4.7e12);
  EXPECT_NO_THROW(make(10.0, 4.6e12, 0.0)());
  expect_refused(make(10.0, 4.6e12, 1.0), "inter_arrival_ms", 4.6e12);
  EXPECT_NO_THROW(make(10.0, 4.6e12 / Rng::kExponentialMaxFactor, 1.0)());
}

// A lognormal draw far out in the tail is cut to the size at which all
// num_requests requests could read it within 2^62 bytes.  At a mean of a
// quarter of that size and sigma 1, about one draw in thirty is cut.
TEST(Synthetic, DrawnSizesKeepTheRequestTotalBounded) {
  constexpr double kLargestBytes = 0x1p62 / 1000.0;
  SyntheticConfig cfg;
  cfg.num_requests = 1000;
  cfg.mean_data_size_mb = kLargestBytes / 4.0 / static_cast<double>(kMB);
  cfg.size_sigma = 1.0;
  const StreamingWorkload w = make_synthetic_stream(cfg);
  Bytes largest = 0;
  for (const Bytes s : w.file_sizes) {
    EXPECT_GE(s, 1u);
    largest = std::max(largest, s);
  }
  EXPECT_EQ(largest, static_cast<Bytes>(kLargestBytes));
}

// Client ids are drawn below num_clients, so zero clients is refused up
// front instead of dividing by zero on the first record.
TEST(Synthetic, RejectsZeroClients) {
  SyntheticConfig cfg;
  cfg.num_clients = 0;
  EXPECT_THROW(generate_synthetic(cfg), std::invalid_argument);
  EXPECT_THROW(make_synthetic_stream(cfg), std::invalid_argument);
}

// Client ids are 16-bit: a client count they cannot name is refused.
TEST(Synthetic, RejectsMoreClientsThanIdsCanName) {
  SyntheticConfig cfg;
  cfg.num_clients = 65'536;
  EXPECT_THROW(make_synthetic_stream(cfg), std::invalid_argument);
}

TEST(Synthetic, ClientsAreAssignedWithinRange) {
  SyntheticConfig cfg;
  cfg.num_clients = 3;
  cfg.num_requests = 500;
  const Workload w = generate_synthetic(cfg);
  for (const auto& r : w.requests.records()) EXPECT_LT(r.client, 3u);
}

TEST(WebTrace, WorkingSetIsBounded) {
  WebTraceConfig cfg;
  cfg.num_requests = 3000;
  const Workload w = generate_webtrace(cfg);
  EXPECT_LE(w.requests.unique_files(), cfg.working_set);
  EXPECT_GE(w.requests.unique_files(), cfg.working_set / 2);
}

TEST(WebTrace, AccessesAreZipfSkewed) {
  WebTraceConfig cfg;
  cfg.num_requests = 5000;
  const Workload w = generate_webtrace(cfg);
  const trace::PopularityAnalyzer a(w.requests);
  // The hottest file draws far more than the uniform share.
  const double uniform_share =
      static_cast<double>(cfg.num_requests) /
      static_cast<double>(cfg.working_set);
  EXPECT_GT(static_cast<double>(a.ranked()[0].accesses), 4 * uniform_share);
  // ... and the top quarter of the working set covers most accesses.
  EXPECT_GT(a.coverage(cfg.working_set / 4), 0.6);
}

TEST(WebTrace, SeventyFilesCoverTheWholeTrace) {
  // The property the paper exploits in Fig. 6: all requests can be
  // served from a 70-file prefetch.
  WebTraceConfig cfg;
  cfg.num_requests = 1000;
  cfg.working_set = 60;
  const Workload w = generate_webtrace(cfg);
  const trace::PopularityAnalyzer a(w.requests);
  EXPECT_DOUBLE_EQ(a.coverage(70), 1.0);
}

TEST(WebTrace, HotFilesAreScatteredAcrossIdSpace) {
  WebTraceConfig cfg;
  cfg.num_requests = 2000;
  const Workload w = generate_webtrace(cfg);
  trace::FileId max_id = 0;
  for (const auto& r : w.requests.records()) max_id = std::max(max_id, r.file);
  EXPECT_GT(max_id, 500u);  // not clustered at the low ids
}

TEST(WebTrace, FixedDataSize) {
  WebTraceConfig cfg;
  cfg.data_size_mb = 10.0;
  cfg.num_requests = 100;
  const Workload w = generate_webtrace(cfg);
  for (const auto& r : w.requests.records()) EXPECT_EQ(r.bytes, 10 * kMB);
}

TEST(WebTrace, DeterministicForSameSeed) {
  WebTraceConfig cfg;
  cfg.num_requests = 300;
  const Workload a = generate_webtrace(cfg);
  const Workload b = generate_webtrace(cfg);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i], b.requests[i]);
  }
}

TEST(WebTrace, RejectsInvalidConfigs) {
  WebTraceConfig cfg;
  cfg.working_set = 0;
  EXPECT_THROW(generate_webtrace(cfg), std::invalid_argument);
  cfg = {};
  cfg.working_set = cfg.num_files + 1;
  EXPECT_THROW(generate_webtrace(cfg), std::invalid_argument);
  cfg = {};
  cfg.burstiness = 1.0;
  EXPECT_THROW(generate_webtrace(cfg), std::invalid_argument);
}

// A NaN data size or delay reached an integer cast out of range (the
// CLI's web run then died scheduling an event in the past).
TEST(WebTrace, RejectsNonFiniteParameters) {
  const auto refused = [](const char* field, double WebTraceConfig::*member,
                          double value) {
    WebTraceConfig cfg;
    cfg.num_requests = 10;
    cfg.*member = value;
    expect_refused([&] { return generate_webtrace(cfg); }, field, value);
  };
  for (const double v : {kNan, kInf, -kInf}) {
    refused("data_size_mb", &WebTraceConfig::data_size_mb, v);
    refused("inter_arrival_ms", &WebTraceConfig::inter_arrival_ms, v);
    refused("zipf_alpha", &WebTraceConfig::zipf_alpha, v);
    refused("burstiness", &WebTraceConfig::burstiness, v);
  }
  refused("data_size_mb", &WebTraceConfig::data_size_mb, 0.0);
  refused("inter_arrival_ms", &WebTraceConfig::inter_arrival_ms, -1.0);
  refused("zipf_alpha", &WebTraceConfig::zipf_alpha, -0.5);
}

// The web generator's size and gap reach the same casts as the
// synthetic one's; a burst gap is shorter than inter_arrival_ms.
TEST(WebTrace, RejectsOverflowingParameters) {
  const auto make = [](double size_mb, double ia_ms) {
    WebTraceConfig cfg;
    cfg.num_requests = 1000;
    cfg.data_size_mb = size_mb;
    cfg.inter_arrival_ms = ia_ms;
    return [cfg] { return generate_webtrace(cfg); };
  };
  expect_refused(make(1e30, 700.0), "data_size_mb", 1e30);
  expect_refused(make(4.7e9, 700.0), "data_size_mb", 4.7e9);
  // At the edge the trace's byte total is exact: 1,000 × 4.6e15 < 2^62.
  const Workload edge = make(4.6e9, 700.0)();
  EXPECT_EQ(edge.requests.total_bytes(), Bytes{4'600'000'000'000'000'000});
  expect_refused(make(10.0, 1e30), "inter_arrival_ms", 1e30);
  expect_refused(make(10.0, 4.7e12), "inter_arrival_ms", 4.7e12);
  EXPECT_NO_THROW(make(10.0, 4.6e12)());
}

TEST(WebTrace, RejectsZeroClients) {
  WebTraceConfig cfg;
  cfg.num_clients = 0;
  EXPECT_THROW(generate_webtrace(cfg), std::invalid_argument);
}

TEST(WebTrace, RejectsMoreClientsThanIdsCanName) {
  WebTraceConfig cfg;
  cfg.num_clients = 65'536;
  EXPECT_THROW(generate_webtrace(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace eevfs::workload
