// Deterministic random number generation for reproducible simulations.
//
// std::mt19937 + std::poisson_distribution would work, but their exact
// sequences are implementation-defined for some distributions; EEVFS runs
// must be bit-reproducible across standard libraries because tests assert
// on exact metric values.  We therefore ship a small xoshiro256**
// generator and hand-rolled samplers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>


namespace eevfs {

/// splitmix64: used to seed xoshiro from a single 64-bit seed.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 (Blackman & Vigna), public domain algorithm.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound), bound > 0: a modulo that rejects the
  /// few draws that would bias it.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Poisson with mean `mu` (> 0).  Knuth's method below 30, PTRS
  /// (Hörmann) transformed rejection above — exact enough and fast for
  /// the MU=1000 workloads in the paper.
  std::int64_t poisson(double mu);

  /// Standard normal via Box-Muller (no cached spare: reproducibility
  /// beats the saved cosine).
  double normal(double mean, double stddev);

  /// Log-normal parameterised by the *target* mean and the sigma of the
  /// underlying normal; used for file-size dispersion.
  double lognormal_with_mean(double mean, double sigma);

  /// Creates an independent stream for a child entity; deterministic
  /// function of this stream's seed path and `stream_id`.
  Rng fork(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_;  // retained so fork() is a pure function of (seed, id)
};

/// Zipf sampler over ranks [0, n): P(k) proportional to 1/(k+1)^alpha.
/// Precomputes the CDF once; sampling is a binary search.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double alpha);

  std::size_t operator()(Rng& rng) const;

  std::size_t size() const { return cdf_.size(); }
  double alpha() const { return alpha_; }

 private:
  std::vector<double> cdf_;
  double alpha_;
};

}  // namespace eevfs
