// Deterministic random number generation for reproducible simulations.
//
// std::mt19937 + std::poisson_distribution would work, but their exact
// sequences are implementation-defined for some distributions; EEVFS runs
// must be bit-reproducible across standard libraries because tests assert
// on exact metric values.  We therefore ship a small xoshiro256**
// generator and hand-rolled samplers, whose first draws at a fixed seed
// tests/test_rng.cpp pins value for value.
#pragma once

#include <array>
#include <cstddef>
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
  /// few draws that would bias it.  A power-of-two bound divides 2^64, so
  /// its first draw is always kept and the modulo is a mask.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponential with the given mean (> 0); never more than
  /// kExponentialMaxFactor times the mean.
  double exponential(double mean);
  /// -log(DBL_MIN) rounded up: the draw for the smallest uniform.
  static constexpr double kExponentialMaxFactor = 709.0;

  /// Standard normal via Box-Muller (no cached spare: reproducibility
  /// beats the saved cosine).
  double normal(double mean, double stddev);

  /// One LognormalDistribution(mean, sigma) draw; a sampler drawing many
  /// values with the same parameters should hold the distribution.
  double lognormal_with_mean(double mean, double sigma);

  /// Creates an independent stream for a child entity; deterministic
  /// function of this stream's seed path and `stream_id`.
  Rng fork(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_;  // retained so fork() is a pure function of (seed, id)
};

/// The samplers below do their parameter-only work once, when they are
/// built; a draw takes the same uniforms in the same order and evaluates
/// the same expressions as a sampler that recomputed it per call, so it
/// returns the same value.

/// Poisson with mean `mu` (finite, > 0).  Knuth's method below 30, PTRS
/// (Hörmann) transformed rejection above — exact enough and fast for the
/// MU=1000 workloads in the paper.
class PoissonDistribution {
 public:
  /// Throws std::invalid_argument unless `mu` is finite and positive.
  explicit PoissonDistribution(double mu);

  std::int64_t operator()(Rng& rng) const;

 private:
  double mu_;
  double exp_neg_mu_ = 0.0;  // Knuth's product limit, exp(-mu)
  // PTRS constants (mu >= 30).
  double b_ = 0.0;
  double a_ = 0.0;
  double inv_alpha_ = 0.0;
  double v_r_ = 0.0;
  double log_mu_ = 0.0;
};

/// Log-normal parameterised by the *target* mean and the sigma of the
/// underlying normal; used for file-size dispersion.
class LognormalDistribution {
 public:
  /// Throws std::invalid_argument unless `mean` is finite and positive
  /// and `sigma` finite.
  LognormalDistribution(double mean, double sigma);

  double operator()(Rng& rng) const;

 private:
  double mu_ = 0.0;  // of the underlying normal: log(mean) - sigma^2 / 2
  double sigma_;
};

/// Zipf sampler over ranks [0, n): P(k) proportional to 1/(k+1)^alpha.
/// Precomputes the CDF and a guide table once; a draw is a table lookup
/// and a short forward scan of the CDF.
class ZipfDistribution {
 public:
  /// Throws std::invalid_argument for n == 0, a non-finite alpha, or
  /// weights whose sum is not finite.
  ZipfDistribution(std::size_t n, double alpha);

  std::size_t operator()(Rng& rng) const { return rank_of(rng.next_double()); }

  /// The inverse CDF: the first rank whose CDF is at least `u`, for `u`
  /// in [0, 1].
  std::size_t rank_of(double u) const;

  std::size_t size() const { return cdf_.size(); }
  double alpha() const { return alpha_; }

 private:
  std::vector<double> cdf_;
  /// bit_ceil(n) entries; entry j is rank_of(j / guide_.size()).  The
  /// size is a power of two, so u * guide_.size() is exact and bucket
  /// floor(u * size) starts at or before rank_of(u).
  std::vector<std::size_t> guide_;
  double alpha_;
};

}  // namespace eevfs
