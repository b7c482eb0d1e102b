#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace eevfs {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // The rejection threshold below is 0 for a power of two, and r % bound
  // is r & (bound - 1): the same draw, without two 64-bit divisions.
  if (std::has_single_bit(bound)) return next_u64() & (bound - 1);
  // Debiased modulo via rejection: values below `threshold` would wrap
  // unevenly, so reject them.  The loop runs ~1.00002 iterations for the
  // bounds used here (file counts, node counts).
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = next_double();
  // Avoid log(0).
  if (u <= std::numeric_limits<double>::min()) u = std::numeric_limits<double>::min();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = next_double();
  if (u1 <= std::numeric_limits<double>::min()) u1 = std::numeric_limits<double>::min();
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal_with_mean(double mean, double sigma) {
  return LognormalDistribution(mean, sigma)(*this);
}

Rng Rng::fork(std::uint64_t stream_id) const {
  std::uint64_t mix = seed_;
  const std::uint64_t a = splitmix64(mix);
  mix ^= stream_id * 0xD1B54A32D192ED03ULL;
  const std::uint64_t b = splitmix64(mix);
  return Rng(a ^ rotl(b, 23) ^ stream_id);
}

PoissonDistribution::PoissonDistribution(double mu) : mu_(mu) {
  if (!std::isfinite(mu) || mu <= 0.0) {
    throw std::invalid_argument(
        "PoissonDistribution: mu must be finite and positive");
  }
  if (mu < 30.0) {
    exp_neg_mu_ = std::exp(-mu);
    return;
  }
  b_ = 0.931 + 2.53 * std::sqrt(mu);
  a_ = -0.059 + 0.02483 * b_;
  inv_alpha_ = 1.1239 + 1.1328 / (b_ - 3.4);
  v_r_ = 0.9277 - 3.6224 / (b_ - 2.0);
  log_mu_ = std::log(mu);
}

std::int64_t PoissonDistribution::operator()(Rng& rng) const {
  if (mu_ < 30.0) {
    // Knuth: multiply uniforms until below exp(-mu).
    double prod = 1.0;
    std::int64_t k = -1;
    do {
      ++k;
      prod *= rng.next_double();
    } while (prod > exp_neg_mu_);
    return k;
  }
  // Hörmann's PTRS transformed-rejection sampler for large mu.
  for (;;) {
    const double u = rng.next_double() - 0.5;
    const double v = rng.next_double();
    const double us = 0.5 - std::abs(u);
    const auto k = static_cast<std::int64_t>(
        std::floor((2.0 * a_ / us + b_) * u + mu_ + 0.43));
    if (us >= 0.07 && v <= v_r_) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha_ / (a_ / (us * us) + b_)) <=
        -mu_ + static_cast<double>(k) * log_mu_ -
            std::lgamma(static_cast<double>(k) + 1.0)) {
      return k;
    }
  }
}

LognormalDistribution::LognormalDistribution(double mean, double sigma)
    : sigma_(sigma) {
  if (!std::isfinite(mean) || mean <= 0.0 || !std::isfinite(sigma)) {
    throw std::invalid_argument(
        "LognormalDistribution: mean must be finite and positive, sigma "
        "finite");
  }
  // If X ~ LogNormal(m, s), E[X] = exp(m + s^2/2); solve m for the target.
  mu_ = std::log(mean) - 0.5 * sigma * sigma;
}

double LognormalDistribution::operator()(Rng& rng) const {
  return std::exp(rng.normal(mu_, sigma_));
}

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha)
    : alpha_(alpha) {
  if (n == 0 || !std::isfinite(alpha)) {
    throw std::invalid_argument(
        "ZipfDistribution: needs at least one rank and a finite alpha");
  }
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = sum;
  }
  if (!std::isfinite(sum)) {
    throw std::invalid_argument("ZipfDistribution: weights overflow");
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding

  guide_.resize(std::bit_ceil(n));
  const auto buckets = static_cast<double>(guide_.size());
  std::size_t k = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    // cdf_.back() is 1, above every edge j / buckets < 1.
    while (cdf_[k] < static_cast<double>(j) / buckets) ++k;
    guide_[j] = k;
  }
}

std::size_t ZipfDistribution::rank_of(double u) const {
  assert(u >= 0.0 && u <= 1.0);
  // u = 1 lands in the last bucket, whose scan ends at the last rank.
  const auto j = std::min(
      static_cast<std::size_t>(u * static_cast<double>(guide_.size())),
      guide_.size() - 1);
  std::size_t k = guide_[j];
  while (cdf_[k] < u) ++k;
  return k;
}

}  // namespace eevfs
