#include "util/rng.h"

#include <bit>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace sthsl {
namespace {

// SplitMix64, used to expand the single seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256** step.
inline uint64_t Next(uint64_t s[4]) {
  const uint64_t result = Rotl(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

uint64_t Rng::NextU64() { return Next(state_); }

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  STHSL_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  uint64_t r;
  do {
    r = NextU64();
  } while (r < threshold);
  return r % n;
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_normal_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int Rng::Poisson(double rate) {
  STHSL_CHECK_GE(rate, 0.0);
  if (rate <= 0.0) return 0;
  if (rate < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-rate);
    double product = Uniform();
    int count = 0;
    while (product > limit) {
      ++count;
      product *= Uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large rates.
  const double sample = Normal(rate, std::sqrt(rate));
  return sample < 0.0 ? 0 : static_cast<int>(sample + 0.5);
}

double Rng::Pareto(double x_min, double alpha) {
  STHSL_CHECK_GT(x_min, 0.0);
  STHSL_CHECK_GT(alpha, 0.0);
  double u;
  do {
    u = Uniform();
  } while (u <= 1e-300);
  return x_min * std::pow(u, -1.0 / alpha);
}

double Rng::Gamma(double shape, double scale) {
  STHSL_CHECK_GT(shape, 0.0);
  STHSL_CHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then apply the standard correction.
    const double u = std::max(Uniform(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x;
    double v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 1e-300 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

void Rng::DropoutMask(double p, float keep, float* mask, int64_t n) {
  STHSL_CHECK(p >= 0.0 && p <= 1.0) << "invalid Bernoulli probability " << p;
  // Uniform() < p compares k * 2^-53 with p for the integer k = u >> 11;
  // scaling by 2^53 is exact, and k < x <=> k < ceil(x) for integer k, so
  // the draw is one integer compare against a threshold fixed up front.
  // The select is formed on the bits (all-ones when kept, zero when
  // dropped) so no data-dependent branch remains; a dropped entry is +0.
  const uint64_t threshold = static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
  const uint32_t keep_bits = std::bit_cast<uint32_t>(keep);
  uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t kept = (Next(s) >> 11) >= threshold;
    mask[i] = std::bit_cast<float>(keep_bits & (0u - kept));
  }
  for (int k = 0; k < 4; ++k) state_[k] = s[k];
}

std::vector<int> Rng::Permutation(int n) {
  STHSL_CHECK_GE(n, 0);
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(perm);
  return perm;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace sthsl
