#ifndef STHSL_UTIL_RNG_H_
#define STHSL_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sthsl {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every source of randomness in the project — parameter initialization,
/// dropout masks, synthetic data generation, corruption shuffles — flows
/// through an explicitly seeded Rng so that every experiment is exactly
/// reproducible from the seed it prints.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5f3759df9e3779b9ULL);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (cached spare value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Poisson-distributed count with the given rate. Uses Knuth's method for
  /// small rates and normal approximation (clamped at 0) for large ones.
  int Poisson(double rate);

  /// Pareto/power-law sample: x_min * U^{-1/alpha}. Heavy-tailed for small
  /// alpha; used to plant the skewed crime distribution of the paper's Fig 2.
  double Pareto(double x_min, double alpha);

  /// Gamma(shape, scale) via Marsaglia-Tsang. Requires shape > 0.
  double Gamma(double shape, double scale);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Inverted-dropout mask: mask[i] = Bernoulli(p) ? 0 : keep for i in
  /// [0, n), consuming exactly the values n Bernoulli(p) calls would, in
  /// the same order. Runs as one branchless loop over a register copy of
  /// the state. Requires 0 <= p <= 1.
  void DropoutMask(double p, float keep, float* mask, int64_t n);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Random permutation of [0, n).
  std::vector<int> Permutation(int n);

  /// Derives an independent child generator (for per-module streams).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace sthsl

#endif  // STHSL_UTIL_RNG_H_
