#ifndef STHSL_UTIL_OBS_METRICS_H_
#define STHSL_UTIL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sthsl::obs {

/// Training/runtime metrics registry: named counters, gauges and histograms
/// the trainer publishes into (epoch loss, grad norms, samples/sec, peak
/// tensor bytes) and the exporters read out of. The registry itself is
/// always functional — callers gate publishing on TraceEnabled() so the
/// disabled path stays free.
///
/// Instrument references returned by Get* are stable for the life of the
/// registry (until Reset, which is test-only).

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Add(int64_t delta = 1) { value_.fetch_add(delta); }
  int64_t Value() const { return value_.load(); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-value metric.
class Gauge {
 public:
  void Set(double value) { value_.store(value); }
  double Value() const { return value_.load(); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bounded log-linear (HDR-style) histogram: constant memory however many
/// samples are recorded, lock-free recording, bounded-error percentiles.
///
/// Layout: bucket 0 holds everything below 2^kMinExponent (zero, negatives,
/// NaN). Above it each power-of-two octave [2^e, 2^(e+1)), for e in
/// [kMinExponent, kMaxExponent), is split into kSubBuckets equal-width
/// linear sub-buckets; values at or above 2^kMaxExponent (+inf included)
/// clamp into the last bucket. A bucket is at most 1/16th of the values it
/// holds wide, so a percentile (reported at the bucket midpoint, clamped to
/// the observed [min, max]) carries a relative error of at most
/// 1/(2*16) = 3.125% for values in [2^-20, 2^44) ~= [1e-6, 2e13).
///
/// count, min, max and mean are exact. Non-finite samples stay visible: an
/// inf moves min/max/mean to inf, a NaN makes the mean NaN and is ignored
/// by min/max; the exporters render such values null.
///
/// Recording is one relaxed fetch_add on the bucket counter plus
/// compare-exchange loops for sum/min/max. Snapshots read the counters
/// without stopping writers, so a snapshot taken under concurrent recording
/// is a consistent-enough view, not a linearizable one.
class Histogram {
 public:
  struct Snapshot {
    int64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 44;
  static constexpr int kNumBuckets =
      1 + (kMaxExponent - kMinExponent) * kSubBuckets;

  void Record(double value);
  Snapshot GetSnapshot() const;

  /// The bucket a value falls into (exposed for property tests).
  static int BucketIndex(double value);
  /// Inclusive lower edge of `bucket`; the next bucket's edge bounds it.
  static double BucketLowerBound(int bucket);

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

class MetricsRegistry {
 public:
  /// The process-wide registry (leaked singleton, safe at exit time).
  static MetricsRegistry& Global();

  MetricsRegistry();
  ~MetricsRegistry();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Name-sorted snapshots for the exporters.
  std::vector<std::pair<std::string, int64_t>> Counters() const;
  std::vector<std::pair<std::string, double>> Gauges() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> Histograms() const;

  /// Drops every instrument. Invalidates references returned by Get*; only
  /// for test isolation.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sthsl::obs

#endif  // STHSL_UTIL_OBS_METRICS_H_
