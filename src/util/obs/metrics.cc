#include "util/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace sthsl::obs {

namespace {

void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

// NaN compares false, so the min/max loops below leave the target as is.
void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // zero, negatives and NaN
  const int exponent = std::ilogb(value);
  if (exponent < kMinExponent) return 0;
  if (exponent >= kMaxExponent) return kNumBuckets - 1;  // +inf included
  // Linear position inside the octave [2^exponent, 2^(exponent+1)), in [0, 1).
  const double frac = std::ldexp(value, -exponent) - 1.0;
  const int sub = std::min(static_cast<int>(frac * kSubBuckets),
                           kSubBuckets - 1);
  return 1 + (exponent - kMinExponent) * kSubBuckets + sub;
}

double Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0.0;
  const int exponent = kMinExponent + (bucket - 1) / kSubBuckets;
  const int sub = (bucket - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exponent);
}

void Histogram::Record(double value) {
  buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snapshot;
  // Read the buckets once; their sum is the authoritative count so the
  // percentile walk below is self-consistent even under concurrent writes.
  std::array<int64_t, kNumBuckets> counts;
  int64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return snapshot;
  snapshot.count = total;
  snapshot.mean =
      sum_.load(std::memory_order_relaxed) / static_cast<double>(total);
  snapshot.min = min_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  if (snapshot.min > snapshot.max) {
    // Every sample was NaN: there is no value to report.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    snapshot.min = snapshot.max = nan;
    snapshot.p50 = snapshot.p95 = snapshot.p99 = nan;
    return snapshot;
  }

  // Nearest-rank percentile over buckets; the estimate is the midpoint of
  // the bucket holding the rank, clamped to the observed value range.
  const auto percentile = [&](double p) {
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(p * static_cast<double>(total))));
    int64_t seen = 0;
    int bucket = kNumBuckets - 1;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts[static_cast<size_t>(i)];
      if (seen >= rank) {
        bucket = i;
        break;
      }
    }
    const double lo = BucketLowerBound(bucket);
    const double hi =
        bucket + 1 < kNumBuckets ? BucketLowerBound(bucket + 1) : lo;
    return std::min(std::max(lo + (hi - lo) / 2.0, snapshot.min),
                    snapshot.max);
  };
  snapshot.p50 = percentile(0.50);
  snapshot.p95 = percentile(0.95);
  snapshot.p99 = percentile(0.99);
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->Value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram->GetSnapshot());
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace sthsl::obs
