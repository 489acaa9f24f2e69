// Tests for the observability layer: metrics registry semantics, the per-op
// autograd profiler, scoped regions, trace export, and the guarantee that a
// disabled layer records no observable state.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/json_mini.h"
#include "util/obs/export.h"
#include "util/obs/log_histogram.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sthsl {
namespace {

/// Saves the trace-enabled flag, clears all profiler and registry state, and
/// restores both on destruction so tests never leak state into each other
/// (or into the process-exit summary).
class ObsSandbox {
 public:
  explicit ObsSandbox(bool enabled) : previous_(obs::SetTraceEnabled(enabled)) {
    obs::ResetProfiler();
    obs::MetricsRegistry::Global().Reset();
  }
  ~ObsSandbox() {
    obs::ResetProfiler();
    obs::MetricsRegistry::Global().Reset();
    obs::SetTraceEnabled(previous_);
  }

  ObsSandbox(const ObsSandbox&) = delete;
  ObsSandbox& operator=(const ObsSandbox&) = delete;

 private:
  bool previous_;
};

const obs::OpProfile* FindOp(const std::vector<obs::OpProfile>& ops,
                             const std::string& name) {
  for (const auto& op : ops) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const obs::ScopeProfile* FindScope(const std::vector<obs::ScopeProfile>& scopes,
                                   const std::string& name) {
  for (const auto& scope : scopes) {
    if (scope.name == name) return &scope;
  }
  return nullptr;
}

TEST(MetricsTest, CounterAccumulates) {
  ObsSandbox sandbox(/*enabled=*/false);
  auto& registry = obs::MetricsRegistry::Global();
  auto& counter = registry.GetCounter("test/counter");
  EXPECT_EQ(counter.Value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
  // Same name resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("test/counter").Value(), 42);
  EXPECT_EQ(registry.GetCounter("test/other").Value(), 0);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  ObsSandbox sandbox(/*enabled=*/false);
  auto& gauge = obs::MetricsRegistry::Global().GetGauge("test/gauge");
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_EQ(gauge.Value(), -1.25);
}

TEST(MetricsTest, HistogramNearestRankPercentiles) {
  ObsSandbox sandbox(/*enabled=*/false);
  auto& hist = obs::MetricsRegistry::Global().GetHistogram("test/hist");
  EXPECT_EQ(hist.GetSnapshot().count, 0);
  // Record 100..1 (descending, so ordering is the snapshot's job).
  for (int i = 100; i >= 1; --i) hist.Record(static_cast<double>(i));
  const obs::Histogram::Snapshot s = hist.GetSnapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.p50, 50.0);  // nearest-rank: ceil(0.50 * 100) = rank 50
  EXPECT_EQ(s.p95, 95.0);
  EXPECT_EQ(s.p99, 99.0);
}

TEST(MetricsTest, HistogramSingleSample) {
  ObsSandbox sandbox(/*enabled=*/false);
  auto& hist = obs::MetricsRegistry::Global().GetHistogram("test/one");
  hist.Record(7.0);
  const obs::Histogram::Snapshot s = hist.GetSnapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.min, 7.0);
  EXPECT_EQ(s.max, 7.0);
  EXPECT_EQ(s.p50, 7.0);
  EXPECT_EQ(s.p95, 7.0);
  EXPECT_EQ(s.p99, 7.0);
}

// ---------------------------------------------------------------------------
// LogHistogram: bounded log-linear histogram for serving hot paths.

TEST(LogHistogramTest, QuantileErrorStaysWithinBucketBound) {
  ObsSandbox sandbox(/*enabled=*/false);
  obs::LogHistogram hist;
  // Values 1..10000: exact quantiles are known, the histogram's estimate
  // must be within its documented relative error of 1/(2*16) = 3.125%.
  for (int i = 1; i <= 10000; ++i) hist.Record(static_cast<double>(i));
  const obs::Histogram::Snapshot s = hist.GetSnapshot();
  EXPECT_EQ(s.count, 10000);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 10000.0);
  EXPECT_NEAR(s.mean, 5000.5, 1e-6);  // sum is exact, not bucketed
  const double kRelError = 1.0 / 32.0;
  EXPECT_NEAR(s.p50, 5000.0, 5000.0 * kRelError);
  EXPECT_NEAR(s.p95, 9500.0, 9500.0 * kRelError);
  EXPECT_NEAR(s.p99, 9900.0, 9900.0 * kRelError);
}

TEST(LogHistogramTest, SubUnitAndExtremeValuesClampToEdgeBuckets) {
  obs::LogHistogram hist;
  hist.Record(0.0);
  hist.Record(0.5);
  hist.Record(-3.0);  // negative: clamps into the [0,1) bucket
  hist.Record(1e300);
  const obs::Histogram::Snapshot s = hist.GetSnapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.min, -3.0);
  EXPECT_EQ(s.max, 1e300);
  // Quantile estimates stay inside the observed range even for clamped
  // values far outside the bucketed octaves.
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(LogHistogramTest, MergeMatchesRecordingEverythingInOne) {
  obs::LogHistogram left;
  obs::LogHistogram right;
  obs::LogHistogram all;
  for (int i = 1; i <= 500; ++i) {
    const double value = static_cast<double>(i * 7 % 997);
    (i % 2 == 0 ? left : right).Record(value);
    all.Record(value);
  }
  obs::LogHistogram merged;
  merged.MergeFrom(left);
  merged.MergeFrom(right);
  const obs::Histogram::Snapshot a = merged.GetSnapshot();
  const obs::Histogram::Snapshot b = all.GetSnapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);  // identical buckets → identical quantiles
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);

  // Merge is associative: (left ⊕ right) ⊕ left == left ⊕ (right ⊕ left).
  obs::LogHistogram lr;
  lr.MergeFrom(left);
  lr.MergeFrom(right);
  lr.MergeFrom(left);
  obs::LogHistogram rl;
  rl.MergeFrom(right);
  rl.MergeFrom(left);
  obs::LogHistogram assoc;
  assoc.MergeFrom(left);
  assoc.MergeFrom(rl);
  for (int i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(lr.bucket_count(i), assoc.bucket_count(i)) << "bucket " << i;
  }
}

TEST(LogHistogramTest, BucketIndexIsMonotoneAndBounded) {
  int previous = -1;
  for (double value = 0.25; value < 1e9; value *= 1.37) {
    const int index = obs::LogHistogram::BucketIndex(value);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, obs::LogHistogram::kNumBuckets);
    ASSERT_GE(index, previous) << "value " << value;
    // The bucket's lower bound never exceeds the value it holds.
    ASSERT_LE(obs::LogHistogram::BucketLowerBound(index), value);
    previous = index;
  }
}

TEST(LogHistogramTest, RegistryExposesLogHistogramsAlongsideExact) {
  ObsSandbox sandbox(/*enabled=*/false);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetHistogram("test/exact").Record(5.0);
  registry.GetLogHistogram("test/bounded").Record(5.0);
  const auto histograms = registry.Histograms();
  ASSERT_EQ(histograms.size(), 2u);
  EXPECT_EQ(histograms[0].first, "test/bounded");  // name-sorted
  EXPECT_EQ(histograms[1].first, "test/exact");
  EXPECT_EQ(histograms[0].second.count, 1);
  EXPECT_EQ(histograms[1].second.count, 1);
  // Same instrument on repeat lookup.
  registry.GetLogHistogram("test/bounded").Record(6.0);
  EXPECT_EQ(registry.GetLogHistogram("test/bounded").GetSnapshot().count, 2);
}

TEST(MetricsTest, RegistrySnapshotsAreNameSorted) {
  ObsSandbox sandbox(/*enabled=*/false);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("zeta").Add(1);
  registry.GetCounter("alpha").Add(2);
  const auto counters = registry.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "zeta");
}

TEST(ObsProfilerTest, ForwardAndBackwardOpsRecorded) {
  ObsSandbox sandbox(/*enabled=*/true);
  Rng rng(11);
  Tensor a = Tensor::Rand({8, 8}, rng, -1.0f, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Rand({8, 8}, rng, -1.0f, 1.0f, /*requires_grad=*/true);
  Tensor loss = Sum(MatMul(a, b));
  loss.Backward();

  const auto ops = obs::OpProfiles();
  const obs::OpProfile* matmul = FindOp(ops, "matmul");
  ASSERT_NE(matmul, nullptr);
  EXPECT_EQ(matmul->forward_calls, 1);
  EXPECT_EQ(matmul->backward_calls, 1);
  EXPECT_GE(matmul->forward_us, 0.0);
  EXPECT_GE(matmul->backward_us, 0.0);
  // Output 8x8 plus two 8x8 inputs, 4 bytes each.
  EXPECT_EQ(matmul->bytes_touched, 3 * 8 * 8 * 4);
  // Ops spawned inside backward functions must not inflate forward counts:
  // one forward call of sum, regardless of what its backward ran.
  const obs::OpProfile* sum = FindOp(ops, "sum_all");
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->forward_calls, 1);
}

TEST(ObsProfilerTest, ScopesNestAndAggregate) {
  ObsSandbox sandbox(/*enabled=*/true);
  {
    STHSL_TRACE_SCOPE("outer");
    {
      STHSL_TRACE_SCOPE("inner");
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    }
  }
  {
    STHSL_TRACE_SCOPE("outer");
  }

  const auto scopes = obs::ScopeProfiles();
  const obs::ScopeProfile* outer = FindScope(scopes, "outer");
  const obs::ScopeProfile* inner = FindScope(scopes, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 2);
  EXPECT_EQ(inner->calls, 1);
  EXPECT_GE(outer->total_us, inner->total_us);

  // The inner scope closes first, so its event is appended first, and its
  // interval nests inside the first outer event's interval.
  const auto events = obs::TraceEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us + 1.0);
}

TEST(ObsProfilerTest, TensorMemoryPeakTracksLargestWorkingSet) {
  ObsSandbox sandbox(/*enabled=*/true);
  EXPECT_EQ(obs::PeakTensorBytes(), 0);
  {
    Tensor big = Tensor::Zeros({1000});
    EXPECT_GE(obs::LiveTensorBytes(), 4000);
    EXPECT_GE(obs::PeakTensorBytes(), 4000);
  }
  // The big tensor died; live drops, peak stays.
  EXPECT_LT(obs::LiveTensorBytes(), 4000);
  EXPECT_GE(obs::PeakTensorBytes(), 4000);
}

TEST(ObsProfilerTest, DisabledModeRecordsNothing) {
  ObsSandbox sandbox(/*enabled=*/false);
  {
    STHSL_TRACE_SCOPE("should_not_appear");
    Rng rng(13);
    Tensor a = Tensor::Rand({4, 4}, rng, -1.0f, 1.0f, /*requires_grad=*/true);
    Tensor loss = Sum(Mul(a, a));
    loss.Backward();
  }
  EXPECT_TRUE(obs::OpProfiles().empty());
  EXPECT_TRUE(obs::ScopeProfiles().empty());
  EXPECT_TRUE(obs::TraceEvents().empty());
  EXPECT_EQ(obs::PeakTensorBytes(), 0);
  EXPECT_EQ(obs::DroppedTraceEvents(), 0);
}

TEST(ObsProfilerTest, EnabledTimingIsSane) {
  ObsSandbox sandbox(/*enabled=*/true);
  Timer wall;
  Rng rng(17);
  Tensor a = Tensor::Rand({32, 32}, rng, -1.0f, 1.0f, /*requires_grad=*/true);
  Tensor x = a;
  for (int i = 0; i < 4; ++i) x = MatMul(x, a);
  Sum(x).Backward();
  const double wall_us = wall.ElapsedMicros();

  double forward_us = 0.0;
  int64_t forward_calls = 0;
  for (const auto& op : obs::OpProfiles()) {
    forward_us += op.forward_us;
    forward_calls += op.forward_calls;
  }
  EXPECT_EQ(forward_calls, 5);  // 4 matmuls + 1 sum
  EXPECT_GT(forward_us, 0.0);
  // Self-time attribution can never exceed the wall clock around the region
  // (small slack for clock granularity).
  EXPECT_LE(forward_us, wall_us * 1.05 + 100.0);
}

TEST(ObsExportTest, ChromeTraceFileIsValidAndLoadable) {
  ObsSandbox sandbox(/*enabled=*/true);
  {
    STHSL_TRACE_SCOPE("export_phase");
    Rng rng(19);
    Tensor a = Tensor::Rand({4, 4}, rng);
    Tensor b = MatMul(a, a);
    (void)b;
  }
  const std::string path = "/tmp/sthsl_obs_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path).ok());

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"export_phase\""), std::string::npos);
  EXPECT_NE(text.find("\"matmul\""), std::string::npos);
  // Structural sanity: braces and brackets balance, so any strict JSON
  // parser (chrome://tracing's included) can load the file.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsExportTest, MetricsJsonHasAllSections) {
  ObsSandbox sandbox(/*enabled=*/true);
  obs::MetricsRegistry::Global().GetCounter("test/count").Add(3);
  obs::MetricsRegistry::Global().GetHistogram("test/hist").Record(1.5);
  Rng rng(23);
  Tensor a = Tensor::Rand({2, 2}, rng);
  (void)MatMul(a, a);

  const std::string json = obs::MetricsJson();
  EXPECT_NE(json.find("\"counters\":{\"test/count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"test/hist\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"ops\":["), std::string::npos);
  EXPECT_NE(json.find("\"matmul\""), std::string::npos);
  EXPECT_NE(json.find("\"tensor_memory\""), std::string::npos);
}

TEST(ObsExportTest, NonFiniteMetricsExportAsNull) {
  ObsSandbox sandbox(/*enabled=*/true);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("train/loss").Set(std::nan(""));
  registry.GetHistogram("train/grad_norm")
      .Record(std::numeric_limits<double>::infinity());

  json::JsonValue root;
  std::string error;
  ASSERT_TRUE(json::JsonParser(obs::MetricsJson()).Parse(&root, &error))
      << error;
  const json::JsonValue* loss = root.Find("gauges")->Find("train/loss");
  ASSERT_NE(loss, nullptr);
  EXPECT_TRUE(loss->Is(json::JsonValue::Kind::kNull));
  const json::JsonValue* grad_norm =
      root.Find("histograms")->Find("train/grad_norm");
  ASSERT_NE(grad_norm, nullptr);
  EXPECT_EQ(grad_norm->Find("count")->number, 1);
  for (const char* field : {"min", "max", "mean", "p50", "p95", "p99"}) {
    EXPECT_TRUE(grad_norm->Find(field)->Is(json::JsonValue::Kind::kNull))
        << field;
  }
}

}  // namespace
}  // namespace sthsl
