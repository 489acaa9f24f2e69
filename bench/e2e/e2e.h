#ifndef STHSL_BENCH_E2E_E2E_H_
#define STHSL_BENCH_E2E_E2E_H_

// Shared pieces of the end-to-end benchmark: run options, the fixed metric
// catalogue every run reports, sample statistics and the per-layer
// attribution read from the library's own observability layer.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/exec.h"

namespace sthsl::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured period (BENCHMARK.json's run_seconds). The
  /// traced run splits it between an untraced and a traced pass.
  double seconds = 20.0;
  bool trace = false;
};

/// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run), identical for every workload. For
/// training a unit of work is one window, for serving one request.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
};

/// Per-layer metrics (traced run), identical for every workload; a layer
/// the workload never enters reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"data.window_ms", "ms"},
    {"core.forward_ms", "ms"},
    {"core.local_encoder_ms", "ms"},
    {"core.hypergraph_ms", "ms"},
    {"core.global_temporal_ms", "ms"},
    {"core.infomax_ms", "ms"},
    {"core.contrastive_ms", "ms"},
    {"core.predict_head_ms", "ms"},
    {"core.unattributed_ms", "ms"},
    {"tensor.backward_ms", "ms"},
    {"tensor.optimizer_ms", "ms"},
    {"tensor.matmul_ms", "ms"},
    {"tensor.conv_ms", "ms"},
    {"tensor.other_ops_ms", "ms"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.conv_gflops", "GFLOP/s"},
    {"tensor.ops_per_window", "count"},
    {"tensor.peak_mb", "MiB"},
    {"exec.regions_per_window", "count"},
    {"exec.worker_util", "frac"},
    {"serve.bundle_load_ms", "ms"},
    {"serve.header_parse_us_p50", "us"},
    {"serve.body_parse_us_p50", "us"},
    {"serve.serialize_us_p50", "us"},
    {"serve.outside_server_ms_p50", "ms"},
    {"serve.cache_lookup_us_p50", "us"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.cache_evictions", "count"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.timeout_flush_frac", "frac"},
    {"serve.inference_us_p50", "us"},
    {"serve.server_us_p50", "us"},
    {"serve.server_us_p99", "us"},
    {"loadgen.lag_ms_p99", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

/// Outcome of one workload run: the correctness gate, the operation counts
/// and the metrics of the run's kind; every run reports exactly the
/// catalogue of its kind.
class RunResult {
 public:
  explicit RunResult(bool trace);

  /// Records a metric; one of the other kind is ignored, a name in neither
  /// catalogue aborts.
  void Set(const std::string& name, double value);
  /// Marks the run incorrect; the first few reasons go to stderr.
  void Fail(const std::string& why);

  bool correct() const { return correct_; }
  const std::vector<MetricDef>& defs() const { return defs_; }
  double value(const std::string& name) const { return values_.at(name); }

  int64_t attempted = 0;
  int64_t failed = 0;
  /// Extra `workload name value unit` lines printed before the result
  /// (sample counts, percentile choices); not part of the result object.
  std::vector<std::string> notes;

 private:
  bool correct_ = true;
  int reported_ = 0;
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
};

RunResult RunTrain(const Options& options);
RunResult RunServe(const Options& options);

/// `bench_e2e compare DIR_A DIR_B [--bounds BENCHMARK.json]`.
int RunCompare(int argc, char** argv);

// -- Helpers ------------------------------------------------------------------

/// Independent 64-bit seed for `stream` derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Median with linear interpolation between the middle pair.
double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// %.17g rendering: every digit of a double.
std::string Num(double value);

/// FNV-1a over the bytes of `values`, continuing from `hash`.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
uint64_t HashFloats(const std::vector<float>& values,
                    uint64_t hash = kFnvOffset);

/// Hardware threads, as the exec layer sees them.
inline int Nproc() { return exec::HardwareThreadCount(); }

// Thread counts. Sizes are constants, threads follow the machine: training
// kernels use up to 4 threads; serving runs sthsl_serve's 2 batcher workers
// with hardware / 2 kernel threads each, driven by up to 4 connections.
inline int TrainExecThreads() { return std::min(4, Nproc()); }
inline constexpr int kServeBatcherWorkers = 2;
inline int ServeExecThreads() {
  return std::max(1, Nproc() / kServeBatcherWorkers);
}
inline int LoadgenConnections() { return std::min(4, Nproc()); }

/// Snapshot of the always-on exec pool counters, for deltas over a pass.
struct PoolSnapshot {
  int64_t regions = 0;
  double worker_busy_us = 0.0;
  double worker_total_us = 0.0;
};
PoolSnapshot TakePoolSnapshot();

/// Fills the core.*, tensor.* (except backward/optimizer) and exec.*
/// metrics from the traced pass that started at ResetProfiler() and
/// `pool_before`; `backward_us` is the pass's total Tensor::Backward time
/// (0 when serving). Forward windows are counted by the model's own
/// `sthsl/forward` scope, so the same code attributes a training step and
/// a served batch.
void AttributeModelLayers(const PoolSnapshot& pool_before, double backward_us,
                          RunResult* result);

}  // namespace sthsl::e2e

#endif  // STHSL_BENCH_E2E_E2E_H_
