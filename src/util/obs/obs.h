#ifndef STHSL_UTIL_OBS_OBS_H_
#define STHSL_UTIL_OBS_OBS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sthsl::obs {

/// Observability layer: a per-op autograd profiler, scoped phase regions and
/// a Chrome-trace event buffer, shared by the trainer, the benchmarks and
/// `sthsl_cli`.
///
/// Enablement: set the STHSL_TRACE environment variable to anything but "0"
/// before process start, or call SetTraceEnabled(true) at runtime. When
/// disabled, every hook costs a single predictable branch and records no
/// state. When enabled at process exit, a human-readable summary is printed
/// to stderr, and the trace / metrics JSON files configured via
/// STHSL_TRACE_OUT / STHSL_METRICS_OUT (or SetTraceOutPath /
/// SetMetricsOutPath) are written.

namespace obs_internal {
/// Backing flag; read through TraceEnabled(). Initialized from the
/// STHSL_TRACE environment variable during static initialization. Atomic
/// because it may flip while pool workers read it; a relaxed load compiles
/// to a plain load on x86.
extern std::atomic<bool> g_enabled;
}  // namespace obs_internal

/// True when the observability layer is recording.
inline bool TraceEnabled() {
  return obs_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Enables or disables recording at runtime, overriding the environment
/// variable. Returns the previous state (for scoped save/restore in tests).
bool SetTraceEnabled(bool enabled);

/// Configures the Chrome-trace / metrics JSON files written at process exit.
/// Also settable via the STHSL_TRACE_OUT / STHSL_METRICS_OUT env variables.
void SetTraceOutPath(std::string path);
void SetMetricsOutPath(std::string path);

// -- Per-op profiler ----------------------------------------------------------

/// Aggregated cost of one autograd op name. Forward time is self time: the
/// wall time between the previous op boundary on the thread and the op's
/// MakeResult call, so per-epoch totals are additive and account for the
/// kernel compute plus the glue between consecutive ops. Backward time
/// brackets the op's backward function inside Tensor::Backward.
struct OpProfile {
  std::string name;
  int64_t forward_calls = 0;
  double forward_us = 0.0;
  int64_t backward_calls = 0;
  double backward_us = 0.0;
  /// Bytes read + written per forward call: 4 * (output numel + input numels).
  int64_t bytes_touched = 0;
  /// Analytic floating-point operation counts from the per-op cost model
  /// (src/tensor/kernel_cost.h); zero for ops without a model (pure data
  /// movement) and for callers that predate the model.
  int64_t forward_flops = 0;
  int64_t backward_flops = 0;
  /// Modeled bytes read + written across the op's backward function.
  int64_t backward_bytes = 0;
};

/// Aggregated cost of one named scoped region (model phase). For exec-layer
/// parallel-region tags the busy columns are additionally filled in:
/// `busy_us` sums the chunk-execution time across every participating thread
/// and `slices` counts executed chunks, so per-tag parallel efficiency is
/// busy_us / (total_us * threads).
struct ScopeProfile {
  std::string name;
  int64_t calls = 0;
  double total_us = 0.0;
  double busy_us = 0.0;
  int64_t slices = 0;
};

/// One slice of the Chrome trace ("ph":"X" complete event).
struct TraceEvent {
  std::string name;
  const char* category;  // "op", "backward", "phase", "exec" or "serve"
  double ts_us;          // start, microseconds since the process trace epoch
  double dur_us;
  int tid;
};

/// Microseconds since the process trace epoch (monotonic clock).
double TraceNowMicros();

/// Called by MakeResult once per forward op: attributes the wall time since
/// the previous op boundary on this thread and appends a trace event.
/// `flops` is the op's analytic forward operation count (0 when unmodeled).
void RecordForwardOp(const std::string& name, int64_t bytes_touched,
                     int64_t flops = 0);

/// Called by Tensor::Backward around each GradNode's backward function;
/// `start_us` is the TraceNowMicros() reading taken before the call.
/// `flops` / `bytes` are the analytic backward cost model for the op.
void RecordBackwardOp(const std::string& name, double start_us,
                      int64_t flops = 0, int64_t bytes = 0);

/// Records one explicitly-timed kernel sample into the forward columns of
/// `name`'s profile, without touching this thread's op boundary. For kernels
/// that never pass through MakeResult (optimizer update loops); single
/// mutex-protected update, only call when TraceEnabled().
void RecordKernelSample(const std::string& name, double dur_us, int64_t bytes,
                        int64_t flops);

/// True while a Backward pass runs on this thread. MakeResult skips forward
/// attribution then, so ops executed inside backward functions are not
/// double-counted against the forward column.
bool InBackwardPass();

/// RAII marker for a Backward pass (no-op when tracing is disabled).
class BackwardPassGuard {
 public:
  BackwardPassGuard();
  ~BackwardPassGuard();

  BackwardPassGuard(const BackwardPassGuard&) = delete;
  BackwardPassGuard& operator=(const BackwardPassGuard&) = delete;

 private:
  bool active_;
};

/// Appends one completed span to the trace buffer under the "serve"
/// category, without touching any thread's forward-op boundary. Used by the
/// serving tier for per-request stage spans (header parse, cache lookup,
/// inference, ...). `name` must be a string literal or otherwise outlive the
/// process trace buffer; single-branch no-op when tracing is disabled.
void RecordServeSpan(const char* name, double start_us, double dur_us);

/// Opens / closes a named region on this thread's scope stack. Regions must
/// nest; prefer the STHSL_TRACE_SCOPE macro. `name` must outlive the scope
/// (string literals).
void BeginScope(const char* name);
void EndScope();

/// RAII scoped region; records nothing when tracing is disabled.
class TraceScope {
 public:
  explicit TraceScope(const char* name) : active_(TraceEnabled()) {
    if (active_) BeginScope(name);
  }
  ~TraceScope() {
    if (active_) EndScope();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_;
};

// -- Parallel-region attribution ----------------------------------------------

/// Token tying the chunk slices of one exec-layer parallel region back to
/// the context that launched it. Created on the launching thread by
/// BeginParallelRegion; pool workers pass it to RecordParallelSlice so
/// their time is recorded under the region's tag (trace category "exec")
/// instead of appearing as orphan per-thread ops — and without perturbing
/// any thread's forward-op boundary, so MakeResult's self-time attribution
/// on the launching thread stays correct (the region's wall time lands in
/// the launching op's forward column).
struct ParallelRegionToken {
  const char* tag = nullptr;
  int launch_tid = 0;
  double start_us = 0.0;
  bool active = false;
};

/// Opens a parallel region on the launching thread. Returns an inactive
/// token (single branch, no recording) when tracing is disabled.
ParallelRegionToken BeginParallelRegion(const char* tag);

/// Records one executed chunk slice of the region, on whichever pool worker
/// (or the caller) ran it. No-op for inactive tokens.
void RecordParallelSlice(const ParallelRegionToken& token, double start_us,
                         double dur_us);

/// Closes the region on the launching thread: accumulates the region's wall
/// time — plus the summed per-chunk busy time and executed-chunk count the
/// exec layer measured — into the scope profile named by its tag. No-op for
/// inactive tokens.
void EndParallelRegion(const ParallelRegionToken& token, double busy_us = 0.0,
                       int64_t slices = 0);

// -- Tensor memory accounting -------------------------------------------------

/// Called by Tensor::FromImpl / ~TensorImpl when tracing is enabled; tracks
/// live float-buffer bytes and their high-water mark. Gradient buffers are
/// not counted (the estimate is the value-buffer footprint).
void OnTensorAlloc(int64_t bytes);
void OnTensorFree(int64_t bytes);
int64_t LiveTensorBytes();
int64_t PeakTensorBytes();

// -- Snapshots ----------------------------------------------------------------

std::vector<OpProfile> OpProfiles();
std::vector<ScopeProfile> ScopeProfiles();
std::vector<TraceEvent> TraceEvents();
/// Events discarded after the buffer cap (STHSL_TRACE_MAX_EVENTS, default
/// 2^20) was reached; reported so truncation is never silent.
int64_t DroppedTraceEvents();

/// Clears every recorded profile, scope, trace event and the tensor-memory
/// peak, and resets this thread's op boundary (tests and per-model benches).
void ResetProfiler();

}  // namespace sthsl::obs

#define STHSL_OBS_CONCAT_INNER(a, b) a##b
#define STHSL_OBS_CONCAT(a, b) STHSL_OBS_CONCAT_INNER(a, b)

/// Marks the enclosing block as a named trace region (model phase):
///   STHSL_TRACE_SCOPE("sthsl/hypergraph_prop");
#define STHSL_TRACE_SCOPE(name) \
  ::sthsl::obs::TraceScope STHSL_OBS_CONCAT(sthsl_trace_scope_, __LINE__)(name)

#endif  // STHSL_UTIL_OBS_OBS_H_
