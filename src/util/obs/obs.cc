#include "util/obs/obs.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/flags.h"
#include "util/obs/export.h"
#include "util/timer.h"

namespace sthsl::obs {
namespace {

struct ScopeFrame {
  const char* name;
  double start_us;
  Timer timer;
};

// All shared state lives behind one mutex; the hot path touches it only when
// tracing is enabled, and training is effectively single-threaded, so a
// plain mutex is cheap and keeps multi-threaded callers safe.
struct State {
  std::mutex mu;
  std::unordered_map<std::string, OpProfile> ops;
  std::unordered_map<std::string, ScopeProfile> scopes;
  std::vector<TraceEvent> events;
  int64_t dropped_events = 0;
  int64_t max_events = int64_t{1} << 20;
  std::string trace_path;
  std::string metrics_path;
  std::atomic<int64_t> live_bytes{0};
  std::atomic<int64_t> peak_bytes{0};
};

// Leaked on purpose: the atexit exporter runs after static destruction of
// ordinary globals would have begun.
State& S() {
  static State* state = new State();
  return *state;
}

// Process-wide monotonic clock all timestamps are relative to.
Timer& TraceClock() {
  static Timer* timer = new Timer();
  return *timer;
}

// Per-thread op boundary: the instant the previous op (or scope edge, or
// backward-pass edge) completed. Negative means "no boundary yet" — the
// first op on a thread is recorded with zero duration rather than absorbing
// arbitrary prior time.
thread_local double t_boundary_us = -1.0;
thread_local int t_backward_depth = 0;
thread_local std::vector<ScopeFrame> t_scope_stack;

int ThisTid() {
  static std::atomic<int> next{1};
  thread_local int tid = next.fetch_add(1);
  return tid;
}

void AddEventLocked(State& state, std::string name, const char* category,
                    double ts_us, double dur_us, int tid) {
  if (static_cast<int64_t>(state.events.size()) >= state.max_events) {
    ++state.dropped_events;
    return;
  }
  state.events.push_back({std::move(name), category, ts_us, dur_us, tid});
}

bool EnabledFromEnv() {
  const char* value = std::getenv("STHSL_TRACE");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

void AtExitFlush() {
  if (!TraceEnabled()) return;
  std::string trace_path;
  std::string metrics_path;
  {
    State& state = S();
    std::lock_guard<std::mutex> lock(state.mu);
    trace_path = state.trace_path;
    metrics_path = state.metrics_path;
  }
  PrintObsSummary(stderr);
  if (!trace_path.empty()) {
    const Status status = WriteChromeTrace(trace_path);
    if (status.ok()) {
      std::fprintf(stderr, "[sthsl-obs] trace written to %s\n",
                   trace_path.c_str());
    } else {
      std::fprintf(stderr, "[sthsl-obs] %s\n", status.ToString().c_str());
    }
  }
  if (!metrics_path.empty()) {
    const Status status = WriteMetricsJson(metrics_path);
    if (status.ok()) {
      std::fprintf(stderr, "[sthsl-obs] metrics written to %s\n",
                   metrics_path.c_str());
    } else {
      std::fprintf(stderr, "[sthsl-obs] %s\n", status.ToString().c_str());
    }
  }
}

void EnsureExitHookRegistered() {
  static bool once = [] {
    std::atexit(AtExitFlush);
    return true;
  }();
  (void)once;
}

bool InitFromEnv() {
  State& state = S();
  if (const char* path = std::getenv("STHSL_TRACE_OUT")) {
    state.trace_path = path;
  }
  if (const char* path = std::getenv("STHSL_METRICS_OUT")) {
    state.metrics_path = path;
  }
  state.max_events = EnvIntOr("STHSL_TRACE_MAX_EVENTS", state.max_events, 1,
                              std::numeric_limits<int64_t>::max());
  const bool enabled = EnabledFromEnv();
  if (enabled) EnsureExitHookRegistered();
  return enabled;
}

}  // namespace

namespace obs_internal {
std::atomic<bool> g_enabled{InitFromEnv()};
}  // namespace obs_internal

bool SetTraceEnabled(bool enabled) {
  if (enabled) EnsureExitHookRegistered();
  return obs_internal::g_enabled.exchange(enabled, std::memory_order_relaxed);
}

void SetTraceOutPath(std::string path) {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  state.trace_path = std::move(path);
}

void SetMetricsOutPath(std::string path) {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  state.metrics_path = std::move(path);
}

double TraceNowMicros() { return TraceClock().ElapsedMicros(); }

void RecordForwardOp(const std::string& name, int64_t bytes_touched,
                     int64_t flops) {
  const double now = TraceNowMicros();
  const double dur = t_boundary_us >= 0.0 ? now - t_boundary_us : 0.0;
  t_boundary_us = now;
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  OpProfile& op = state.ops[name];
  op.name = name;
  ++op.forward_calls;
  op.forward_us += dur;
  op.bytes_touched += bytes_touched;
  op.forward_flops += flops;
  AddEventLocked(state, name, "op", now - dur, dur, ThisTid());
}

void RecordBackwardOp(const std::string& name, double start_us, int64_t flops,
                      int64_t bytes) {
  const double now = TraceNowMicros();
  t_boundary_us = now;
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  OpProfile& op = state.ops[name];
  op.name = name;
  ++op.backward_calls;
  op.backward_us += now - start_us;
  op.backward_flops += flops;
  op.backward_bytes += bytes;
  AddEventLocked(state, name, "backward", start_us, now - start_us, ThisTid());
}

void RecordKernelSample(const std::string& name, double dur_us, int64_t bytes,
                        int64_t flops) {
  const double now = TraceNowMicros();
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  OpProfile& op = state.ops[name];
  op.name = name;
  ++op.forward_calls;
  op.forward_us += dur_us;
  op.bytes_touched += bytes;
  op.forward_flops += flops;
  AddEventLocked(state, name, "op", now - dur_us, dur_us, ThisTid());
}

bool InBackwardPass() { return t_backward_depth > 0; }

BackwardPassGuard::BackwardPassGuard() : active_(TraceEnabled()) {
  if (!active_) return;
  ++t_backward_depth;
  t_boundary_us = TraceNowMicros();
}

BackwardPassGuard::~BackwardPassGuard() {
  if (!active_) return;
  --t_backward_depth;
  t_boundary_us = TraceNowMicros();
}

void RecordServeSpan(const char* name, double start_us, double dur_us) {
  if (!TraceEnabled()) return;
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  AddEventLocked(state, name, "serve", start_us, dur_us, ThisTid());
}

void BeginScope(const char* name) {
  ScopeFrame frame;
  frame.name = name;
  frame.start_us = TraceNowMicros();
  t_scope_stack.push_back(frame);
  t_boundary_us = frame.start_us;
}

void EndScope() {
  if (t_scope_stack.empty()) return;
  ScopeFrame frame = t_scope_stack.back();
  t_scope_stack.pop_back();
  const double dur = frame.timer.ElapsedMicros();
  t_boundary_us = TraceNowMicros();
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  ScopeProfile& scope = state.scopes[frame.name];
  scope.name = frame.name;
  ++scope.calls;
  scope.total_us += dur;
  AddEventLocked(state, frame.name, "phase", frame.start_us, dur, ThisTid());
}

ParallelRegionToken BeginParallelRegion(const char* tag) {
  ParallelRegionToken token;
  if (!TraceEnabled()) return token;
  token.tag = tag;
  token.launch_tid = ThisTid();
  token.start_us = TraceNowMicros();
  token.active = true;
  return token;
}

void RecordParallelSlice(const ParallelRegionToken& token, double start_us,
                         double dur_us) {
  if (!token.active) return;
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  AddEventLocked(state, token.tag, "exec", start_us, dur_us, ThisTid());
}

void EndParallelRegion(const ParallelRegionToken& token, double busy_us,
                       int64_t slices) {
  if (!token.active) return;
  const double dur = TraceNowMicros() - token.start_us;
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  ScopeProfile& scope = state.scopes[token.tag];
  scope.name = token.tag;
  ++scope.calls;
  scope.total_us += dur;
  scope.busy_us += busy_us;
  scope.slices += slices;
}

void OnTensorAlloc(int64_t bytes) {
  State& state = S();
  const int64_t live = state.live_bytes.fetch_add(bytes) + bytes;
  int64_t peak = state.peak_bytes.load();
  while (live > peak &&
         !state.peak_bytes.compare_exchange_weak(peak, live)) {
  }
}

void OnTensorFree(int64_t bytes) {
  // May transiently undershoot zero when tracing is toggled between a
  // tensor's allocation and destruction; LiveTensorBytes clamps.
  S().live_bytes.fetch_sub(bytes);
}

int64_t LiveTensorBytes() {
  const int64_t live = S().live_bytes.load();
  return live > 0 ? live : 0;
}

int64_t PeakTensorBytes() {
  const int64_t peak = S().peak_bytes.load();
  return peak > 0 ? peak : 0;
}

std::vector<OpProfile> OpProfiles() {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<OpProfile> out;
  out.reserve(state.ops.size());
  for (const auto& [name, op] : state.ops) out.push_back(op);
  return out;
}

std::vector<ScopeProfile> ScopeProfiles() {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<ScopeProfile> out;
  out.reserve(state.scopes.size());
  for (const auto& [name, scope] : state.scopes) out.push_back(scope);
  return out;
}

std::vector<TraceEvent> TraceEvents() {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.events;
}

int64_t DroppedTraceEvents() {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.dropped_events;
}

void ResetProfiler() {
  State& state = S();
  std::lock_guard<std::mutex> lock(state.mu);
  state.ops.clear();
  state.scopes.clear();
  state.events.clear();
  state.dropped_events = 0;
  state.live_bytes.store(0);
  state.peak_bytes.store(0);
  // The reset instant becomes the calling thread's op boundary: the caller
  // is starting a measurement region here, so the first op afterwards must
  // be attributed its full duration. Recording it with zero duration (the
  // -1 "no boundary" sentinel, kept for threads that never reset) would
  // under-count a k-iteration benchmark loop's time by 1/k while
  // forward_calls still counts every call — inflating achieved GFLOP/s.
  t_boundary_us = TraceNowMicros();
}

}  // namespace sthsl::obs
