#include "util/obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "util/obs/metrics.h"
#include "util/obs/obs.h"

namespace sthsl::obs {
namespace {

// Ops sorted by total (forward + backward) time, heaviest first.
std::vector<OpProfile> SortedOps() {
  std::vector<OpProfile> ops = OpProfiles();
  std::sort(ops.begin(), ops.end(), [](const OpProfile& a,
                                       const OpProfile& b) {
    return a.forward_us + a.backward_us > b.forward_us + b.backward_us;
  });
  return ops;
}

std::vector<ScopeProfile> SortedScopes() {
  std::vector<ScopeProfile> scopes = ScopeProfiles();
  std::sort(scopes.begin(), scopes.end(),
            [](const ScopeProfile& a, const ScopeProfile& b) {
              return a.total_us > b.total_us;
            });
  return scopes;
}

// Writes `text` plus a trailing newline to `path`; `what` names the
// artifact in errors.
Status WriteJsonFile(const std::string& path, const std::string& text,
                     const char* what) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError(std::string("cannot open ") + what + " " + path);
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fputc('\n', file);
  if (std::fclose(file) != 0) {
    return Status::IoError(std::string("error writing ") + what + " " + path);
  }
  return Status::Ok();
}

}  // namespace

void PrintObsSummary(std::FILE* out) {
  const std::vector<OpProfile> ops = SortedOps();
  if (!ops.empty()) {
    std::fprintf(out, "[sthsl-obs] per-op profile (self time)\n");
    std::fprintf(out, "  %-24s %9s %12s %9s %12s %10s %10s %8s\n", "op",
                 "calls", "fwd_ms", "bwd_calls", "bwd_ms", "MB", "GFLOP",
                 "GF/s");
    double total_fwd = 0.0;
    double total_bwd = 0.0;
    const size_t shown = std::min<size_t>(ops.size(), 20);
    for (const OpProfile& op : ops) {
      total_fwd += op.forward_us;
      total_bwd += op.backward_us;
    }
    for (size_t i = 0; i < shown; ++i) {
      const OpProfile& op = ops[i];
      const double gflop =
          static_cast<double>(op.forward_flops + op.backward_flops) / 1e9;
      const double total_us = op.forward_us + op.backward_us;
      const double gfps = total_us > 0.0 ? gflop * 1e6 / total_us : 0.0;
      std::fprintf(out, "  %-24s %9" PRId64 " %12.3f %9" PRId64
                   " %12.3f %10.2f %10.3f %8.2f\n",
                   op.name.c_str(), op.forward_calls, op.forward_us / 1e3,
                   op.backward_calls, op.backward_us / 1e3,
                   static_cast<double>(op.bytes_touched) / 1e6, gflop, gfps);
    }
    if (ops.size() > shown) {
      std::fprintf(out, "  ... %zu more op(s)\n", ops.size() - shown);
    }
    std::fprintf(out, "  %-24s %9s %12.3f %9s %12.3f\n", "total", "",
                 total_fwd / 1e3, "", total_bwd / 1e3);
  }

  const std::vector<ScopeProfile> scopes = SortedScopes();
  if (!scopes.empty()) {
    std::fprintf(out, "[sthsl-obs] phase scopes\n");
    // "par" is effective parallelism (busy / wall) for exec-layer tags;
    // divide by the thread count for parallel efficiency.
    std::fprintf(out, "  %-28s %9s %12s %12s %6s\n", "scope", "calls",
                 "total_ms", "busy_ms", "par");
    for (const ScopeProfile& scope : scopes) {
      const double par =
          scope.total_us > 0.0 ? scope.busy_us / scope.total_us : 0.0;
      std::fprintf(out, "  %-28s %9" PRId64 " %12.3f %12.3f %6.2f\n",
                   scope.name.c_str(), scope.calls, scope.total_us / 1e3,
                   scope.busy_us / 1e3, par);
    }
  }

  auto& registry = MetricsRegistry::Global();
  const auto counters = registry.Counters();
  const auto gauges = registry.Gauges();
  const auto histograms = registry.Histograms();
  if (!counters.empty() || !gauges.empty() || !histograms.empty()) {
    std::fprintf(out, "[sthsl-obs] metrics\n");
    for (const auto& [name, value] : counters) {
      std::fprintf(out, "  counter %-26s %" PRId64 "\n", name.c_str(), value);
    }
    for (const auto& [name, value] : gauges) {
      std::fprintf(out, "  gauge   %-26s %.6g\n", name.c_str(), value);
    }
    for (const auto& [name, snapshot] : histograms) {
      std::fprintf(out,
                   "  hist    %-26s count=%" PRId64
                   " min=%.6g mean=%.6g p50=%.6g p95=%.6g p99=%.6g "
                   "max=%.6g\n",
                   name.c_str(), snapshot.count, snapshot.min, snapshot.mean,
                   snapshot.p50, snapshot.p95, snapshot.p99, snapshot.max);
    }
  }
  const int64_t peak = PeakTensorBytes();
  if (peak > 0) {
    std::fprintf(out, "[sthsl-obs] tensor memory: peak %.2f MB, live %.2f MB\n",
                 static_cast<double>(peak) / 1e6,
                 static_cast<double>(LiveTensorBytes()) / 1e6);
  }
  const int64_t dropped = DroppedTraceEvents();
  if (dropped > 0) {
    std::fprintf(out,
                 "[sthsl-obs] WARNING: %" PRId64 " trace event(s) dropped "
                 "(raise STHSL_TRACE_MAX_EVENTS)\n",
                 dropped);
  }
}

Status WriteChromeTrace(const std::string& path) {
  json::JsonWriter json;
  json.BeginObject().Key("displayTimeUnit").String("ms");
  json.Key("traceEvents").BeginArray();
  json.BeginObject().Key("name").String("process_name").Key("ph").String("M");
  json.Key("ts").Int(0).Key("pid").Int(1).Key("tid").Int(0);
  json.Key("args").BeginObject().Key("name").String("sthsl").EndObject();
  json.EndObject();
  for (const TraceEvent& event : TraceEvents()) {
    json.BeginObject().Key("name").String(event.name);
    json.Key("cat").String(event.category).Key("ph").String("X");
    json.Key("ts").Number(event.ts_us).Key("dur").Number(event.dur_us);
    json.Key("pid").Int(1).Key("tid").Int(event.tid).EndObject();
  }
  json.EndArray().EndObject();
  return WriteJsonFile(path, json.str(), "trace output");
}

void WriteRegistryJson(json::JsonWriter& json) {
  auto& registry = MetricsRegistry::Global();
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : registry.Counters()) {
    json.Key(name).Int(value);
  }
  json.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, value] : registry.Gauges()) {
    json.Key(name).Number(value);
  }
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, s] : registry.Histograms()) {
    json.Key(name).BeginObject().Key("count").Int(s.count);
    json.Key("min").Number(s.min).Key("max").Number(s.max);
    json.Key("mean").Number(s.mean).Key("p50").Number(s.p50);
    json.Key("p95").Number(s.p95).Key("p99").Number(s.p99).EndObject();
  }
  json.EndObject();
}

std::string MetricsJson() {
  json::JsonWriter json;
  json.BeginObject();
  WriteRegistryJson(json);
  json.Key("ops").BeginArray();
  for (const OpProfile& op : SortedOps()) {
    json.BeginObject().Key("name").String(op.name);
    json.Key("forward_calls").Int(op.forward_calls);
    json.Key("forward_us").Number(op.forward_us);
    json.Key("backward_calls").Int(op.backward_calls);
    json.Key("backward_us").Number(op.backward_us);
    json.Key("bytes_touched").Int(op.bytes_touched);
    json.Key("forward_flops").Int(op.forward_flops);
    json.Key("backward_flops").Int(op.backward_flops);
    json.Key("backward_bytes").Int(op.backward_bytes).EndObject();
  }
  json.EndArray().Key("scopes").BeginArray();
  for (const ScopeProfile& scope : SortedScopes()) {
    json.BeginObject().Key("name").String(scope.name);
    json.Key("calls").Int(scope.calls);
    json.Key("total_us").Number(scope.total_us);
    json.Key("busy_us").Number(scope.busy_us);
    json.Key("slices").Int(scope.slices).EndObject();
  }
  json.EndArray().Key("tensor_memory").BeginObject();
  json.Key("live_bytes").Int(LiveTensorBytes());
  json.Key("peak_bytes").Int(PeakTensorBytes()).EndObject();
  json.Key("dropped_trace_events").Int(DroppedTraceEvents()).EndObject();
  return std::move(json).str();
}

Status WriteMetricsJson(const std::string& path) {
  return WriteJsonFile(path, MetricsJson(), "metrics output");
}

}  // namespace sthsl::obs
