#ifndef STHSL_UTIL_OBS_EXPORT_H_
#define STHSL_UTIL_OBS_EXPORT_H_

#include <cstdio>
#include <string>

#include "util/json_mini.h"
#include "util/status.h"

namespace sthsl::obs {

/// Exporters over the profiler + metrics registry state. All three run
/// automatically at process exit when tracing is enabled (see obs.h); they
/// can also be invoked directly (benches, tests).

/// Human-readable summary: top ops by total time, phase scopes, metrics.
void PrintObsSummary(std::FILE* out);

/// Writes the event buffer in Chrome trace-event JSON ("ph":"X" complete
/// events, microsecond timestamps) loadable by chrome://tracing / Perfetto.
Status WriteChromeTrace(const std::string& path);

/// Writes the metrics registry + per-op/scope profiles + tensor-memory
/// accounting as one JSON object (consumed by the bench harness and the
/// sthsl_trace_check tool).
Status WriteMetricsJson(const std::string& path);

/// The JSON body WriteMetricsJson writes, for in-process consumers.
std::string MetricsJson();

/// Writes the metrics registry as the "counters", "gauges" and "histograms"
/// members of the object `json` has open. MetricsJson and the serving
/// tier's /metrics JSON both embed it.
void WriteRegistryJson(json::JsonWriter& json);

}  // namespace sthsl::obs

#endif  // STHSL_UTIL_OBS_EXPORT_H_
