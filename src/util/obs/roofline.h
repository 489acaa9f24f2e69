#ifndef STHSL_UTIL_OBS_ROOFLINE_H_
#define STHSL_UTIL_OBS_ROOFLINE_H_

// Roofline join: combines per-op profiler samples (analytic FLOPs + byte
// traffic + measured wall time), calibrated machine peaks, and optional
// hardware-counter readings into per-op achieved GFLOP/s, GB/s, %-of-roof
// and a compute/memory-bound verdict. Rendered to BENCH_roofline.json by
// bench_kernels, to markdown by `sthsl_report --roofline`, and validated by
// `sthsl_report check roofline`. Methodology: docs/performance.md.

#include <cstdint>
#include <string>
#include <vector>

#include "util/obs/calibrate.h"
#include "util/obs/obs.h"
#include "util/obs/perf_counters.h"

namespace sthsl::obs {

struct RooflineEntry {
  std::string name;
  int64_t calls = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  double us = 0.0;
  /// flops / bytes.
  double intensity = 0.0;
  /// flops / (us · 1e3) and bytes / (us · 1e3).
  double achieved_gflops = 0.0;
  double achieved_gbps = 0.0;
  /// min(compute roof, intensity · memory roof) at the joined thread count.
  double roof_gflops = 0.0;
  /// 100 · achieved_gflops / roof_gflops.
  double pct_of_roof = 0.0;
  /// intensity >= ridge point (compute roof / memory roof): the op could in
  /// principle saturate the ALUs; otherwise it is bandwidth-limited.
  bool compute_bound = false;
  /// Hardware counters attributed to this op's run (valid == false when the
  /// perf_event path is unavailable or the run was not counter-isolated).
  HwCounterSample counters;
};

/// The compute roof in GFLOP/s: single-thread measured peak scaled by the
/// thread count the kernels actually ran with.
double ComputeRoofGflops(const MachinePeaks& peaks, int threads);

/// One entry from raw totals; pure math, unit-testable. Returns an entry
/// with pct_of_roof == 0 when flops, bytes or us are non-positive.
RooflineEntry MakeRooflineEntry(std::string name, int64_t calls,
                                int64_t flops, int64_t bytes, double us,
                                const MachinePeaks& peaks, int threads);

/// Joins profiler snapshots against the peaks: one entry per op with
/// modeled flops and positive duration (forward columns; ops with backward
/// calls additionally get a "<name>.bwd" entry). Ops without a flop model
/// are skipped — a roofline position needs both coordinates.
std::vector<RooflineEntry> BuildRoofline(const std::vector<OpProfile>& ops,
                                         const MachinePeaks& peaks,
                                         int threads);

/// Renders entries + peaks as the BENCH_roofline.json document body.
std::string RooflineJson(const std::vector<RooflineEntry>& entries,
                         const MachinePeaks& peaks, int threads);

}  // namespace sthsl::obs

#endif  // STHSL_UTIL_OBS_ROOFLINE_H_
