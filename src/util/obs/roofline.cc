#include "util/obs/roofline.h"

#include <algorithm>

#include "util/json_mini.h"

namespace sthsl::obs {
double ComputeRoofGflops(const MachinePeaks& peaks, int threads) {
  return peaks.gflops_1t * std::max(threads, 1);
}

RooflineEntry MakeRooflineEntry(std::string name, int64_t calls,
                                int64_t flops, int64_t bytes, double us,
                                const MachinePeaks& peaks, int threads) {
  RooflineEntry entry;
  entry.name = std::move(name);
  entry.calls = calls;
  entry.flops = flops;
  entry.bytes = bytes;
  entry.us = us;
  if (flops <= 0 || bytes <= 0 || us <= 0.0 || !peaks.valid()) return entry;
  entry.intensity = static_cast<double>(flops) / static_cast<double>(bytes);
  entry.achieved_gflops = static_cast<double>(flops) / (us * 1e3);
  entry.achieved_gbps = static_cast<double>(bytes) / (us * 1e3);
  const double compute_roof = ComputeRoofGflops(peaks, threads);
  const double ridge = compute_roof / peaks.gbps_1t;
  entry.compute_bound = entry.intensity >= ridge;
  entry.roof_gflops =
      std::min(compute_roof, entry.intensity * peaks.gbps_1t);
  entry.pct_of_roof = 100.0 * entry.achieved_gflops / entry.roof_gflops;
  return entry;
}

std::vector<RooflineEntry> BuildRoofline(const std::vector<OpProfile>& ops,
                                         const MachinePeaks& peaks,
                                         int threads) {
  std::vector<RooflineEntry> entries;
  for (const auto& op : ops) {
    if (op.forward_flops > 0 && op.forward_us > 0.0) {
      entries.push_back(MakeRooflineEntry(op.name, op.forward_calls,
                                          op.forward_flops, op.bytes_touched,
                                          op.forward_us, peaks, threads));
    }
    if (op.backward_flops > 0 && op.backward_us > 0.0) {
      entries.push_back(MakeRooflineEntry(op.name + ".bwd", op.backward_calls,
                                          op.backward_flops,
                                          op.backward_bytes, op.backward_us,
                                          peaks, threads));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const RooflineEntry& a, const RooflineEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

std::string RooflineJson(const std::vector<RooflineEntry>& entries,
                         const MachinePeaks& peaks, int threads) {
  json::JsonWriter json;
  json.BeginObject().Key("bench").String("roofline");
  json.Key("peaks").BeginObject().Key("cpu_model").String(peaks.cpu_model);
  json.Key("gflops_1t").Number(peaks.gflops_1t);
  json.Key("gbps_1t").Number(peaks.gbps_1t).Key("threads").Int(threads);
  json.Key("compute_roof_gflops").Number(ComputeRoofGflops(peaks, threads));
  json.Key("memory_roof_gbps").Number(peaks.gbps_1t);
  json.Key("calibrated_utc").String(peaks.created_utc);
  json.Key("from_cache").Bool(peaks.from_cache).EndObject();
  json.Key("ops").BeginArray();
  for (const RooflineEntry& e : entries) {
    json.BeginObject().Key("name").String(e.name).Key("calls").Int(e.calls);
    json.Key("flops").Int(e.flops).Key("bytes").Int(e.bytes);
    json.Key("us").Number(e.us).Key("intensity").Number(e.intensity);
    json.Key("achieved_gflops").Number(e.achieved_gflops);
    json.Key("achieved_gbps").Number(e.achieved_gbps);
    json.Key("roof_gflops").Number(e.roof_gflops);
    json.Key("pct_of_roof").Number(e.pct_of_roof);
    json.Key("bound").String(e.compute_bound ? "compute" : "memory");
    json.Key("counters");
    const HwCounterSample& c = e.counters;
    if (!c.valid) {
      json.Null();
    } else {
      json.BeginObject().Key("cycles").Int(c.cycles);
      json.Key("instructions").Int(c.instructions);
      json.Key("l1d_misses").Int(c.l1d_misses);
      json.Key("llc_misses").Int(c.llc_misses);
      json.Key("branch_misses").Int(c.branch_misses).EndObject();
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  return std::move(json).str();
}

}  // namespace sthsl::obs
