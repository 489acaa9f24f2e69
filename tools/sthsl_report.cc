// sthsl_report — aggregates run-ledger JSONL files (and optionally bench
// JSON dumps) into human-readable comparison tables, and gates CI on
// quality/speed regressions against a committed baseline:
//
//   sthsl_report run1.jsonl run2.jsonl              # markdown table
//   sthsl_report --csv runs/*.jsonl                 # CSV for spreadsheets
//   sthsl_report --bench BENCH_table5_efficiency.json runs/*.jsonl
//   sthsl_report --bench BENCH_serve.json             # serve latency table
//   sthsl_report --emit-baseline base.json runs/*.jsonl
//   sthsl_report --gate base.json --tolerance 10 --time-tolerance 100 \
//                runs/*.jsonl                       # exit 1 on regression
//   sthsl_report --bench BENCH_parallel.json          # thread-scaling table
//   sthsl_report --roofline BENCH_roofline.json       # roofline markdown
//   sthsl_report --roofline BENCH_roofline.json \
//                --gate-roofline bench/roofline_baseline.json \
//                --roofline-tolerance 75             # per-op GFLOP/s floors
//   sthsl_report --selftest
//
// A run is one header→final span in a ledger (see src/util/obs/run_ledger.h
// for the writer). The gate compares, per (model, city), the final masked
// test MAE and the mean epoch wall time against the baseline entry and
// fails when either exceeds baseline * (1 + tolerance/100). Missing models
// fail the gate too — a bench that silently stops covering a model must not
// pass. Dependency-free like sthsl_trace_check: the validators must stay
// trustworthy without linking the library they check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json_mini.h"

namespace {

using sthsl::json::JsonParser;
using sthsl::json::JsonValue;

constexpr JsonValue::Kind kNum = JsonValue::Kind::kNumber;
constexpr JsonValue::Kind kStr = JsonValue::Kind::kString;
constexpr JsonValue::Kind kObj = JsonValue::Kind::kObject;
constexpr JsonValue::Kind kArr = JsonValue::Kind::kArray;

const double kNan = std::nan("");

bool Complain(const std::string& what) {
  std::fprintf(stderr, "sthsl_report: %s\n", what.c_str());
  return false;
}

/// One header→final span of a ledger file, reduced to the comparison row.
struct RunSummary {
  std::string source;  // ledger path (or "<selftest>")
  std::string model;
  std::string city;
  int64_t epochs = 0;
  double final_loss = kNan;         // loss of the last epoch record
  double best_val_mae = kNan;       // min validation_mae across epochs
  double mean_epoch_seconds = kNan;
  double test_mae = kNan;           // masked test metrics from the final
  double test_mape = kNan;          // record; NaN until has_final
  double test_rmse = kNan;
  bool has_final = false;
};

/// Per-model row of a BENCH_table5_efficiency.json dump.
struct BenchModel {
  std::string name;
  double nyc_epoch_seconds = kNan;
  double chi_epoch_seconds = kNan;
};

/// A BENCH_serve.json dump from sthsl_loadgen: run-level totals plus one
/// latency row per histogram (client round-trip first, then the server-
/// reported serve/latency_us and serve/stage/* histograms it scraped).
struct ServeBench {
  struct Row {
    std::string name;
    double count = kNan;
    double mean = kNan;
    double p50 = kNan;
    double p95 = kNan;
    double p99 = kNan;
  };
  std::string source;
  double qps = kNan;
  double requests = kNan;
  double errors = kNan;
  double trace_mismatches = kNan;
  double cache_hits = kNan;
  std::vector<Row> rows;
};

/// One op row of a BENCH_roofline.json dump (see src/util/obs/roofline.h for
/// the writer), counters optional.
struct RooflineOp {
  std::string name;
  double calls = kNan;
  double flops = kNan;
  double bytes = kNan;
  double us = kNan;
  double intensity = kNan;
  double achieved_gflops = kNan;
  double achieved_gbps = kNan;
  double roof_gflops = kNan;
  double pct_of_roof = kNan;
  std::string bound;
  bool has_counters = false;
  double cycles = kNan;
  double instructions = kNan;
  double l1d_misses = kNan;
  double llc_misses = kNan;
  double branch_misses = kNan;
};

struct RooflineDoc {
  std::string source;
  std::string cpu_model;
  double gflops_1t = kNan;
  double gbps_1t = kNan;
  double threads = kNan;
  double compute_roof_gflops = kNan;
  double memory_roof_gbps = kNan;
  std::vector<RooflineOp> ops;
};

/// One kernel of a BENCH_parallel.json thread-scaling dump.
struct ParallelKernel {
  struct Point {
    double threads = kNan;
    double us = kNan;
    double speedup = kNan;
  };
  std::string name;
  double serial_us = kNan;
  std::vector<Point> points;
};

double NumberOr(const JsonValue& record, const char* field, double fallback) {
  const JsonValue* value = record.FindOfKind(field, kNum);
  return value == nullptr ? fallback : value->number;
}

std::string StringOr(const JsonValue& record, const char* field,
                     const std::string& fallback) {
  const JsonValue* value = record.FindOfKind(field, kStr);
  return value == nullptr ? fallback : value->text;
}

// -- Ledger aggregation -------------------------------------------------------

bool ParseLedgerText(const std::string& text, const std::string& source,
                     std::vector<RunSummary>* out) {
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  RunSummary current;
  bool open = false;
  double epoch_seconds_sum = 0.0;
  int64_t epoch_seconds_count = 0;

  const auto finish = [&]() {
    if (!open) return;
    if (epoch_seconds_count > 0) {
      current.mean_epoch_seconds =
          epoch_seconds_sum / static_cast<double>(epoch_seconds_count);
    }
    out->push_back(current);
  };

  while (std::getline(stream, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue record;
    std::string error;
    if (!JsonParser(line).Parse(&record, &error)) {
      return Complain(source + " line " + std::to_string(line_no) + ": " +
                      error);
    }
    const std::string kind = StringOr(record, "record", "");
    if (kind == "header") {
      finish();
      current = RunSummary();
      open = true;
      epoch_seconds_sum = 0.0;
      epoch_seconds_count = 0;
      current.source = source;
      current.model = StringOr(record, "model", "?");
      const JsonValue* dataset = record.FindOfKind("dataset", kObj);
      if (dataset != nullptr) {
        current.city = StringOr(*dataset, "city", "?");
      }
    } else if (kind == "epoch" && open) {
      ++current.epochs;
      current.final_loss = NumberOr(record, "loss", kNan);
      const double seconds = NumberOr(record, "epoch_seconds", kNan);
      if (std::isfinite(seconds)) {
        epoch_seconds_sum += seconds;
        ++epoch_seconds_count;
      }
      const double val = NumberOr(record, "validation_mae", kNan);
      if (std::isfinite(val) &&
          (!std::isfinite(current.best_val_mae) || val < current.best_val_mae)) {
        current.best_val_mae = val;
      }
    } else if (kind == "final" && open) {
      current.city = StringOr(record, "city", current.city);
      const JsonValue* overall = record.FindOfKind("overall", kObj);
      if (overall != nullptr) {
        current.test_mae = NumberOr(*overall, "mae", kNan);
        current.test_mape = NumberOr(*overall, "mape", kNan);
        current.test_rmse = NumberOr(*overall, "rmse", kNan);
        current.has_final = true;
      }
    }
    // "event" records and orphan lines don't affect the summary.
  }
  finish();
  return true;
}

bool LoadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return Complain("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

// -- Bench JSON (table5 format) -----------------------------------------------

ServeBench::Row ServeRow(const std::string& name, const JsonValue& snapshot,
                         double fallback_count) {
  ServeBench::Row row;
  row.name = name;
  row.count = NumberOr(snapshot, "count", fallback_count);
  row.mean = NumberOr(snapshot, "mean", kNan);
  row.p50 = NumberOr(snapshot, "p50", kNan);
  row.p95 = NumberOr(snapshot, "p95", kNan);
  row.p99 = NumberOr(snapshot, "p99", kNan);
  return row;
}

bool ParseServeBench(const JsonValue& root, const std::string& source,
                     std::vector<ServeBench>* out) {
  ServeBench bench;
  bench.source = source;
  bench.qps = NumberOr(root, "qps", kNan);
  bench.requests = NumberOr(root, "requests", kNan);
  bench.errors = NumberOr(root, "errors", kNan);
  bench.trace_mismatches = NumberOr(root, "trace_mismatches", kNan);
  bench.cache_hits = NumberOr(root, "cache_hits", kNan);
  const JsonValue* client = root.FindOfKind("latency_us", kObj);
  if (client == nullptr) {
    return Complain(source + ": missing \"latency_us\" object");
  }
  bench.rows.push_back(ServeRow("client round_trip", *client, bench.requests));
  const JsonValue* server = root.FindOfKind("server", kObj);
  if (server != nullptr) {
    for (const auto& [name, snapshot] : server->members) {
      if (!snapshot.Is(kObj)) continue;
      bench.rows.push_back(ServeRow(name, snapshot, kNan));
    }
  }
  out->push_back(bench);
  return true;
}

bool ParseParallelBench(const JsonValue& root, const std::string& source,
                        std::vector<ParallelKernel>* out) {
  const JsonValue* kernels = root.FindOfKind("kernels", kArr);
  if (kernels == nullptr) {
    return Complain(source + ": missing \"kernels\" array");
  }
  for (const JsonValue& kernel : kernels->items) {
    if (!kernel.Is(kObj)) continue;
    ParallelKernel row;
    row.name = StringOr(kernel, "name", "?");
    row.serial_us = NumberOr(kernel, "serial_us", kNan);
    const JsonValue* threads = kernel.FindOfKind("threads", kArr);
    if (threads != nullptr) {
      for (const JsonValue& point : threads->items) {
        if (!point.Is(kObj)) continue;
        ParallelKernel::Point p;
        p.threads = NumberOr(point, "threads", kNan);
        p.us = NumberOr(point, "us", kNan);
        p.speedup = NumberOr(point, "speedup", kNan);
        row.points.push_back(p);
      }
    }
    out->push_back(row);
  }
  return true;
}

bool ParseBenchText(const std::string& text, const std::string& source,
                    std::vector<BenchModel>* out,
                    std::vector<ServeBench>* serve_out,
                    std::vector<ParallelKernel>* parallel_out) {
  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error)) {
    return Complain(source + ": " + error);
  }
  // sthsl_loadgen dumps identify themselves; a top-level "kernels" array is
  // the bench_kernels thread-scaling dump; anything else must be the table5
  // efficiency format with a "models" array.
  if (root.Is(kObj) &&
      StringOr(root, "benchmark", "") == "sthsl_serve") {
    return ParseServeBench(root, source, serve_out);
  }
  if (root.Is(kObj) && root.FindOfKind("kernels", kArr) != nullptr) {
    return ParseParallelBench(root, source, parallel_out);
  }
  const JsonValue* models =
      root.Is(kObj) ? root.FindOfKind("models", kArr) : nullptr;
  if (models == nullptr) {
    return Complain(source + ": missing \"models\" array");
  }
  for (const JsonValue& model : models->items) {
    if (!model.Is(kObj)) continue;
    BenchModel row;
    row.name = StringOr(model, "name", "?");
    row.nyc_epoch_seconds = NumberOr(model, "nyc_epoch_seconds", kNan);
    row.chi_epoch_seconds = NumberOr(model, "chi_epoch_seconds", kNan);
    out->push_back(row);
  }
  return true;
}

// -- Roofline (BENCH_roofline.json) -------------------------------------------

bool ParseRooflineText(const std::string& text, const std::string& source,
                       RooflineDoc* out) {
  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error)) {
    return Complain(source + ": " + error);
  }
  if (!root.Is(kObj) || StringOr(root, "bench", "") != "roofline") {
    return Complain(source + ": not a BENCH_roofline.json document "
                             "(bench != \"roofline\")");
  }
  out->source = source;
  const JsonValue* peaks = root.FindOfKind("peaks", kObj);
  if (peaks == nullptr) {
    return Complain(source + ": missing \"peaks\" object");
  }
  out->cpu_model = StringOr(*peaks, "cpu_model", "?");
  out->gflops_1t = NumberOr(*peaks, "gflops_1t", kNan);
  out->gbps_1t = NumberOr(*peaks, "gbps_1t", kNan);
  out->threads = NumberOr(*peaks, "threads", kNan);
  out->compute_roof_gflops = NumberOr(*peaks, "compute_roof_gflops", kNan);
  out->memory_roof_gbps = NumberOr(*peaks, "memory_roof_gbps", kNan);
  const JsonValue* ops = root.FindOfKind("ops", kArr);
  if (ops == nullptr) return Complain(source + ": missing \"ops\" array");
  for (const JsonValue& op : ops->items) {
    if (!op.Is(kObj)) continue;
    RooflineOp row;
    row.name = StringOr(op, "name", "?");
    row.calls = NumberOr(op, "calls", kNan);
    row.flops = NumberOr(op, "flops", kNan);
    row.bytes = NumberOr(op, "bytes", kNan);
    row.us = NumberOr(op, "us", kNan);
    row.intensity = NumberOr(op, "intensity", kNan);
    row.achieved_gflops = NumberOr(op, "achieved_gflops", kNan);
    row.achieved_gbps = NumberOr(op, "achieved_gbps", kNan);
    row.roof_gflops = NumberOr(op, "roof_gflops", kNan);
    row.pct_of_roof = NumberOr(op, "pct_of_roof", kNan);
    row.bound = StringOr(op, "bound", "?");
    const JsonValue* counters = op.FindOfKind("counters", kObj);
    if (counters != nullptr) {
      row.has_counters = true;
      row.cycles = NumberOr(*counters, "cycles", kNan);
      row.instructions = NumberOr(*counters, "instructions", kNan);
      row.l1d_misses = NumberOr(*counters, "l1d_misses", kNan);
      row.llc_misses = NumberOr(*counters, "llc_misses", kNan);
      row.branch_misses = NumberOr(*counters, "branch_misses", kNan);
    }
    out->ops.push_back(row);
  }
  return true;
}

// -- Rendering ----------------------------------------------------------------

std::string Cell(double value) {
  if (!std::isfinite(value)) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", value);
  return buf;
}

void PrintMarkdown(const std::vector<RunSummary>& runs) {
  if (runs.empty()) return;  // bench-only invocation
  std::printf("| model | city | epochs | final loss | best val MAE | "
              "epoch s | test MAE | test MAPE | test RMSE |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|\n");
  for (const RunSummary& run : runs) {
    std::printf("| %s | %s | %lld | %s | %s | %s | %s | %s | %s |\n",
                run.model.c_str(), run.city.c_str(),
                static_cast<long long>(run.epochs),
                Cell(run.final_loss).c_str(), Cell(run.best_val_mae).c_str(),
                Cell(run.mean_epoch_seconds).c_str(),
                Cell(run.test_mae).c_str(), Cell(run.test_mape).c_str(),
                Cell(run.test_rmse).c_str());
  }
}

void PrintCsv(const std::vector<RunSummary>& runs) {
  std::printf("model,city,epochs,final_loss,best_val_mae,mean_epoch_seconds,"
              "test_mae,test_mape,test_rmse,source\n");
  for (const RunSummary& run : runs) {
    std::printf("%s,%s,%lld,%s,%s,%s,%s,%s,%s,%s\n", run.model.c_str(),
                run.city.c_str(), static_cast<long long>(run.epochs),
                Cell(run.final_loss).c_str(), Cell(run.best_val_mae).c_str(),
                Cell(run.mean_epoch_seconds).c_str(),
                Cell(run.test_mae).c_str(), Cell(run.test_mape).c_str(),
                Cell(run.test_rmse).c_str(), run.source.c_str());
  }
}

void PrintBench(const std::vector<BenchModel>& bench) {
  if (bench.empty()) return;
  std::printf("\n| model | NYC epoch s | CHI epoch s |\n|---|---|---|\n");
  for (const BenchModel& row : bench) {
    std::printf("| %s | %s | %s |\n", row.name.c_str(),
                Cell(row.nyc_epoch_seconds).c_str(),
                Cell(row.chi_epoch_seconds).c_str());
  }
}

void PrintServeBench(const std::vector<ServeBench>& benches) {
  for (const ServeBench& bench : benches) {
    std::printf("\nserve bench %s: qps %s | requests %s | errors %s | "
                "trace mismatches %s | cache hits %s\n",
                bench.source.c_str(), Cell(bench.qps).c_str(),
                Cell(bench.requests).c_str(), Cell(bench.errors).c_str(),
                Cell(bench.trace_mismatches).c_str(),
                Cell(bench.cache_hits).c_str());
    std::printf("| histogram | count | mean µs | p50 | p95 | p99 |\n"
                "|---|---|---|---|---|---|\n");
    for (const ServeBench::Row& row : bench.rows) {
      std::printf("| %s | %s | %s | %s | %s | %s |\n", row.name.c_str(),
                  Cell(row.count).c_str(), Cell(row.mean).c_str(),
                  Cell(row.p50).c_str(), Cell(row.p95).c_str(),
                  Cell(row.p99).c_str());
    }
  }
}

void PrintParallelBench(const std::vector<ParallelKernel>& kernels) {
  if (kernels.empty()) return;
  std::printf("\nexec thread scaling (best-of-N wall time)\n");
  std::printf("| kernel | threads | µs | speedup |\n|---|---|---|---|\n");
  for (const ParallelKernel& kernel : kernels) {
    for (const ParallelKernel::Point& point : kernel.points) {
      std::printf("| %s | %s | %s | %s |\n", kernel.name.c_str(),
                  Cell(point.threads).c_str(), Cell(point.us).c_str(),
                  Cell(point.speedup).c_str());
    }
  }
}

void PrintRoofline(const RooflineDoc& doc) {
  std::printf("\nroofline %s: cpu %s | %s GFLOP/s x %s threads = %s "
              "compute roof | %s GB/s memory roof\n",
              doc.source.c_str(), doc.cpu_model.c_str(),
              Cell(doc.gflops_1t).c_str(), Cell(doc.threads).c_str(),
              Cell(doc.compute_roof_gflops).c_str(),
              Cell(doc.memory_roof_gbps).c_str());
  std::printf("| op | calls | GFLOP | int | GFLOP/s | GB/s | %%roof | bound "
              "| IPC | LLC miss |\n|---|---|---|---|---|---|---|---|---|---|"
              "\n");
  for (const RooflineOp& op : doc.ops) {
    const double ipc = op.has_counters && op.cycles > 0.0
                           ? op.instructions / op.cycles
                           : kNan;
    std::printf("| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
                op.name.c_str(), Cell(op.calls).c_str(),
                Cell(op.flops / 1e9).c_str(), Cell(op.intensity).c_str(),
                Cell(op.achieved_gflops).c_str(),
                Cell(op.achieved_gbps).c_str(), Cell(op.pct_of_roof).c_str(),
                op.bound.c_str(), Cell(ipc).c_str(),
                Cell(op.llc_misses).c_str());
  }
}

// -- Baseline emit / gate -----------------------------------------------------

/// Gate baselines key on (model, city); MAE comes from the run's final
/// record, epoch_seconds from the mean over its epoch records.
std::string RenderBaseline(const std::vector<RunSummary>& runs) {
  sthsl::json::JsonWriter json;
  json.BeginObject().Key("baseline").String("sthsl_report");
  json.Key("schema").Int(1).Key("entries").BeginArray();
  for (const RunSummary& run : runs) {
    json.BeginObject().Key("model").String(run.model);
    json.Key("city").String(run.city).Key("mae").Number(run.test_mae);
    json.Key("epoch_seconds").Number(run.mean_epoch_seconds).EndObject();
  }
  json.EndArray().EndObject();
  return std::move(json).str();
}

/// Returns the number of gate failures (0 = pass). Baselines with null MAE
/// or epoch_seconds skip that comparison.
int RunGate(const std::string& baseline_text, const std::string& source,
            const std::vector<RunSummary>& runs, double tolerance_pct,
            double time_tolerance_pct) {
  JsonValue root;
  std::string error;
  if (!JsonParser(baseline_text).Parse(&root, &error)) {
    Complain(source + ": " + error);
    return 1;
  }
  const JsonValue* entries =
      root.Is(kObj) ? root.FindOfKind("entries", kArr) : nullptr;
  if (entries == nullptr) {
    Complain(source + ": missing \"entries\" array");
    return 1;
  }
  int failures = 0;
  for (const JsonValue& entry : entries->items) {
    if (!entry.Is(kObj)) continue;
    const std::string model = StringOr(entry, "model", "?");
    const std::string city = StringOr(entry, "city", "?");
    const double base_mae = NumberOr(entry, "mae", kNan);
    const double base_seconds = NumberOr(entry, "epoch_seconds", kNan);
    const RunSummary* match = nullptr;
    for (const RunSummary& run : runs) {  // last match wins
      if (run.model == model && run.city == city) match = &run;
    }
    if (match == nullptr) {
      std::printf("GATE FAIL %s/%s: no current run for baseline entry\n",
                  model.c_str(), city.c_str());
      ++failures;
      continue;
    }
    if (std::isfinite(base_mae)) {
      const double limit = base_mae * (1.0 + tolerance_pct / 100.0);
      if (!std::isfinite(match->test_mae)) {
        std::printf("GATE FAIL %s/%s: current run has no final test MAE\n",
                    model.c_str(), city.c_str());
        ++failures;
      } else if (match->test_mae > limit) {
        std::printf("GATE FAIL %s/%s: MAE %.6g > %.6g (baseline %.6g "
                    "+%.3g%%)\n",
                    model.c_str(), city.c_str(), match->test_mae, limit,
                    base_mae, tolerance_pct);
        ++failures;
      } else {
        std::printf("GATE ok   %s/%s: MAE %.6g <= %.6g\n", model.c_str(),
                    city.c_str(), match->test_mae, limit);
      }
    }
    if (std::isfinite(base_seconds) &&
        std::isfinite(match->mean_epoch_seconds)) {
      const double limit = base_seconds * (1.0 + time_tolerance_pct / 100.0);
      if (match->mean_epoch_seconds > limit) {
        std::printf("GATE FAIL %s/%s: epoch %.4gs > %.4gs (baseline %.4gs "
                    "+%.3g%%)\n",
                    model.c_str(), city.c_str(), match->mean_epoch_seconds,
                    limit, base_seconds, time_tolerance_pct);
        ++failures;
      } else {
        std::printf("GATE ok   %s/%s: epoch %.4gs <= %.4gs\n", model.c_str(),
                    city.c_str(), match->mean_epoch_seconds, limit);
      }
    }
  }
  if (failures == 0) {
    std::printf("gate OK: %zu baseline entr%s within tolerance\n",
                entries->items.size(),
                entries->items.size() == 1 ? "y" : "ies");
  }
  return failures;
}

/// Roofline baselines key on op name and store the achieved GFLOP/s of the
/// emitting run; the gate applies its tolerance as a floor, so machine drift
/// between the committing host and CI is absorbed by --roofline-tolerance.
std::string RenderRooflineBaseline(const RooflineDoc& doc) {
  sthsl::json::JsonWriter json;
  json.BeginObject().Key("baseline").String("sthsl_report_roofline");
  json.Key("schema").Int(1).Key("cpu_model").String(doc.cpu_model);
  json.Key("ops").BeginArray();
  for (const RooflineOp& op : doc.ops) {
    if (!std::isfinite(op.achieved_gflops)) continue;
    json.BeginObject().Key("name").String(op.name);
    json.Key("gflops").Number(op.achieved_gflops).EndObject();
  }
  json.EndArray().EndObject();
  return std::move(json).str();
}

/// Per-op achieved-GFLOP/s floor gate: every baseline op must be present in
/// the current roofline report at >= baseline * (1 - tolerance/100). A
/// baseline entry may carry its own "tolerance" field to tighten (or relax)
/// the global --roofline-tolerance for that op: the high-arithmetic-intensity
/// kernels (matmul, conv2d) run long enough to be stable on shared runners,
/// so their rows hold a tighter floor than the noisy sub-millisecond ops.
/// Returns the number of failures (0 = pass).
int RunRooflineGate(const std::string& baseline_text, const std::string& source,
                    const RooflineDoc& doc, double tolerance_pct) {
  JsonValue root;
  std::string error;
  if (!JsonParser(baseline_text).Parse(&root, &error)) {
    Complain(source + ": " + error);
    return 1;
  }
  const JsonValue* ops = root.Is(kObj) ? root.FindOfKind("ops", kArr) : nullptr;
  if (ops == nullptr) {
    Complain(source + ": missing \"ops\" array");
    return 1;
  }
  int failures = 0;
  for (const JsonValue& entry : ops->items) {
    if (!entry.Is(kObj)) continue;
    const std::string name = StringOr(entry, "name", "?");
    const double base_gflops = NumberOr(entry, "gflops", kNan);
    if (!std::isfinite(base_gflops)) continue;
    double op_tolerance = NumberOr(entry, "tolerance", tolerance_pct);
    if (!std::isfinite(op_tolerance)) op_tolerance = tolerance_pct;
    const RooflineOp* match = nullptr;
    for (const RooflineOp& op : doc.ops) {
      if (op.name == name) match = &op;
    }
    if (match == nullptr) {
      std::printf("ROOFLINE GATE FAIL %s: op missing from current report\n",
                  name.c_str());
      ++failures;
      continue;
    }
    const double floor = base_gflops * (1.0 - op_tolerance / 100.0);
    if (!std::isfinite(match->achieved_gflops) ||
        match->achieved_gflops < floor) {
      std::printf("ROOFLINE GATE FAIL %s: %.6g GFLOP/s < %.6g (baseline "
                  "%.6g -%.3g%%)\n",
                  name.c_str(), match->achieved_gflops, floor, base_gflops,
                  op_tolerance);
      ++failures;
    } else {
      std::printf("ROOFLINE GATE ok   %s: %.6g GFLOP/s >= %.6g\n",
                  name.c_str(), match->achieved_gflops, floor);
    }
  }
  if (failures == 0) {
    std::printf("roofline gate OK: %zu op floor%s held\n", ops->items.size(),
                ops->items.size() == 1 ? "" : "s");
  }
  return failures;
}

// -- Self-test ----------------------------------------------------------------

constexpr const char kSelfTestLedger[] =
    R"({"record":"header","schema":1,"run":1,"model":"STHSL",)"
    R"("dataset":{"city":"NYC-small","rows":3,"cols":3,"days":120,)"
    R"("categories":4,"generator_seed":11},"train_end":90,)"
    R"("train_seed":7,"config":{}})" "\n"
    R"({"record":"epoch","run":1,"epoch":1,"loss":2.0,"lr":0.005,)"
    R"("epoch_seconds":0.1,"windows":32,"grad_norm":3.0,"params":[]})" "\n"
    R"({"record":"epoch","run":1,"epoch":2,"loss":1.0,"lr":0.004,)"
    R"("epoch_seconds":0.3,"windows":32,"grad_norm":2.0,)"
    R"("validation_mae":0.8,"best_snapshot":true,"params":[]})" "\n"
    R"({"record":"event","run":1,"kind":"restore_best","epoch":2,)"
    R"("value":0.8})" "\n"
    R"({"record":"final","run":1,"model":"STHSL","city":)"
    R"("NYC-small","overall":{"name":"overall","mae":0.5,)"
    R"("mape":0.3,"rmse":0.9,"entries":360},"categories":[]})" "\n";

int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* label) {
    if (!ok) {
      std::fprintf(stderr, "SELFTEST FAIL: %s\n", label);
      ++failures;
    }
  };

  std::vector<RunSummary> runs;
  expect(ParseLedgerText(kSelfTestLedger, "<selftest>", &runs),
         "ledger parses");
  expect(runs.size() == 1, "one run extracted");
  if (runs.size() == 1) {
    const RunSummary& run = runs[0];
    expect(run.model == "STHSL" && run.city == "NYC-small",
           "model/city extracted");
    expect(run.epochs == 2, "epoch count");
    expect(std::fabs(run.final_loss - 1.0) < 1e-12, "final loss is last epoch");
    expect(std::fabs(run.best_val_mae - 0.8) < 1e-12, "best validation MAE");
    expect(std::fabs(run.mean_epoch_seconds - 0.2) < 1e-12,
           "mean epoch seconds");
    expect(run.has_final && std::fabs(run.test_mae - 0.5) < 1e-12,
           "final test MAE");
  }

  // Baseline round-trip: a gate against a self-emitted baseline passes.
  const std::string baseline = RenderBaseline(runs);
  expect(RunGate(baseline, "<selftest>", runs, 10.0, 100.0) == 0,
         "gate passes against own baseline");

  // Injected 20% MAE regression must fail a 10% gate.
  std::vector<RunSummary> regressed = runs;
  if (!regressed.empty()) regressed[0].test_mae *= 1.2;
  expect(RunGate(baseline, "<selftest>", regressed, 10.0, 100.0) > 0,
         "gate fails on 20% MAE regression at 10% tolerance");
  expect(RunGate(baseline, "<selftest>", regressed, 30.0, 100.0) == 0,
         "gate passes 20% regression at 30% tolerance");

  // A slower run must fail the time gate.
  std::vector<RunSummary> slower = runs;
  if (!slower.empty()) slower[0].mean_epoch_seconds *= 3.0;
  expect(RunGate(baseline, "<selftest>", slower, 10.0, 100.0) > 0,
         "gate fails on 3x epoch-time regression at 100% tolerance");

  // A missing model must fail the gate.
  const std::vector<RunSummary> empty;
  expect(RunGate(baseline, "<selftest>", empty, 10.0, 100.0) > 0,
         "gate fails when the baseline model has no current run");

  // Bench JSON parsing (table5 format).
  std::vector<BenchModel> bench;
  std::vector<ServeBench> serve_bench;
  std::vector<ParallelKernel> parallel;
  expect(ParseBenchText(R"({"bench":"table5_efficiency","models":[)"
                        R"({"name":"STGCN","nyc_epoch_seconds":0.5,)"
                        R"("chi_epoch_seconds":0.4,"ops":[]}]})",
                        "<selftest>", &bench, &serve_bench, &parallel),
         "bench json parses");
  expect(bench.size() == 1 && bench[0].name == "STGCN" &&
             std::fabs(bench[0].nyc_epoch_seconds - 0.5) < 1e-12,
         "bench model extracted");
  std::vector<BenchModel> bad_bench;
  expect(!ParseBenchText(R"({"bench":"x"})", "<selftest>", &bad_bench,
                         &serve_bench, &parallel),
         "bench json without models rejected");

  // Thread-scaling bench parsing (bench_kernels BENCH_parallel format).
  expect(ParseBenchText(
             R"({"hardware_threads": 8,"kernels": [{"name": )"
             R"("gemm_nn_256", "serial_us": 1000.0, "threads": [)"
             R"({"threads": 1, "us": 1000.0, "speedup": 1.0},)"
             R"({"threads": 4, "us": 300.0, "speedup": 3.333}]}]})",
             "<selftest>", &bench, &serve_bench, &parallel),
         "parallel bench json parses");
  expect(parallel.size() == 1 && parallel[0].name == "gemm_nn_256" &&
             parallel[0].points.size() == 2 &&
             std::fabs(parallel[0].points[1].speedup - 3.333) < 1e-9,
         "parallel kernel rows extracted");

  // Roofline parsing, baseline round-trip and gate.
  const char kRooflineSample[] =
      R"({"bench":"roofline","peaks":{"cpu_model":"TestCPU",)"
      R"("gflops_1t":10,"gbps_1t":5,"threads":4,)"
      R"("compute_roof_gflops":40,"memory_roof_gbps":5,)"
      R"("calibrated_utc":"2026-01-01T00:00:00Z","from_cache":false},)"
      R"("ops":[{"name":"matmul","calls":3,"flops":200000000,)"
      R"("bytes":4000000,"us":50000,"intensity":50,)"
      R"("achieved_gflops":4,"achieved_gbps":0.08,"roof_gflops":40,)"
      R"("pct_of_roof":10,"bound":"compute","counters":{"cycles":)"
      R"(1000,"instructions":2000,"l1d_misses":10,"llc_misses":5,)"
      R"("branch_misses":1}},{"name":"softmax","calls":3,)"
      R"("flops":327680,"bytes":524288,"us":100,"intensity":0.625,)"
      R"("achieved_gflops":3.2768,"achieved_gbps":5.24288,)"
      R"("roof_gflops":3.125,"pct_of_roof":104.9,"bound":"memory",)"
      R"("counters":null},{"name":"spmm","calls":3,)"
      R"("flops":1000000,"bytes":2000000,"us":1000,"intensity":0.5,)"
      R"("achieved_gflops":1,"achieved_gbps":2,"roof_gflops":2.5,)"
      R"("pct_of_roof":40,"bound":"memory","counters":null},)"
      R"({"name":"gather.bwd","calls":3,"flops":131072,)"
      R"("bytes":1048576,"us":500,"intensity":0.125,)"
      R"("achieved_gflops":0.262144,"achieved_gbps":2.097152,)"
      R"("roof_gflops":0.625,"pct_of_roof":41.9,"bound":"memory",)"
      R"("counters":null}]})";
  RooflineDoc roofline;
  expect(ParseRooflineText(kRooflineSample, "<selftest>", &roofline),
         "roofline json parses");
  expect(roofline.ops.size() == 4 && roofline.cpu_model == "TestCPU" &&
             std::fabs(roofline.compute_roof_gflops - 40.0) < 1e-12,
         "roofline peaks extracted");
  expect(roofline.ops.size() == 4 && roofline.ops[2].name == "spmm" &&
             roofline.ops[3].name == "gather.bwd" &&
             std::fabs(roofline.ops[2].intensity - 0.5) < 1e-12,
         "sparse-kernel roofline rows extracted");
  expect(roofline.ops.size() == 4 && roofline.ops[0].has_counters &&
             std::fabs(roofline.ops[0].cycles - 1000.0) < 1e-12 &&
             !roofline.ops[1].has_counters,
         "roofline counters extracted, null counters skipped");
  RooflineDoc bad_roofline;
  expect(!ParseRooflineText(R"({"bench":"roofline"})", "<selftest>",
                            &bad_roofline),
         "roofline without peaks rejected");

  const std::string roofline_baseline = RenderRooflineBaseline(roofline);
  expect(RunRooflineGate(roofline_baseline, "<selftest>", roofline, 10.0) ==
             0,
         "roofline gate passes against own baseline");
  RooflineDoc slower_roofline = roofline;
  slower_roofline.ops[0].achieved_gflops *= 0.5;
  expect(RunRooflineGate(roofline_baseline, "<selftest>", slower_roofline,
                         10.0) > 0,
         "roofline gate fails on 2x GFLOP/s regression at 10% tolerance");
  expect(RunRooflineGate(roofline_baseline, "<selftest>", slower_roofline,
                         60.0) == 0,
         "roofline gate passes 2x regression at 60% tolerance");
  RooflineDoc missing_roofline = roofline;
  missing_roofline.ops.erase(missing_roofline.ops.begin());
  expect(RunRooflineGate(roofline_baseline, "<selftest>", missing_roofline,
                         10.0) > 0,
         "roofline gate fails when a baseline op disappears");
  // A per-op "tolerance" field tightens the floor for that op only.
  const char kPerOpBaseline[] =
      R"({"baseline":"sthsl_report_roofline","schema":1,"ops":[)"
      R"({"name":"matmul","gflops":4,"tolerance":10},)"
      R"({"name":"softmax","gflops":3.2768}]})";
  expect(RunRooflineGate(kPerOpBaseline, "<selftest>", roofline, 60.0) == 0,
         "per-op tolerance passes at baseline performance");
  expect(RunRooflineGate(kPerOpBaseline, "<selftest>", slower_roofline,
                         60.0) > 0,
         "tight per-op floor fails a 2x regression the global would allow");

  // Serve bench parsing (sthsl_loadgen format): client latency plus the
  // server-side histograms scraped from /metrics, p99 included.
  expect(ParseBenchText(
             R"({"benchmark":"sthsl_serve","connections":2,)"
             R"("seconds":1.5,"requests":300,"errors":0,)"
             R"("trace_mismatches":0,"cache_hits":250,"qps":200,)"
             R"("latency_us":{"mean":90,"p50":80,"p95":200,)"
             R"("p99":400},"server":{"serve/latency_us":{"count":300,)"
             R"("mean":60,"p50":50,"p95":150,"p99":350},)"
             R"("serve/stage/inference_us":{"count":50,"mean":40,)"
             R"("p50":35,"p95":90,"p99":120}}})",
             "<selftest>", &bench, &serve_bench, &parallel),
         "serve bench json parses");
  expect(serve_bench.size() == 1, "one serve bench extracted");
  if (serve_bench.size() == 1) {
    const ServeBench& serve = serve_bench[0];
    expect(std::fabs(serve.qps - 200.0) < 1e-12 &&
               std::fabs(serve.trace_mismatches) < 1e-12,
           "serve bench totals extracted");
    expect(serve.rows.size() == 3, "client + 2 server histogram rows");
    expect(serve.rows.size() == 3 &&
               serve.rows[0].name == "client round_trip" &&
               std::fabs(serve.rows[0].p99 - 400.0) < 1e-12 &&
               std::fabs(serve.rows[0].count - 300.0) < 1e-12,
           "client row carries p99 and falls back to request count");
    expect(serve.rows.size() == 3 &&
               serve.rows[2].name == "serve/stage/inference_us" &&
               std::fabs(serve.rows[2].p99 - 120.0) < 1e-12,
           "server stage row carries p99");
  }
  std::vector<ServeBench> bad_serve;
  expect(!ParseBenchText(R"({"benchmark":"sthsl_serve","qps":1})",
                         "<selftest>", &bench, &bad_serve, &parallel),
         "serve bench without latency_us rejected");

  if (failures == 0) {
    std::printf("selftest OK\n");
    return 0;
  }
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sthsl_report [options] <ledger.jsonl>...\n"
               "  --csv                  emit CSV instead of markdown\n"
               "  --bench FILE           include a BENCH_*.json table "
               "(table5 epoch times or\n"
               "                         sthsl_loadgen serve latency; "
               "repeatable)\n"
               "  --emit-baseline FILE   write a gate baseline from the "
               "aggregated runs\n"
               "  --gate FILE            compare runs against a baseline; "
               "exit 1 on regression\n"
               "  --tolerance P          allowed MAE regression %% "
               "(default 10)\n"
               "  --time-tolerance P     allowed epoch-seconds regression %% "
               "(default 50)\n"
               "  --roofline FILE        render a BENCH_roofline.json report "
               "as markdown\n"
               "  --emit-roofline-baseline FILE\n"
               "                         write per-op achieved-GFLOP/s "
               "baseline from --roofline\n"
               "  --gate-roofline FILE   enforce per-op GFLOP/s floors from "
               "a baseline\n"
               "                         against --roofline; exit 1 on "
               "regression\n"
               "  --roofline-tolerance P allowed GFLOP/s drop %% below "
               "baseline (default 50);\n"
               "                         a baseline op's own \"tolerance\" "
               "field overrides it\n"
               "  --selftest             run embedded checks\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  std::vector<std::string> ledger_paths;
  std::vector<std::string> bench_paths;
  std::vector<std::string> roofline_paths;
  std::string emit_baseline;
  std::string gate_path;
  std::string emit_roofline_baseline;
  std::string gate_roofline_path;
  double tolerance = 10.0;
  double time_tolerance = 50.0;
  double roofline_tolerance = 50.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") return SelfTest();
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--bench") {
      const char* value = next();
      if (value == nullptr) return Usage();
      bench_paths.push_back(value);
    } else if (arg == "--emit-baseline") {
      const char* value = next();
      if (value == nullptr) return Usage();
      emit_baseline = value;
    } else if (arg == "--gate") {
      const char* value = next();
      if (value == nullptr) return Usage();
      gate_path = value;
    } else if (arg == "--tolerance") {
      const char* value = next();
      if (value == nullptr) return Usage();
      tolerance = std::atof(value);
    } else if (arg == "--time-tolerance") {
      const char* value = next();
      if (value == nullptr) return Usage();
      time_tolerance = std::atof(value);
    } else if (arg == "--roofline") {
      const char* value = next();
      if (value == nullptr) return Usage();
      roofline_paths.push_back(value);
    } else if (arg == "--emit-roofline-baseline") {
      const char* value = next();
      if (value == nullptr) return Usage();
      emit_roofline_baseline = value;
    } else if (arg == "--gate-roofline") {
      const char* value = next();
      if (value == nullptr) return Usage();
      gate_roofline_path = value;
    } else if (arg == "--roofline-tolerance") {
      const char* value = next();
      if (value == nullptr) return Usage();
      roofline_tolerance = std::atof(value);
    } else if (arg.rfind("--", 0) == 0) {
      Complain("unknown option '" + arg + "'");
      return Usage();
    } else {
      ledger_paths.push_back(arg);
    }
  }
  if (ledger_paths.empty() && bench_paths.empty() && roofline_paths.empty()) {
    return Usage();
  }

  std::vector<RunSummary> runs;
  for (const std::string& path : ledger_paths) {
    std::string text;
    if (!LoadFile(path, &text)) return 1;
    if (!ParseLedgerText(text, path, &runs)) return 1;
  }
  std::vector<BenchModel> bench;
  std::vector<ServeBench> serve_bench;
  std::vector<ParallelKernel> parallel;
  for (const std::string& path : bench_paths) {
    std::string text;
    if (!LoadFile(path, &text)) return 1;
    if (!ParseBenchText(text, path, &bench, &serve_bench, &parallel)) {
      return 1;
    }
  }
  std::vector<RooflineDoc> rooflines;
  for (const std::string& path : roofline_paths) {
    std::string text;
    RooflineDoc doc;
    if (!LoadFile(path, &text)) return 1;
    if (!ParseRooflineText(text, path, &doc)) return 1;
    rooflines.push_back(std::move(doc));
  }

  if (csv) {
    PrintCsv(runs);
  } else {
    PrintMarkdown(runs);
    PrintBench(bench);
    PrintServeBench(serve_bench);
    PrintParallelBench(parallel);
    for (const RooflineDoc& doc : rooflines) PrintRoofline(doc);
  }

  if (!emit_roofline_baseline.empty()) {
    if (rooflines.empty()) {
      Complain("--emit-roofline-baseline requires --roofline FILE");
      return 1;
    }
    std::FILE* file = std::fopen(emit_roofline_baseline.c_str(), "w");
    if (file == nullptr) {
      Complain("cannot open " + emit_roofline_baseline + " for writing");
      return 1;
    }
    const std::string json = RenderRooflineBaseline(rooflines.front());
    std::fwrite(json.data(), 1, json.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::fprintf(stderr, "sthsl_report: wrote roofline baseline %s (%zu "
                 "op%s)\n",
                 emit_roofline_baseline.c_str(), rooflines.front().ops.size(),
                 rooflines.front().ops.size() == 1 ? "" : "s");
  }

  if (!emit_baseline.empty()) {
    std::FILE* file = std::fopen(emit_baseline.c_str(), "w");
    if (file == nullptr) {
      Complain("cannot open " + emit_baseline + " for writing");
      return 1;
    }
    const std::string json = RenderBaseline(runs);
    std::fwrite(json.data(), 1, json.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::fprintf(stderr, "sthsl_report: wrote baseline %s (%zu entr%s)\n",
                 emit_baseline.c_str(), runs.size(),
                 runs.size() == 1 ? "y" : "ies");
  }

  int gate_failures = 0;
  if (!gate_path.empty()) {
    std::string text;
    if (!LoadFile(gate_path, &text)) return 1;
    gate_failures += RunGate(text, gate_path, runs, tolerance, time_tolerance);
  }
  if (!gate_roofline_path.empty()) {
    if (rooflines.empty()) {
      Complain("--gate-roofline requires --roofline FILE");
      return 1;
    }
    std::string text;
    if (!LoadFile(gate_roofline_path, &text)) return 1;
    gate_failures += RunRooflineGate(text, gate_roofline_path,
                                     rooflines.front(), roofline_tolerance);
  }
  return gate_failures == 0 ? 0 : 1;
}
