// sthsl_report — the one reader of the library's JSON artifacts. It
// aggregates run-ledger JSONL files (and optionally bench JSON dumps) into
// human-readable comparison tables, gates CI on quality/speed regressions
// against a committed baseline, and validates every artifact kind:
//
//   sthsl_report check trace trace.json             # chrome://tracing events
//   sthsl_report check metrics metrics.json         # metrics/op-profile dump
//   sthsl_report check run-log run.jsonl            # experiment run ledger
//   sthsl_report check access-log access.jsonl      # serving access log
//   sthsl_report check roofline BENCH_roofline.json # roofline bench dump
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
//   sthsl_report --selftest                         # embedded samples
//
// `check` exits 0 for a valid file, 1 for an invalid one and 2 on usage
// errors. Each document kind has exactly one parser, so a file `check`
// accepts is a file the renderers and gates accept: ParseLedgerText reads
// every run ledger and ParseRooflineText every BENCH_roofline.json.
//
// A run is one header→final span in a ledger (see src/util/obs/run_ledger.h
// for the writer). The gate compares, per (model, city), the final masked
// test MAE and the mean epoch wall time against the baseline entry and
// fails when either exceeds baseline * (1 + tolerance/100), or when the run
// lacks the number the baseline sets. Missing models fail the gate too — a
// bench that silently stops covering a model must not pass. Deliberately
// dependency-free (no sthsl lib, no third-party JSON): the validators must
// stay trustworthy without linking the library they check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json_mini.h"

namespace {

using sthsl::json::JsonParser;
using sthsl::json::JsonValue;

constexpr JsonValue::Kind kNum = JsonValue::Kind::kNumber;
constexpr JsonValue::Kind kStr = JsonValue::Kind::kString;
constexpr JsonValue::Kind kObj = JsonValue::Kind::kObject;
constexpr JsonValue::Kind kArr = JsonValue::Kind::kArray;
constexpr JsonValue::Kind kNull = JsonValue::Kind::kNull;

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

// -- Trace, metrics and access log (validated only) --------------------------

/// Chrome trace-event format: root object with a "traceEvents" array; every
/// event is an object carrying name/ph (strings), ts/pid/tid (numbers), and
/// a numeric dur for "X" complete events.
bool ValidateTrace(const JsonValue& root) {
  if (!root.Is(kObj)) {
    return Complain("trace root is not an object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->Is(kArr)) {
    return Complain("missing \"traceEvents\" array");
  }
  size_t index = 0;
  for (const JsonValue& event : events->items) {
    ++index;
    if (!event.Is(kObj)) {
      return Complain("traceEvents[" + std::to_string(index - 1) +
                      "] is not an object");
    }
    const JsonValue* name = event.FindOfKind("name", kStr);
    const JsonValue* ph = event.FindOfKind("ph", kStr);
    if (name == nullptr || ph == nullptr ||
        event.FindOfKind("ts", kNum) == nullptr ||
        event.FindOfKind("pid", kNum) == nullptr ||
        event.FindOfKind("tid", kNum) == nullptr) {
      return Complain("event " + std::to_string(index - 1) +
                      " lacks name/ph strings or ts/pid/tid numbers");
    }
    if (ph->text == "X") {
      const JsonValue* dur = event.FindOfKind("dur", kNum);
      if (dur == nullptr || dur->number < 0.0) {
        return Complain("complete event " + std::to_string(index - 1) +
                        " ('" + name->text + "') lacks a non-negative dur");
      }
    }
  }
  std::printf("trace OK: %zu events\n", events->items.size());
  return true;
}

/// A numeric field may legitimately be null (every emitter renders
/// non-finite values as null); everything else must be a number.
bool NumberOrNull(const JsonValue& record, const char* field) {
  const JsonValue* value = record.Find(field);
  return value != nullptr && (value->Is(kNum) || value->Is(kNull));
}

/// Metrics dump: root object with counters/gauges/histograms objects plus an
/// ops array of per-op profiles. Histogram snapshots must carry the full
/// count/min/max/mean/p50/p95/p99 summary: a numeric count, the rest numeric
/// or null.
bool ValidateMetrics(const JsonValue& root) {
  if (!root.Is(kObj)) {
    return Complain("metrics root is not an object");
  }
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const JsonValue* section = root.Find(key);
    if (section == nullptr || !section->Is(kObj)) {
      return Complain(std::string("missing \"") + key + "\" object");
    }
  }
  for (const auto& [name, snapshot] : root.Find("histograms")->members) {
    if (!snapshot.Is(kObj)) {
      return Complain("histogram '" + name + "' is not an object");
    }
    if (snapshot.FindOfKind("count", kNum) == nullptr) {
      return Complain("histogram '" + name + "' lacks numeric \"count\"");
    }
    for (const char* field : {"min", "max", "mean", "p50", "p95", "p99"}) {
      if (!NumberOrNull(snapshot, field)) {
        return Complain("histogram '" + name + "' lacks numeric or null \"" +
                        field + "\"");
      }
    }
  }
  // "ops" is optional: the training exporter always writes it, but the
  // serving tier's /metrics JSON has no autograd profile to report. When
  // present it must still be well-formed.
  const JsonValue* ops = root.Find("ops");
  if (ops != nullptr) {
    if (!ops->Is(kArr)) {
      return Complain("\"ops\" is not an array");
    }
    for (const JsonValue& op : ops->items) {
      if (!op.Is(kObj) || op.Find("name") == nullptr ||
          op.Find("forward_calls") == nullptr) {
        return Complain("ops entry lacks name/forward_calls");
      }
    }
  }
  std::printf("metrics OK: %zu ops, %zu counters, %zu histograms\n",
              ops == nullptr ? 0 : ops->items.size(),
              root.Find("counters")->members.size(),
              root.Find("histograms")->members.size());
  return true;
}

bool IsLowerHexId(const std::string& text, size_t length) {
  if (text.size() != length) return false;
  bool nonzero = false;
  for (char c : text) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
    if (c != '0') nonzero = true;
  }
  return nonzero;
}

/// Serving access log: one JSON object per line with ts/method/path strings,
/// valid non-zero trace_id (32 hex) and span_id (16 hex), numeric
/// status/bytes/total_us, and a stages object of non-negative stage
/// durations whose sum does not exceed total_us. cache_hit/batch_size are
/// optional (predict requests only) but type-checked when present.
bool ValidateAccessLog(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  size_t records = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);
    JsonValue record;
    std::string error;
    if (!JsonParser(line).Parse(&record, &error)) {
      return Complain(where + ": " + error);
    }
    if (!record.Is(kObj)) {
      return Complain(where + ": record is not an object");
    }
    for (const char* field : {"ts", "trace_id", "span_id", "method", "path"}) {
      if (record.FindOfKind(field, kStr) == nullptr) {
        return Complain(where + ": record lacks string \"" +
                        std::string(field) + "\"");
      }
    }
    if (!IsLowerHexId(record.Find("trace_id")->text, 32)) {
      return Complain(where + ": trace_id is not 32 lowercase hex chars "
                      "(non-zero)");
    }
    if (!IsLowerHexId(record.Find("span_id")->text, 16)) {
      return Complain(where + ": span_id is not 16 lowercase hex chars "
                      "(non-zero)");
    }
    for (const char* field : {"status", "bytes", "total_us"}) {
      if (record.FindOfKind(field, kNum) == nullptr) {
        return Complain(where + ": record lacks numeric \"" +
                        std::string(field) + "\"");
      }
    }
    const double total_us = record.Find("total_us")->number;
    if (total_us < 0.0) {
      return Complain(where + ": negative total_us");
    }
    const JsonValue* stages = record.FindOfKind("stages", kObj);
    if (stages == nullptr) {
      return Complain(where + ": record lacks \"stages\" object");
    }
    double stage_sum = 0.0;
    for (const auto& [stage, value] : stages->members) {
      if (!value.Is(kNum) || value.number < 0.0) {
        return Complain(where + ": stage '" + stage +
                        "' is not a non-negative number");
      }
      stage_sum += value.number;
    }
    // Stage durations are disjoint sub-intervals of the request, so their
    // sum is bounded by the total (0.05us slack absorbs %.3f rounding).
    if (stage_sum > total_us + 0.05) {
      return Complain(where + ": stage sum " + std::to_string(stage_sum) +
                      "us exceeds total_us " + std::to_string(total_us));
    }
    const JsonValue* cache_hit = record.Find("cache_hit");
    if (cache_hit != nullptr && !cache_hit->Is(JsonValue::Kind::kBool)) {
      return Complain(where + ": cache_hit is not a boolean");
    }
    const JsonValue* batch_size = record.Find("batch_size");
    if (batch_size != nullptr &&
        (!batch_size->Is(kNum) || batch_size->number < 0.0)) {
      return Complain(where + ": batch_size is not a non-negative number");
    }
    ++records;
  }
  if (records == 0) {
    return Complain("access log contains no records");
  }
  std::printf("access-log OK: %zu record(s)\n", records);
  return true;
}

// -- Run ledger (JSONL) -------------------------------------------------------

bool ValidateLedgerHeader(const JsonValue& record, const std::string& where) {
  if (record.FindOfKind("schema", kNum) == nullptr ||
      record.FindOfKind("run", kNum) == nullptr ||
      record.FindOfKind("model", kStr) == nullptr ||
      record.FindOfKind("train_seed", kNum) == nullptr ||
      record.FindOfKind("config", kObj) == nullptr) {
    return Complain(where + ": header lacks schema/run/model/train_seed/"
                    "config");
  }
  const JsonValue* dataset = record.FindOfKind("dataset", kObj);
  if (dataset == nullptr) {
    return Complain(where + ": header lacks \"dataset\" object");
  }
  for (const char* field : {"rows", "cols", "days", "categories"}) {
    if (dataset->FindOfKind(field, kNum) == nullptr) {
      return Complain(where + ": header dataset lacks numeric \"" +
                      std::string(field) + "\"");
    }
  }
  return true;
}

bool ValidateLedgerEpoch(const JsonValue& record, const std::string& where) {
  for (const char* field : {"run", "epoch", "epoch_seconds", "windows"}) {
    if (record.FindOfKind(field, kNum) == nullptr) {
      return Complain(where + ": epoch record lacks numeric \"" +
                      std::string(field) + "\"");
    }
  }
  for (const char* field : {"loss", "lr", "grad_norm"}) {
    if (!NumberOrNull(record, field)) {
      return Complain(where + ": epoch record lacks \"" + std::string(field) +
                      "\"");
    }
  }
  const JsonValue* params = record.FindOfKind("params", kArr);
  if (params == nullptr) {
    return Complain(where + ": epoch record lacks \"params\" array");
  }
  size_t index = 0;
  for (const JsonValue& param : params->items) {
    ++index;
    if (!param.Is(kObj) || param.FindOfKind("name", kStr) == nullptr) {
      return Complain(where + ": params[" + std::to_string(index - 1) +
                      "] lacks a string \"name\"");
    }
    for (const char* field :
         {"grad_norm", "update_ratio", "nan_grad_frac", "zero_grad_frac"}) {
      if (!NumberOrNull(param, field)) {
        return Complain(where + ": params[" + std::to_string(index - 1) +
                        "] lacks \"" + std::string(field) + "\"");
      }
    }
  }
  return true;
}

bool ValidateLedgerFinal(const JsonValue& record, const std::string& where) {
  if (record.FindOfKind("model", kStr) == nullptr) {
    return Complain(where + ": final record lacks string \"model\"");
  }
  const JsonValue* overall = record.FindOfKind("overall", kObj);
  if (overall == nullptr) {
    return Complain(where + ": final record lacks \"overall\" object");
  }
  for (const char* field : {"mae", "mape"}) {
    if (!NumberOrNull(*overall, field)) {
      return Complain(where + ": final overall lacks \"" + std::string(field) +
                      "\"");
    }
  }
  return true;
}

/// Run ledger: one JSON object per line; records are typed by "record"
/// (header / epoch / event / final). Epoch, event and final records must
/// follow a header in the same file, and at least one header is required.
/// Each header appends a run to `out`; the epoch and final records after it
/// fill in its summary. The first bad record rejects the whole file.
bool ParseLedgerText(const std::string& text, const std::string& source,
                     std::vector<RunSummary>* out) {
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  const size_t first_run = out->size();
  double epoch_seconds_sum = 0.0;
  int64_t epoch_seconds_count = 0;

  const auto finish = [&]() {
    if (out->size() > first_run && epoch_seconds_count > 0) {
      out->back().mean_epoch_seconds =
          epoch_seconds_sum / static_cast<double>(epoch_seconds_count);
    }
  };

  while (std::getline(stream, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = source + " line " + std::to_string(line_no);
    JsonValue record;
    std::string error;
    if (!JsonParser(line).Parse(&record, &error)) {
      return Complain(where + ": " + error);
    }
    if (!record.Is(kObj)) {
      return Complain(where + ": record is not an object");
    }
    const JsonValue* kind_value = record.FindOfKind("record", kStr);
    if (kind_value == nullptr) {
      return Complain(where + ": record lacks a string \"record\" field");
    }
    const std::string& kind = kind_value->text;
    if (kind == "header") {
      if (!ValidateLedgerHeader(record, where)) return false;
      finish();
      RunSummary run;
      run.source = source;
      run.model = record.Find("model")->text;
      run.city = StringOr(*record.Find("dataset"), "city", "?");
      out->push_back(std::move(run));
      epoch_seconds_sum = 0.0;
      epoch_seconds_count = 0;
      continue;
    }
    if (kind != "epoch" && kind != "event" && kind != "final") {
      return Complain(where + ": unknown record type '" + kind + "'");
    }
    if (out->size() == first_run) {
      return Complain(where + ": " + kind + " record before any header");
    }
    RunSummary& run = out->back();
    if (kind == "epoch") {
      if (!ValidateLedgerEpoch(record, where)) return false;
      ++run.epochs;
      run.final_loss = NumberOr(record, "loss", kNan);
      const double seconds = record.Find("epoch_seconds")->number;
      if (std::isfinite(seconds)) {
        epoch_seconds_sum += seconds;
        ++epoch_seconds_count;
      }
      const double val = NumberOr(record, "validation_mae", kNan);
      if (std::isfinite(val) &&
          (!std::isfinite(run.best_val_mae) || val < run.best_val_mae)) {
        run.best_val_mae = val;
      }
    } else if (kind == "event") {
      if (record.FindOfKind("kind", kStr) == nullptr) {
        return Complain(where + ": event record lacks string \"kind\"");
      }
    } else {
      if (!ValidateLedgerFinal(record, where)) return false;
      const JsonValue& overall = *record.Find("overall");
      run.city = StringOr(record, "city", run.city);
      run.test_mae = NumberOr(overall, "mae", kNan);
      run.test_mape = NumberOr(overall, "mape", kNan);
      run.test_rmse = NumberOr(overall, "rmse", kNan);
      run.has_final = true;
    }
  }
  if (out->size() == first_run) {
    return Complain(source + ": run log contains no header record");
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

/// BENCH_roofline.json (src/util/obs/roofline.h writer): a "peaks" object
/// with positive roofs, and a non-empty "ops" array whose entries carry
/// consistent coordinates — intensity must equal flops/bytes (1% relative
/// tolerance), pct_of_roof must land in [0, 120] (a small overshoot absorbs
/// peaks-calibration noise), "bound" must be compute or memory, and counters
/// must be null or an object of numbers >= -1.
bool ParseRooflineText(const std::string& text, const std::string& source,
                       RooflineDoc* out) {
  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error)) {
    return Complain(source + ": " + error);
  }
  if (!root.Is(kObj)) {
    return Complain(source + ": roofline root is not an object");
  }
  if (StringOr(root, "bench", "") != "roofline") {
    return Complain(source + ": missing \"bench\":\"roofline\" marker");
  }
  const JsonValue* peaks = root.FindOfKind("peaks", kObj);
  if (peaks == nullptr) {
    return Complain(source + ": missing \"peaks\" object");
  }
  const std::pair<const char*, double RooflineDoc::*> kPeakFields[] = {
      {"gflops_1t", &RooflineDoc::gflops_1t},
      {"gbps_1t", &RooflineDoc::gbps_1t},
      {"threads", &RooflineDoc::threads},
      {"compute_roof_gflops", &RooflineDoc::compute_roof_gflops},
      {"memory_roof_gbps", &RooflineDoc::memory_roof_gbps}};
  for (const auto& [field, member] : kPeakFields) {
    const double value = NumberOr(*peaks, field, kNan);
    if (!(value > 0.0)) {
      return Complain(source + ": peaks lacks positive numeric \"" +
                      std::string(field) + "\"");
    }
    out->*member = value;
  }
  const JsonValue* cpu_model = peaks->FindOfKind("cpu_model", kStr);
  if (cpu_model == nullptr) {
    return Complain(source + ": peaks lacks string \"cpu_model\"");
  }
  out->source = source;
  out->cpu_model = cpu_model->text;
  const JsonValue* ops = root.FindOfKind("ops", kArr);
  if (ops == nullptr || ops->items.empty()) {
    return Complain(source + ": missing or empty \"ops\" array");
  }
  const std::pair<const char*, double RooflineOp::*> kOpFields[] = {
      {"calls", &RooflineOp::calls},
      {"flops", &RooflineOp::flops},
      {"bytes", &RooflineOp::bytes},
      {"us", &RooflineOp::us},
      {"intensity", &RooflineOp::intensity},
      {"achieved_gflops", &RooflineOp::achieved_gflops},
      {"achieved_gbps", &RooflineOp::achieved_gbps},
      {"roof_gflops", &RooflineOp::roof_gflops},
      {"pct_of_roof", &RooflineOp::pct_of_roof}};
  for (const JsonValue& op : ops->items) {
    const std::string where =
        source + ": ops[" + std::to_string(out->ops.size()) + "]";
    if (!op.Is(kObj)) return Complain(where + " is not an object");
    const JsonValue* name = op.FindOfKind("name", kStr);
    if (name == nullptr) return Complain(where + " lacks string \"name\"");
    RooflineOp row;
    row.name = name->text;
    for (const auto& [field, member] : kOpFields) {
      const double value = NumberOr(op, field, kNan);
      if (!(value >= 0.0)) {
        return Complain(where + " lacks non-negative numeric \"" +
                        std::string(field) + "\"");
      }
      row.*member = value;
    }
    if (row.flops > 0.0 && row.bytes > 0.0) {
      const double expected = row.flops / row.bytes;
      if (std::fabs(row.intensity - expected) > 0.01 * expected) {
        return Complain(where + ": intensity " + std::to_string(row.intensity) +
                        " != flops/bytes " + std::to_string(expected));
      }
    }
    if (row.pct_of_roof > 120.0) {
      return Complain(where + ": pct_of_roof " +
                      std::to_string(row.pct_of_roof) +
                      " exceeds 120 — peaks calibration is inconsistent "
                      "with the cost model");
    }
    row.bound = StringOr(op, "bound", "");
    if (row.bound != "compute" && row.bound != "memory") {
      return Complain(where + ": \"bound\" is not compute|memory");
    }
    const JsonValue* counters = op.Find("counters");
    if (counters == nullptr) {
      return Complain(where + " lacks \"counters\" (object or null)");
    }
    if (counters->Is(kObj)) {
      for (const auto& [counter, value] : counters->members) {
        // Individually-failed events read as -1 while the group stays valid.
        if (!value.Is(kNum) || value.number < -1.0) {
          return Complain(where + ": counter '" + counter +
                          "' is not a number >= -1");
        }
      }
      row.has_counters = true;
      row.cycles = NumberOr(*counters, "cycles", kNan);
      row.instructions = NumberOr(*counters, "instructions", kNan);
      row.l1d_misses = NumberOr(*counters, "l1d_misses", kNan);
      row.llc_misses = NumberOr(*counters, "llc_misses", kNan);
      row.branch_misses = NumberOr(*counters, "branch_misses", kNan);
    } else if (!counters->Is(kNull)) {
      return Complain(where + ": \"counters\" is neither object nor null");
    }
    out->ops.push_back(std::move(row));
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
/// or epoch_seconds skip that comparison; a run that lacks a number its
/// baseline sets fails it.
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
    if (std::isfinite(base_seconds)) {
      const double limit = base_seconds * (1.0 + time_tolerance_pct / 100.0);
      if (!std::isfinite(match->mean_epoch_seconds)) {
        std::printf("GATE FAIL %s/%s: current run has no epoch time\n",
                    model.c_str(), city.c_str());
        ++failures;
      } else if (match->mean_epoch_seconds > limit) {
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

// -- check KIND FILE ----------------------------------------------------------

constexpr const char* kCheckKinds[] = {"trace", "metrics", "run-log",
                                       "access-log", "roofline"};

/// Validates `text` as one artifact kind through that kind's parser and
/// prints its OK line; the first violation goes to stderr. The selftest's
/// extra kind "parse" checks JSON syntax only.
bool CheckText(const std::string& kind, const std::string& text,
               const std::string& source) {
  if (kind == "run-log") {
    std::vector<RunSummary> runs;
    if (!ParseLedgerText(text, source, &runs)) return false;
    size_t epochs = 0;
    size_t finals = 0;
    for (const RunSummary& run : runs) {
      epochs += static_cast<size_t>(run.epochs);
      finals += run.has_final ? 1 : 0;
    }
    std::printf("run-log OK: %zu run(s), %zu epoch record(s), %zu final(s)\n",
                runs.size(), epochs, finals);
    return true;
  }
  if (kind == "roofline") {
    RooflineDoc doc;
    if (!ParseRooflineText(text, source, &doc)) return false;
    std::printf("roofline OK: %zu op(s)\n", doc.ops.size());
    return true;
  }
  if (kind == "access-log") return ValidateAccessLog(text);
  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error)) {
    return Complain(source + ": " + error);
  }
  if (kind == "trace") return ValidateTrace(root);
  if (kind == "metrics") return ValidateMetrics(root);
  return true;
}

// -- Self-test ----------------------------------------------------------------

// Good documents, defined once: the check samples derive their bad
// variants from them, and the render and gate checks read the same ledger
// and roofline.
constexpr const char kGoodLedgerHeader[] =
    R"({"record":"header","schema":1,"run":1,"model":"STHSL",)"
    R"("dataset":{"city":"NYC","rows":3,"cols":3,"days":120,)"
    R"("categories":4,"generator_seed":11},"train_end":90,)"
    R"("train_seed":7,"build":{"compiler":"test","flags":"NDEBUG"},)"
    R"("config":{"window":14,"lr":0.005}})";
constexpr const char kGoodLedgerEpoch[] =
    R"({"record":"epoch","run":1,"epoch":1,"loss":2.0,"lr":0.005,)"
    R"("epoch_seconds":0.1,"windows":32,"grad_norm":3.5,)"
    R"("peak_tensor_bytes":0,"validation_mae":0.9,"best_snapshot":true,)"
    R"("params":[{"name":"head.weight","numel":36,"grad_norm":1.5,)"
    R"("weight_norm":2.0,"update_ratio":0.01,"nan_grad_frac":0,)"
    R"("zero_grad_frac":0.25}]})";
constexpr const char kGoodLedgerFinal[] =
    R"({"record":"final","run":1,"model":"STHSL","city":"NYC",)"
    R"("overall":{"name":"overall","mae":0.5,"mape":0.3,"rmse":0.9,)"
    R"("entries":360},"categories":[]})";
constexpr const char kGoodRoofline[] =
    R"({"bench":"roofline","peaks":{"cpu_model":"TestCPU",)"
    R"("gflops_1t":10,"gbps_1t":5,"threads":4,)"
    R"("compute_roof_gflops":40,"memory_roof_gbps":5,)"
    R"("calibrated_utc":"2026-01-01T00:00:00Z","from_cache":true},)"
    R"("ops":[{"name":"matmul","calls":3,"flops":200000000,)"
    R"("bytes":4000000,"us":50000,"intensity":50,)"
    R"("achieved_gflops":4,"achieved_gbps":0.08,"roof_gflops":40,)"
    R"("pct_of_roof":10,"bound":"compute","counters":{"cycles":)"
    R"(1000,"instructions":2000,"l1d_misses":-1,"llc_misses":5,)"
    R"("branch_misses":1}},{"name":"softmax","calls":3,)"
    R"("flops":327680,"bytes":524288,"us":100,"intensity":0.625,)"
    R"("achieved_gflops":3.2768,"achieved_gbps":5.24288,)"
    R"("roof_gflops":3.125,"pct_of_roof":104.9,"bound":"memory",)"
    R"("counters":null},{"name":"spmm","calls":3,)"
    R"("flops":1000000,"bytes":2000000,"us":1000,"intensity":0.5,)"
    R"("achieved_gflops":1,"achieved_gbps":2,"roof_gflops":2.5,)"
    R"("pct_of_roof":40,"bound":"memory","counters":null},)"
    R"({"name":"spmm.bwd","calls":3,"flops":131072,)"
    R"("bytes":1048576,"us":500,"intensity":0.125,)"
    R"("achieved_gflops":0.262144,"achieved_gbps":2.097152,)"
    R"("roof_gflops":0.625,"pct_of_roof":41.9,"bound":"memory",)"
    R"("counters":null}]})";
constexpr const char kGoodAccessRecord[] =
    R"({"ts":"2026-08-08T12:00:00.123Z",)"
    R"("trace_id":"0af7651916cd43dd8448eb211c80319c",)"
    R"("span_id":"b7ad6b7169203331","method":"POST",)"
    R"("path":"/v1/predict","status":200,"bytes":412,)"
    R"("total_us":184.250,"stages":{"header_parse":3.100,)"
    R"("body_parse":21.000,"cache_lookup":1.500,"queue_wait":50.000,)"
    R"("batch_assembly":2.000,"inference":90.000,"serialize":10.000},)"
    R"("cache_hit":false,"batch_size":4})";

/// Header, two epochs (mean 0.2 s, best validation MAE 0.8), an event and
/// a final record with test MAE 0.5.
std::string GoodLedger() {
  return std::string(kGoodLedgerHeader) + "\n" + kGoodLedgerEpoch + "\n" +
         R"({"record":"epoch","run":1,"epoch":2,"loss":1.0,"lr":0.004,)"
         R"("epoch_seconds":0.3,"windows":32,"grad_norm":2.0,)"
         R"("validation_mae":0.8,"best_snapshot":true,"params":[]})" "\n"
         R"({"record":"event","run":1,"kind":"restore_best","epoch":2,)"
         R"("value":0.8})" "\n" +
         kGoodLedgerFinal + "\n";
}

/// `doc` with the first occurrence of `from` replaced by `to`. A `from`
/// that is absent leaves the good document in place, which the bad-sample
/// checks then report.
std::string With(std::string doc, const std::string& from,
                 const std::string& to) {
  const size_t at = doc.find(from);
  return at == std::string::npos ? doc : doc.replace(at, from.size(), to);
}

int Run(const std::vector<std::string>& args);

int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& label) {
    if (!ok) {
      std::fprintf(stderr, "SELFTEST FAIL: %s\n", label.c_str());
      ++failures;
    }
  };

  // Check samples: every kind's good document and the violations its
  // parser must reject, each through CheckText as `check KIND` runs it.
  struct Sample {
    const char* label;
    const char* kind;  // a kCheckKinds entry, or "parse" for JSON syntax
    std::string json;
    bool expect_ok;
  };
  const std::string access = std::string(kGoodAccessRecord) + "\n";
  const Sample kSamples[] = {
      {"good trace", "trace",
       R"({"displayTimeUnit":"ms","traceEvents":[)"
       R"({"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,)"
       R"("args":{"name":"sthsl"}},)"
       R"({"name":"matmul","cat":"op","ph":"X","ts":1.5,)"
       R"("dur":2.25,"pid":1,"tid":1}]})",
       true},
      {"empty trace", "trace", R"({"traceEvents":[]})", true},
      {"trace missing events key", "trace", R"({"events":[]})", false},
      {"X event without dur", "trace",
       R"({"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]})",
       false},
      {"event with non-string name", "trace",
       R"({"traceEvents":[{"name":3,"ph":"X","ts":0,"dur":1,"pid":1,)"
       R"("tid":1}]})",
       false},
      {"good metrics", "metrics",
       R"({"counters":{"train/epochs":3},"gauges":{},)"
       R"("histograms":{"loss":{"count":2,"min":0.1,"max":0.4,)"
       R"("mean":0.25,"p50":0.1,"p95":0.4,"p99":0.4}},)"
       R"("ops":[{"name":"matmul","forward_calls":10,)"
       R"("forward_us":12.5,"backward_calls":10,"backward_us":20.0,)"
       R"("bytes_touched":4096}],)"
       R"("scopes":[],"tensor_memory":{"live_bytes":0,"peak_bytes":9}})",
       true},
      {"metrics with null (non-finite) fields", "metrics",
       R"({"counters":{},"gauges":{"train/loss":null},)"
       R"("histograms":{"grad_norm":{"count":1,"min":null,"max":null,)"
       R"("mean":null,"p50":null,"p95":null,"p99":null}}})",
       true},
      {"metrics missing histograms", "metrics",
       R"({"counters":{},"gauges":{},"ops":[]})", false},
      {"histogram without min/max", "metrics",
       R"({"counters":{},"gauges":{},"histograms":{"loss":{"count":2,)"
       R"("mean":0.25,"p50":0.1,"p95":0.4,"p99":0.4}},"ops":[]})",
       false},
      {"histogram without p99", "metrics",
       R"({"counters":{},"gauges":{},"histograms":{"loss":{"count":2,)"
       R"("min":0.1,"max":0.4,"mean":0.25,"p50":0.1,"p95":0.4}},)"
       R"("ops":[]})",
       false},
      {"serve metrics without ops", "metrics",
       R"({"counters":{"serve/requests":9},"gauges":{},)"
       R"("histograms":{"serve/latency_us":{"count":9,"min":10,)"
       R"("max":900,"mean":120,"p50":80,"p95":500,"p99":880}},)"
       R"("cache":{"hits":5}})",
       true},
      {"malformed ops entry", "metrics",
       R"({"counters":{},"gauges":{},"histograms":{},)"
       R"("ops":[{"forward_us":1.0}]})",
       false},
      {"good run log", "run-log", GoodLedger(), true},
      {"run log with null loss (non-finite)", "run-log",
       With(With(std::string(kGoodLedgerHeader) + "\n" + kGoodLedgerEpoch,
                 R"("loss":2.0)", R"("loss":null)"),
            R"("grad_norm":3.5)", R"("grad_norm":null)"),
       true},
      {"empty run log", "run-log", "", false},
      {"run log epoch before header", "run-log",
       std::string(kGoodLedgerEpoch) + "\n" + GoodLedger(), false},
      {"run log header missing dataset", "run-log",
       R"({"record":"header","schema":1,"run":1,"model":"m",)"
       R"("train_seed":7,"config":{}})" "\n",
       false},
      {"run log param missing update_ratio", "run-log",
       With(GoodLedger(), R"("update_ratio":0.01,)", ""), false},
      {"run log final missing overall", "run-log",
       std::string(kGoodLedgerHeader) +
           "\n" R"({"record":"final","run":1,"model":"m"})" "\n",
       false},
      {"run log unknown record type", "run-log",
       std::string(kGoodLedgerHeader) + "\n" R"({"record":"bogus"})" "\n",
       false},
      {"run log broken json line", "run-log",
       std::string(kGoodLedgerHeader) + "\n" R"({"record":"epoch",)" "\n",
       false},
      {"good access log", "access-log",
       access +
           R"({"ts":"2026-08-08T12:00:01.000Z",)"
           R"("trace_id":"00000000000000000000000000000001",)"
           R"("span_id":"000000000000000a","method":"GET",)"
           R"("path":"/healthz","status":200,"bytes":64,)"
           R"("total_us":20.5,"stages":{"header_parse":2.0}})" "\n",
       true},
      {"empty access log", "access-log", "", false},
      {"access log bad trace id", "access-log",
       With(access, "0af7651916cd43dd8448eb211c80319c", "XYZ"), false},
      {"access log all-zero span id", "access-log",
       With(access, "b7ad6b7169203331", "0000000000000000"), false},
      {"access log missing stages", "access-log",
       With(access, R"("stages":)", R"("stage_list":)"), false},
      {"access log stage sum exceeds total", "access-log",
       With(access, R"("total_us":184.250)", R"("total_us":10.0)"), false},
      {"access log negative stage", "access-log",
       With(access, R"("inference":90.000)", R"("inference":-1.0)"), false},
      {"access log non-boolean cache_hit", "access-log",
       With(access, R"("cache_hit":false)", R"("cache_hit":1)"), false},
      {"good roofline", "roofline", kGoodRoofline, true},
      {"roofline with empty ops", "roofline",
       R"({"bench":"roofline","peaks":{"cpu_model":"c","gflops_1t":10,)"
       R"("gbps_1t":5,"threads":4,"compute_roof_gflops":40,)"
       R"("memory_roof_gbps":5},"ops":[]})",
       false},
      {"roofline missing peaks", "roofline",
       R"({"bench":"roofline","ops":[{"name":"x"}]})", false},
      {"roofline zero memory roof", "roofline",
       With(kGoodRoofline, R"("memory_roof_gbps":5)",
            R"("memory_roof_gbps":0)"),
       false},
      {"roofline inconsistent intensity", "roofline",
       With(kGoodRoofline, R"("intensity":50)", R"("intensity":7)"), false},
      {"roofline pct over 120", "roofline",
       With(kGoodRoofline, R"("pct_of_roof":10)", R"("pct_of_roof":150)"),
       false},
      {"roofline bad bound verdict", "roofline",
       With(kGoodRoofline, R"("bound":"compute")", R"("bound":"latency")"),
       false},
      {"roofline counters wrong type", "roofline",
       With(kGoodRoofline, R"("counters":null)", R"("counters":7)"), false},
      {"unbalanced braces", "parse", R"({"a":[1,2})", false},
      {"trailing garbage", "parse", "{} {}", false},
      {"escapes and nesting", "parse",
       R"({"s":"line\nbreak \u0041 \"q\"","deep":[[[{"x":null},)"
       R"(true,false,-1.5e-3]]]})",
       true},
  };
  for (const Sample& sample : kSamples) {
    expect(CheckText(sample.kind, sample.json, "<selftest>") ==
               sample.expect_ok,
           std::string(sample.label) + " (expected " +
               (sample.expect_ok ? "ok" : "reject") + ")");
  }

  // Render and gate checks over the same good documents.
  std::vector<RunSummary> runs;
  expect(ParseLedgerText(GoodLedger(), "<selftest>", &runs), "ledger parses");
  expect(runs.size() == 1, "one run extracted");
  if (runs.size() == 1) {
    const RunSummary& run = runs[0];
    expect(run.model == "STHSL" && run.city == "NYC", "model/city extracted");
    expect(run.epochs == 2, "epoch count");
    expect(std::fabs(run.final_loss - 1.0) < 1e-12, "final loss is last epoch");
    expect(std::fabs(run.best_val_mae - 0.8) < 1e-12, "best validation MAE");
    expect(std::fabs(run.mean_epoch_seconds - 0.2) < 1e-12,
           "mean epoch seconds");
    expect(run.has_final && std::fabs(run.test_mae - 0.5) < 1e-12,
           "final test MAE");
  }
  // Each ledger file needs its own header: the runs parsed from an earlier
  // file do not adopt the next file's orphan records.
  std::vector<RunSummary> two_files = runs;
  expect(!ParseLedgerText(std::string(kGoodLedgerEpoch) + "\n" + GoodLedger(),
                          "<selftest>", &two_files),
         "orphan epoch in a second ledger file rejected");

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

  // A run without epoch records has no epoch time; a baseline that sets
  // one must fail, as a run without a final MAE does.
  std::vector<RunSummary> untimed;
  expect(ParseLedgerText(std::string(kGoodLedgerHeader) + "\n" +
                             kGoodLedgerFinal + "\n",
                         "<selftest>", &untimed),
         "header+final ledger parses");
  expect(RunGate(baseline, "<selftest>", untimed, 10.0, 100.0) > 0,
         "gate fails when the current run has no epoch time");

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
  RooflineDoc roofline;
  expect(ParseRooflineText(kGoodRoofline, "<selftest>", &roofline),
         "roofline json parses");
  expect(roofline.ops.size() == 4 && roofline.cpu_model == "TestCPU" &&
             std::fabs(roofline.compute_roof_gflops - 40.0) < 1e-12,
         "roofline peaks extracted");
  expect(roofline.ops.size() == 4 && roofline.ops[2].name == "spmm" &&
             roofline.ops[3].name == "spmm.bwd" &&
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

  // Malformed tolerances, ambiguous roofline gates and unknown check kinds
  // are usage errors (exit 2), caught before any file is opened.
  expect(Run({"--tolerance", "ten", "x.jsonl"}) == 2, "--tolerance ten");
  expect(Run({"--tolerance", "5%", "x.jsonl"}) == 2, "--tolerance 5%");
  expect(Run({"--time-tolerance", "-1", "x.jsonl"}) == 2,
         "negative --time-tolerance");
  expect(Run({"--time-tolerance", "inf", "x.jsonl"}) == 2,
         "infinite --time-tolerance");
  expect(Run({"--roofline", "r.json", "--roofline-tolerance", "100"}) == 2,
         "--roofline-tolerance 100 (a floor of 0 cannot fail)");
  expect(Run({"--roofline", "a.json", "--roofline", "b.json",
              "--gate-roofline", "base.json"}) == 2,
         "--gate-roofline with two --roofline");
  expect(Run({"--roofline", "a.json", "--roofline", "b.json",
              "--emit-roofline-baseline", "base.json"}) == 2,
         "--emit-roofline-baseline with two --roofline");
  expect(Run({"check", "ledger", "x.jsonl"}) == 2, "unknown check kind");
  expect(Run({"check", "trace"}) == 2, "check without a file");
  // A well-formed tolerance gets past option parsing to the missing file.
  expect(Run({"--tolerance", "12.5", "--roofline-tolerance", "99.5",
              "no-such-ledger.jsonl"}) == 1,
         "fractional tolerances accepted");

  if (failures == 0) {
    std::printf("selftest OK: %zu check samples\n",
                sizeof(kSamples) / sizeof(kSamples[0]));
    return 0;
  }
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sthsl_report [options] <ledger.jsonl>...\n"
               "       sthsl_report check trace|metrics|run-log|access-log|"
               "roofline FILE\n"
               "         validate one artifact: exit 0 valid, 1 invalid\n"
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
               "baseline from one --roofline\n"
               "  --gate-roofline FILE   enforce per-op GFLOP/s floors from "
               "a baseline\n"
               "                         against one --roofline; exit 1 on "
               "regression\n"
               "  --roofline-tolerance P allowed GFLOP/s drop %% below "
               "baseline, < 100 (default 50);\n"
               "                         a baseline op's own \"tolerance\" "
               "field overrides it\n"
               "  --selftest             run embedded checks\n");
  return 2;
}

/// Writes `json` and a newline to `path`.
bool WriteLine(const std::string& path, const std::string& json) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Complain("cannot open " + path + " for writing");
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
  return true;
}

/// Parses a percentage option value: the whole string must be a finite
/// number in [0, limit).
bool ParsePercent(const std::string& option, const std::string& text,
                  double limit, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0.0 ||
      value >= limit) {
    return Complain("bad " + option + " '" + text + "'");
  }
  *out = value;
  return true;
}

int Run(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "check") {
    if (args.size() != 3) return Usage();
    for (const char* kind : kCheckKinds) {
      if (args[1] != kind) continue;
      std::string text;
      if (!LoadFile(args[2], &text)) return 1;
      return CheckText(kind, text, args[2]) ? 0 : 1;
    }
    Complain("unknown check kind '" + args[1] + "'");
    return Usage();
  }

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
  const double kUnbounded = std::numeric_limits<double>::infinity();

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--csv") {
      csv = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      ledger_paths.push_back(arg);
      continue;
    }
    if (i + 1 == args.size()) return Usage();
    const std::string& value = args[++i];
    if (arg == "--bench") {
      bench_paths.push_back(value);
    } else if (arg == "--emit-baseline") {
      emit_baseline = value;
    } else if (arg == "--gate") {
      gate_path = value;
    } else if (arg == "--tolerance") {
      if (!ParsePercent(arg, value, kUnbounded, &tolerance)) return Usage();
    } else if (arg == "--time-tolerance") {
      if (!ParsePercent(arg, value, kUnbounded, &time_tolerance)) {
        return Usage();
      }
    } else if (arg == "--roofline") {
      roofline_paths.push_back(value);
    } else if (arg == "--emit-roofline-baseline") {
      emit_roofline_baseline = value;
    } else if (arg == "--gate-roofline") {
      gate_roofline_path = value;
    } else if (arg == "--roofline-tolerance") {
      if (!ParsePercent(arg, value, 100.0, &roofline_tolerance)) {
        return Usage();
      }
    } else {
      Complain("unknown option '" + arg + "'");
      return Usage();
    }
  }
  if (ledger_paths.empty() && bench_paths.empty() && roofline_paths.empty()) {
    return Usage();
  }
  if ((!emit_roofline_baseline.empty() || !gate_roofline_path.empty()) &&
      roofline_paths.size() != 1) {
    Complain("--emit-roofline-baseline and --gate-roofline take exactly one "
             "--roofline FILE");
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
    if (!WriteLine(emit_roofline_baseline,
                   RenderRooflineBaseline(rooflines.front()))) {
      return 1;
    }
    std::fprintf(stderr, "sthsl_report: wrote roofline baseline %s (%zu "
                 "op%s)\n",
                 emit_roofline_baseline.c_str(), rooflines.front().ops.size(),
                 rooflines.front().ops.size() == 1 ? "" : "s");
  }

  if (!emit_baseline.empty()) {
    if (!WriteLine(emit_baseline, RenderBaseline(runs))) return 1;
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
    std::string text;
    if (!LoadFile(gate_roofline_path, &text)) return 1;
    gate_failures += RunRooflineGate(text, gate_roofline_path,
                                     rooflines.front(), roofline_tolerance);
  }
  return gate_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(std::vector<std::string>(argv + 1, argv + argc));
}
