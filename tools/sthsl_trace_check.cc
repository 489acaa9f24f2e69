// sthsl_trace_check — standalone validator for the observability layer's
// JSON artifacts, used by CI after a traced training run:
//
//   sthsl_trace_check trace   trace.json        # chrome://tracing events
//   sthsl_trace_check metrics metrics.json      # metrics/op-profile dump
//   sthsl_trace_check run-log run.jsonl         # experiment run ledger
//   sthsl_trace_check access-log access.jsonl   # serving access log
//   sthsl_trace_check roofline BENCH_roofline.json  # roofline bench dump
//   sthsl_trace_check --selftest                # embedded good/bad samples
//
// Exits 0 when the file parses as JSON and has the expected structure,
// 1 otherwise. Deliberately dependency-free (no sthsl lib, no third-party
// JSON): the tiny recursive-descent parser in json_mini.h is enough to
// assert structure.

#include <cmath>
#include <cstdio>
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

// -- Structure validators -----------------------------------------------------

bool Complain(const std::string& what) {
  std::fprintf(stderr, "sthsl_trace_check: %s\n", what.c_str());
  return false;
}

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
  return value != nullptr &&
         (value->Is(kNum) || value->Is(JsonValue::Kind::kNull));
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

// -- Roofline bench validation ------------------------------------------------

bool NonNegativeNumber(const JsonValue& record, const char* field) {
  const JsonValue* value = record.FindOfKind(field, kNum);
  return value != nullptr && value->number >= 0.0;
}

/// BENCH_roofline.json (src/util/obs/roofline.h writer): a "peaks" object
/// with positive roofs, and a non-empty "ops" array whose entries carry
/// consistent coordinates — intensity must equal flops/bytes (1% relative
/// tolerance), pct_of_roof must land in [0, 120] (a small overshoot absorbs
/// peaks-calibration noise), "bound" must be compute or memory, and counters
/// must be null or an object of non-negative numbers.
bool ValidateRoofline(const JsonValue& root) {
  if (!root.Is(kObj)) {
    return Complain("roofline root is not an object");
  }
  const JsonValue* bench = root.FindOfKind("bench", kStr);
  if (bench == nullptr || bench->text != "roofline") {
    return Complain("missing \"bench\":\"roofline\" marker");
  }
  const JsonValue* peaks = root.FindOfKind("peaks", kObj);
  if (peaks == nullptr) {
    return Complain("missing \"peaks\" object");
  }
  for (const char* field :
       {"gflops_1t", "gbps_1t", "threads", "compute_roof_gflops",
        "memory_roof_gbps"}) {
    const JsonValue* value = peaks->FindOfKind(field, kNum);
    if (value == nullptr || value->number <= 0.0) {
      return Complain("peaks lacks positive numeric \"" + std::string(field) +
                      "\"");
    }
  }
  if (peaks->FindOfKind("cpu_model", kStr) == nullptr) {
    return Complain("peaks lacks string \"cpu_model\"");
  }
  const JsonValue* ops = root.FindOfKind("ops", kArr);
  if (ops == nullptr || ops->items.empty()) {
    return Complain("missing or empty \"ops\" array");
  }
  size_t index = 0;
  for (const JsonValue& op : ops->items) {
    const std::string where = "ops[" + std::to_string(index++) + "]";
    if (!op.Is(kObj)) return Complain(where + " is not an object");
    if (op.FindOfKind("name", kStr) == nullptr) {
      return Complain(where + " lacks string \"name\"");
    }
    for (const char* field :
         {"calls", "flops", "bytes", "us", "intensity", "achieved_gflops",
          "achieved_gbps", "roof_gflops", "pct_of_roof"}) {
      if (!NonNegativeNumber(op, field)) {
        return Complain(where + " lacks non-negative numeric \"" +
                        std::string(field) + "\"");
      }
    }
    const double flops = op.Find("flops")->number;
    const double bytes = op.Find("bytes")->number;
    const double intensity = op.Find("intensity")->number;
    if (flops > 0.0 && bytes > 0.0) {
      const double expected = flops / bytes;
      if (std::fabs(intensity - expected) > 0.01 * expected) {
        return Complain(where + ": intensity " + std::to_string(intensity) +
                        " != flops/bytes " + std::to_string(expected));
      }
    }
    const double pct = op.Find("pct_of_roof")->number;
    if (pct > 120.0) {
      return Complain(where + ": pct_of_roof " + std::to_string(pct) +
                      " exceeds 120 — peaks calibration is inconsistent "
                      "with the cost model");
    }
    const JsonValue* bound = op.FindOfKind("bound", kStr);
    if (bound == nullptr ||
        (bound->text != "compute" && bound->text != "memory")) {
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
    } else if (!counters->Is(JsonValue::Kind::kNull)) {
      return Complain(where + ": \"counters\" is neither object nor null");
    }
  }
  std::printf("roofline OK: %zu op(s)\n", ops->items.size());
  return true;
}

// -- Run-ledger (JSONL) validation --------------------------------------------

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
/// (header / epoch / event / final). Epoch, event, and final records must
/// follow a header for the same file, and at least one header is required.
bool ValidateRunLog(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  size_t headers = 0;
  size_t epochs = 0;
  size_t finals = 0;
  bool in_run = false;
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
    const JsonValue* kind = record.FindOfKind("record", kStr);
    if (kind == nullptr) {
      return Complain(where + ": record lacks a string \"record\" field");
    }
    if (kind->text == "header") {
      if (!ValidateLedgerHeader(record, where)) return false;
      ++headers;
      in_run = true;
    } else if (kind->text == "epoch") {
      if (!in_run) return Complain(where + ": epoch record before any header");
      if (!ValidateLedgerEpoch(record, where)) return false;
      ++epochs;
    } else if (kind->text == "event") {
      if (!in_run) return Complain(where + ": event record before any header");
      if (record.FindOfKind("kind", kStr) == nullptr) {
        return Complain(where + ": event record lacks string \"kind\"");
      }
    } else if (kind->text == "final") {
      if (!in_run) return Complain(where + ": final record before any header");
      if (!ValidateLedgerFinal(record, where)) return false;
      ++finals;
    } else {
      return Complain(where + ": unknown record type '" + kind->text + "'");
    }
  }
  if (headers == 0) {
    return Complain("run log contains no header record");
  }
  std::printf("run-log OK: %zu run(s), %zu epoch record(s), %zu final(s)\n",
              headers, epochs, finals);
  return true;
}

// -- Access-log (JSONL) validation --------------------------------------------

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

int CheckFile(const std::string& mode, const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    Complain("cannot open " + path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  if (mode == "run-log") return ValidateRunLog(text) ? 0 : 1;
  if (mode == "access-log") return ValidateAccessLog(text) ? 0 : 1;

  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error)) {
    Complain(path + ": " + error);
    return 1;
  }
  if (mode == "trace") return ValidateTrace(root) ? 0 : 1;
  if (mode == "metrics") return ValidateMetrics(root) ? 0 : 1;
  if (mode == "roofline") return ValidateRoofline(root) ? 0 : 1;
  Complain("unknown mode '" + mode + "'");
  return 1;
}

// -- Self-test ----------------------------------------------------------------

// Ledger sample fragments (kept out of the table for readability).
constexpr const char kGoodLedgerHeader[] =
    "{\"record\":\"header\",\"schema\":1,\"run\":1,\"model\":\"STHSL\","
    "\"dataset\":{\"city\":\"NYC\",\"rows\":3,\"cols\":3,\"days\":120,"
    "\"categories\":4,\"generator_seed\":11},\"train_end\":90,"
    "\"train_seed\":7,\"build\":{\"compiler\":\"test\",\"flags\":\"NDEBUG\"},"
    "\"config\":{\"window\":14,\"lr\":0.005}}";
constexpr const char kGoodLedgerEpoch[] =
    "{\"record\":\"epoch\",\"run\":1,\"epoch\":1,\"loss\":1.25,\"lr\":0.005,"
    "\"epoch_seconds\":0.07,\"windows\":32,\"grad_norm\":3.5,"
    "\"peak_tensor_bytes\":0,\"validation_mae\":0.9,\"best_snapshot\":true,"
    "\"params\":[{\"name\":\"head.weight\",\"numel\":36,\"grad_norm\":1.5,"
    "\"weight_norm\":2.0,\"update_ratio\":0.01,\"nan_grad_frac\":0,"
    "\"zero_grad_frac\":0.25}]}";
constexpr const char kGoodAccessRecord[] =
    "{\"ts\":\"2026-08-08T12:00:00.123Z\","
    "\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
    "\"span_id\":\"b7ad6b7169203331\",\"method\":\"POST\","
    "\"path\":\"/v1/predict\",\"status\":200,\"bytes\":412,"
    "\"total_us\":184.250,\"stages\":{\"header_parse\":3.100,"
    "\"body_parse\":21.000,\"cache_lookup\":1.500,\"queue_wait\":50.000,"
    "\"batch_assembly\":2.000,\"inference\":90.000,\"serialize\":10.000},"
    "\"cache_hit\":false,\"batch_size\":4}";
constexpr const char kGoodLedgerFinal[] =
    "{\"record\":\"final\",\"run\":1,\"model\":\"STHSL\",\"city\":\"NYC\","
    "\"overall\":{\"name\":\"overall\",\"mae\":0.43,\"mape\":0.3,"
    "\"rmse\":0.9,\"entries\":360},\"categories\":[]}";

int SelfTest() {
  struct Sample {
    const char* label;
    const char* mode;  // "trace", "metrics", "run-log", "roofline" or "parse"
    std::string json;
    bool expect_ok;
  };
  const Sample kSamples[] = {
      {"good trace", "trace",
       "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
       "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"sthsl\"}},"
       "{\"name\":\"matmul\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":1.5,"
       "\"dur\":2.25,\"pid\":1,\"tid\":1}]}",
       true},
      {"empty trace", "trace", "{\"traceEvents\":[]}", true},
      {"trace missing events key", "trace", "{\"events\":[]}", false},
      {"X event without dur", "trace",
       "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,"
       "\"tid\":1}]}",
       false},
      {"event with non-string name", "trace",
       "{\"traceEvents\":[{\"name\":3,\"ph\":\"X\",\"ts\":0,\"dur\":1,"
       "\"pid\":1,\"tid\":1}]}",
       false},
      {"good metrics", "metrics",
       "{\"counters\":{\"train/epochs\":3},\"gauges\":{},"
       "\"histograms\":{\"loss\":{\"count\":2,\"min\":0.1,\"max\":0.4,"
       "\"mean\":0.25,\"p50\":0.1,\"p95\":0.4,\"p99\":0.4}},"
       "\"ops\":[{\"name\":\"matmul\",\"forward_calls\":10,"
       "\"forward_us\":12.5,\"backward_calls\":10,\"backward_us\":20.0,"
       "\"bytes_touched\":4096}],"
       "\"scopes\":[],\"tensor_memory\":{\"live_bytes\":0,\"peak_bytes\":9}}",
       true},
      {"metrics with null (non-finite) fields", "metrics",
       R"({"counters":{},"gauges":{"train/loss":null},)"
       R"("histograms":{"grad_norm":{"count":1,"min":null,"max":null,)"
       R"("mean":null,"p50":null,"p95":null,"p99":null}}})",
       true},
      {"metrics missing histograms", "metrics",
       "{\"counters\":{},\"gauges\":{},\"ops\":[]}", false},
      {"histogram without min/max", "metrics",
       "{\"counters\":{},\"gauges\":{},"
       "\"histograms\":{\"loss\":{\"count\":2,\"mean\":0.25,\"p50\":0.1,"
       "\"p95\":0.4,\"p99\":0.4}},\"ops\":[]}",
       false},
      {"histogram without p99", "metrics",
       "{\"counters\":{},\"gauges\":{},"
       "\"histograms\":{\"loss\":{\"count\":2,\"min\":0.1,\"max\":0.4,"
       "\"mean\":0.25,\"p50\":0.1,\"p95\":0.4}},\"ops\":[]}",
       false},
      {"serve metrics without ops", "metrics",
       "{\"counters\":{\"serve/requests\":9},\"gauges\":{},"
       "\"histograms\":{\"serve/latency_us\":{\"count\":9,\"min\":10,"
       "\"max\":900,\"mean\":120,\"p50\":80,\"p95\":500,\"p99\":880}},"
       "\"cache\":{\"hits\":5}}",
       true},
      {"malformed ops entry", "metrics",
       "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
       "\"ops\":[{\"forward_us\":1.0}]}",
       false},
      {"good run log", "run-log",
       std::string(kGoodLedgerHeader) + "\n" + kGoodLedgerEpoch + "\n" +
           "{\"record\":\"event\",\"run\":1,\"kind\":\"early_stop\","
           "\"epoch\":2,\"value\":0.9}\n" +
           kGoodLedgerFinal + "\n",
       true},
      {"run log with null loss (non-finite)", "run-log",
       std::string(kGoodLedgerHeader) +
           "\n{\"record\":\"epoch\",\"run\":1,\"epoch\":1,\"loss\":null,"
           "\"lr\":0.005,\"epoch_seconds\":0.07,\"windows\":32,"
           "\"grad_norm\":null,\"peak_tensor_bytes\":0,\"params\":[]}\n",
       true},
      {"empty run log", "run-log", "", false},
      {"run log epoch before header", "run-log",
       std::string(kGoodLedgerEpoch) + "\n", false},
      {"run log header missing dataset", "run-log",
       "{\"record\":\"header\",\"schema\":1,\"run\":1,\"model\":\"m\","
       "\"train_seed\":7,\"config\":{}}\n",
       false},
      {"run log param missing update_ratio", "run-log",
       std::string(kGoodLedgerHeader) +
           "\n{\"record\":\"epoch\",\"run\":1,\"epoch\":1,\"loss\":1,"
           "\"lr\":0.005,\"epoch_seconds\":0.07,\"windows\":32,"
           "\"grad_norm\":1,\"params\":[{\"name\":\"w\",\"grad_norm\":1,"
           "\"nan_grad_frac\":0,\"zero_grad_frac\":0}]}\n",
       false},
      {"run log final missing overall", "run-log",
       std::string(kGoodLedgerHeader) +
           "\n{\"record\":\"final\",\"run\":1,\"model\":\"m\"}\n",
       false},
      {"run log unknown record type", "run-log",
       std::string(kGoodLedgerHeader) + "\n{\"record\":\"bogus\"}\n", false},
      {"run log broken json line", "run-log",
       std::string(kGoodLedgerHeader) + "\n{\"record\":\"epoch\",\n", false},
      {"good access log", "access-log",
       std::string(kGoodAccessRecord) + "\n" +
           "{\"ts\":\"2026-08-08T12:00:01.000Z\","
           "\"trace_id\":\"00000000000000000000000000000001\","
           "\"span_id\":\"000000000000000a\",\"method\":\"GET\","
           "\"path\":\"/healthz\",\"status\":200,\"bytes\":64,"
           "\"total_us\":20.5,\"stages\":{\"header_parse\":2.0}}\n",
       true},
      {"empty access log", "access-log", "", false},
      {"access log bad trace id", "access-log",
       "{\"ts\":\"t\",\"trace_id\":\"XYZ\",\"span_id\":\"b7ad6b7169203331\","
       "\"method\":\"GET\",\"path\":\"/\",\"status\":200,\"bytes\":1,"
       "\"total_us\":1.0,\"stages\":{}}\n",
       false},
      {"access log all-zero span id", "access-log",
       "{\"ts\":\"t\",\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
       "\"span_id\":\"0000000000000000\",\"method\":\"GET\",\"path\":\"/\","
       "\"status\":200,\"bytes\":1,\"total_us\":1.0,\"stages\":{}}\n",
       false},
      {"access log missing stages", "access-log",
       "{\"ts\":\"t\",\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
       "\"span_id\":\"b7ad6b7169203331\",\"method\":\"GET\",\"path\":\"/\","
       "\"status\":200,\"bytes\":1,\"total_us\":1.0}\n",
       false},
      {"access log stage sum exceeds total", "access-log",
       "{\"ts\":\"t\",\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
       "\"span_id\":\"b7ad6b7169203331\",\"method\":\"POST\","
       "\"path\":\"/v1/predict\",\"status\":200,\"bytes\":1,"
       "\"total_us\":10.0,\"stages\":{\"inference\":8.0,\"queue_wait\":7.0}}"
       "\n",
       false},
      {"access log negative stage", "access-log",
       "{\"ts\":\"t\",\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
       "\"span_id\":\"b7ad6b7169203331\",\"method\":\"POST\","
       "\"path\":\"/v1/predict\",\"status\":200,\"bytes\":1,"
       "\"total_us\":10.0,\"stages\":{\"inference\":-1.0}}\n",
       false},
      {"access log non-boolean cache_hit", "access-log",
       std::string("{\"ts\":\"t\","
                   "\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
                   "\"span_id\":\"b7ad6b7169203331\",\"method\":\"POST\","
                   "\"path\":\"/v1/predict\",\"status\":200,\"bytes\":1,"
                   "\"total_us\":10.0,\"stages\":{},\"cache_hit\":1}\n"),
       false},
      {"good roofline", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"TestCPU\","
       "\"gflops_1t\":10,\"gbps_1t\":5,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":5,"
       "\"calibrated_utc\":\"2026-01-01T00:00:00Z\",\"from_cache\":true},"
       "\"ops\":[{\"name\":\"matmul\",\"calls\":3,\"flops\":200000000,"
       "\"bytes\":4000000,\"us\":50000,\"intensity\":50,"
       "\"achieved_gflops\":4,\"achieved_gbps\":0.08,\"roof_gflops\":40,"
       "\"pct_of_roof\":10,\"bound\":\"compute\",\"counters\":{\"cycles\":"
       "100,\"instructions\":200,\"l1d_misses\":-1,\"llc_misses\":5,"
       "\"branch_misses\":1}},{\"name\":\"softmax\",\"calls\":3,"
       "\"flops\":327680,\"bytes\":524288,\"us\":100,\"intensity\":0.625,"
       "\"achieved_gflops\":3.2768,\"achieved_gbps\":5.24288,"
       "\"roof_gflops\":3.125,\"pct_of_roof\":104.9,\"bound\":\"memory\","
       "\"counters\":null},{\"name\":\"spmm\",\"calls\":3,"
       "\"flops\":1000000,\"bytes\":2000000,\"us\":1000,\"intensity\":0.5,"
       "\"achieved_gflops\":1,\"achieved_gbps\":2,\"roof_gflops\":2.5,"
       "\"pct_of_roof\":40,\"bound\":\"memory\",\"counters\":null},"
       "{\"name\":\"gather.bwd\",\"calls\":3,\"flops\":131072,"
       "\"bytes\":1048576,\"us\":500,\"intensity\":0.125,"
       "\"achieved_gflops\":0.262144,\"achieved_gbps\":2.097152,"
       "\"roof_gflops\":0.625,\"pct_of_roof\":41.9,\"bound\":\"memory\","
       "\"counters\":null}]}",
       true},
      {"roofline with empty ops", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"c\","
       "\"gflops_1t\":10,\"gbps_1t\":5,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":5},\"ops\":[]}",
       false},
      {"roofline missing peaks", "roofline",
       "{\"bench\":\"roofline\",\"ops\":[{\"name\":\"x\"}]}", false},
      {"roofline zero memory roof", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"c\","
       "\"gflops_1t\":10,\"gbps_1t\":0,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":0},"
       "\"ops\":[{\"name\":\"x\"}]}",
       false},
      {"roofline inconsistent intensity", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"c\","
       "\"gflops_1t\":10,\"gbps_1t\":5,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":5},"
       "\"ops\":[{\"name\":\"x\",\"calls\":1,\"flops\":100,\"bytes\":100,"
       "\"us\":1,\"intensity\":7,\"achieved_gflops\":0.1,"
       "\"achieved_gbps\":0.1,\"roof_gflops\":5,\"pct_of_roof\":2,"
       "\"bound\":\"memory\",\"counters\":null}]}",
       false},
      {"roofline pct over 120", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"c\","
       "\"gflops_1t\":10,\"gbps_1t\":5,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":5},"
       "\"ops\":[{\"name\":\"x\",\"calls\":1,\"flops\":100,\"bytes\":100,"
       "\"us\":1,\"intensity\":1,\"achieved_gflops\":0.1,"
       "\"achieved_gbps\":0.1,\"roof_gflops\":5,\"pct_of_roof\":150,"
       "\"bound\":\"memory\",\"counters\":null}]}",
       false},
      {"roofline bad bound verdict", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"c\","
       "\"gflops_1t\":10,\"gbps_1t\":5,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":5},"
       "\"ops\":[{\"name\":\"x\",\"calls\":1,\"flops\":100,\"bytes\":100,"
       "\"us\":1,\"intensity\":1,\"achieved_gflops\":0.1,"
       "\"achieved_gbps\":0.1,\"roof_gflops\":5,\"pct_of_roof\":2,"
       "\"bound\":\"latency\",\"counters\":null}]}",
       false},
      {"roofline counters wrong type", "roofline",
       "{\"bench\":\"roofline\",\"peaks\":{\"cpu_model\":\"c\","
       "\"gflops_1t\":10,\"gbps_1t\":5,\"threads\":4,"
       "\"compute_roof_gflops\":40,\"memory_roof_gbps\":5},"
       "\"ops\":[{\"name\":\"x\",\"calls\":1,\"flops\":100,\"bytes\":100,"
       "\"us\":1,\"intensity\":1,\"achieved_gflops\":0.1,"
       "\"achieved_gbps\":0.1,\"roof_gflops\":5,\"pct_of_roof\":2,"
       "\"bound\":\"memory\",\"counters\":7}]}",
       false},
      {"unbalanced braces", "parse", "{\"a\":[1,2}", false},
      {"trailing garbage", "parse", "{} {}", false},
      {"escapes and nesting", "parse",
       "{\"s\":\"line\\nbreak \\u0041 \\\"q\\\"\",\"deep\":[[[{\"x\":null},"
       "true,false,-1.5e-3]]]}",
       true},
  };

  int failures = 0;
  for (const Sample& sample : kSamples) {
    bool ok = false;
    std::string error;
    if (std::strcmp(sample.mode, "run-log") == 0) {
      ok = ValidateRunLog(sample.json);
    } else if (std::strcmp(sample.mode, "access-log") == 0) {
      ok = ValidateAccessLog(sample.json);
    } else {
      JsonValue root;
      ok = JsonParser(sample.json).Parse(&root, &error);
      if (ok && std::strcmp(sample.mode, "trace") == 0) {
        ok = ValidateTrace(root);
      } else if (ok && std::strcmp(sample.mode, "metrics") == 0) {
        ok = ValidateMetrics(root);
      } else if (ok && std::strcmp(sample.mode, "roofline") == 0) {
        ok = ValidateRoofline(root);
      }
    }
    if (ok != sample.expect_ok) {
      std::fprintf(stderr, "SELFTEST FAIL: %s (expected %s, got %s%s%s)\n",
                   sample.label, sample.expect_ok ? "ok" : "reject",
                   ok ? "ok" : "reject", error.empty() ? "" : ": ",
                   error.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("selftest OK: %zu samples\n",
                sizeof(kSamples) / sizeof(kSamples[0]));
    return 0;
  }
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sthsl_trace_check trace <file>\n"
               "       sthsl_trace_check metrics <file>\n"
               "       sthsl_trace_check run-log <file>\n"
               "       sthsl_trace_check access-log <file>\n"
               "       sthsl_trace_check roofline <file>\n"
               "       sthsl_trace_check --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return SelfTest();
  if (argc != 3) return Usage();
  std::string mode = argv[1];
  // Accept the flag spelling too (`--run-log FILE` etc.).
  if (mode.rfind("--", 0) == 0) mode = mode.substr(2);
  return CheckFile(mode, argv[2]);
}
