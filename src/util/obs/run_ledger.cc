#include "util/obs/run_ledger.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/json_mini.h"

namespace sthsl::obs {
namespace {

/// Compile-time build description for the header record, so a ledger row
/// is attributable to the binary that produced it.
std::string BuildFlags() {
  std::string flags;
#ifdef NDEBUG
  flags += "NDEBUG";
#else
  flags += "DEBUG";
#endif
#if defined(__SANITIZE_ADDRESS__)
  flags += "+asan";
#endif
#if defined(__SANITIZE_THREAD__)
  flags += "+tsan";
#endif
  return flags;
}

}  // namespace

RunLedger& RunLedger::Global() {
  // Leaked on purpose, like the profiler state: usable from atexit paths.
  static RunLedger* ledger = [] {
    auto* instance = new RunLedger();
    if (const char* path = std::getenv("STHSL_RUN_LOG")) {
      instance->SetDefaultPath(path);
    }
    return instance;
  }();
  return *ledger;
}

void RunLedger::SetDefaultPath(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  default_path_ = std::move(path);
}

std::string RunLedger::DefaultPath() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_path_;
}

bool RunLedger::Configured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !default_path_.empty();
}

bool RunLedger::Active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !run_path_.empty();
}

void RunLedger::AppendLineLocked(const std::string& json) {
  std::FILE* file = std::fopen(run_path_.c_str(), "a");
  if (file == nullptr) {
    std::fprintf(stderr, "[sthsl-obs] cannot append to run ledger %s\n",
                 run_path_.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
}

void RunLedger::BeginRun(const RunLedgerHeader& header,
                         const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  run_path_ = path.empty() ? default_path_ : path;
  run_model_.clear();
  run_id_ = 0;
  if (run_path_.empty()) return;
  run_model_ = header.model;
  run_id_ = next_run_id_++;

  json::JsonWriter json;
  json.BeginObject().Key("record").String("header");
  json.Key("schema").Int(kRunLedgerSchemaVersion).Key("run").Int(run_id_);
  json.Key("model").String(header.model);
  json.Key("dataset").BeginObject().Key("city").String(header.dataset_city);
  json.Key("rows").Int(header.dataset_rows);
  json.Key("cols").Int(header.dataset_cols);
  json.Key("days").Int(header.dataset_days);
  json.Key("categories").Int(header.dataset_categories);
  json.Key("generator_seed").Int(header.dataset_generator_seed).EndObject();
  json.Key("train_end").Int(header.train_end);
  json.Key("train_seed").Int(header.train_seed);
  json.Key("build").BeginObject().Key("compiler").String(__VERSION__);
  json.Key("flags").String(BuildFlags()).EndObject();
  json.Key("config").BeginObject();
  for (const auto& [key, value] : header.config) json.Key(key).Raw(value);
  json.EndObject().EndObject();
  AppendLineLocked(json.str());
}

void RunLedger::RecordEpoch(const RunLedgerEpoch& epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (run_path_.empty()) return;
  json::JsonWriter json;
  json.BeginObject().Key("record").String("epoch").Key("run").Int(run_id_);
  json.Key("epoch").Int(epoch.epoch);
  json.Key("loss").Number(epoch.loss).Key("lr").Number(epoch.lr);
  json.Key("epoch_seconds").Number(epoch.epoch_seconds);
  json.Key("windows").Int(epoch.windows);
  json.Key("grad_norm").Number(epoch.grad_norm);
  json.Key("peak_tensor_bytes").Int(epoch.peak_tensor_bytes);
  if (epoch.has_validation) {
    json.Key("validation_mae").Number(epoch.validation_mae);
    json.Key("best_snapshot").Bool(epoch.best_snapshot);
  }
  json.Key("params").BeginArray();
  for (const RunLedgerParamStats& p : epoch.params) {
    json.BeginObject().Key("name").String(p.name).Key("numel").Int(p.numel);
    json.Key("grad_norm").Number(p.grad_norm);
    json.Key("weight_norm").Number(p.weight_norm);
    json.Key("update_ratio").Number(p.update_ratio);
    json.Key("nan_grad_frac").Number(p.nan_grad_frac);
    json.Key("zero_grad_frac").Number(p.zero_grad_frac).EndObject();
  }
  json.EndArray().EndObject();
  AppendLineLocked(json.str());
}

void RunLedger::RecordEvent(const std::string& kind, int64_t epoch,
                            double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (run_path_.empty()) return;
  json::JsonWriter json;
  json.BeginObject().Key("record").String("event").Key("run").Int(run_id_);
  json.Key("kind").String(kind).Key("epoch").Int(epoch);
  if (std::isfinite(value)) json.Key("value").Number(value);
  json.EndObject();
  AppendLineLocked(json.str());
}

void RunLedger::RecordFinalEval(const std::string& model,
                                const std::string& city,
                                const RunLedgerEval& overall,
                                const std::vector<RunLedgerEval>& categories) {
  std::lock_guard<std::mutex> lock(mu_);
  if (run_path_.empty() || model != run_model_) return;
  json::JsonWriter json;
  auto write_eval = [&json](const RunLedgerEval& e) {
    json.BeginObject().Key("name").String(e.name);
    json.Key("mae").Number(e.mae).Key("mape").Number(e.mape);
    json.Key("rmse").Number(e.rmse).Key("entries").Int(e.entries);
    json.EndObject();
  };
  json.BeginObject().Key("record").String("final").Key("run").Int(run_id_);
  json.Key("model").String(model).Key("city").String(city);
  json.Key("overall");
  write_eval(overall);
  json.Key("categories").BeginArray();
  for (const RunLedgerEval& category : categories) write_eval(category);
  json.EndArray().EndObject();
  AppendLineLocked(json.str());
  run_path_.clear();
  run_model_.clear();
  run_id_ = 0;
}

void RunLedger::EndRun() {
  std::lock_guard<std::mutex> lock(mu_);
  run_path_.clear();
  run_model_.clear();
  run_id_ = 0;
}

}  // namespace sthsl::obs
