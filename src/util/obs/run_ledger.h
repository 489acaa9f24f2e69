#ifndef STHSL_UTIL_OBS_RUN_LEDGER_H_
#define STHSL_UTIL_OBS_RUN_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sthsl::obs {

/// Cross-run experiment log: an append-only JSONL file where every training
/// run streams a header record (model, full training config, dataset and
/// seeds, build flags), one record per epoch (loss, learning rate, global
/// and per-parameter-tensor gradient-flow statistics, validation MAE, wall
/// time, peak tensor bytes), event records (best-snapshot restore, early
/// stop) and a closing final-eval record with the masked test metrics.
///
/// `tools/sthsl_report` aggregates N ledgers into comparison tables and a
/// quality/efficiency regression gate; `sthsl_report check run-log`
/// validates the schema (see docs/observability.md for the record layout).
///
/// Activation: a per-run path (`TrainConfig::run_log`, `sthsl_cli train
/// --run-log`) takes precedence; otherwise the process-default path
/// (STHSL_RUN_LOG env, or SetDefaultPath — the bench harness points it at
/// $STHSL_BENCH_JSON_DIR/LEDGER_<bench>.jsonl) applies. When neither is set
/// the trainer skips all bookkeeping: the disabled path costs one string
/// emptiness check per Fit, keeping the zero-cost-when-off contract of the
/// rest of the obs layer.

/// Record-layout version stamped into every header record; bump on any
/// backwards-incompatible field change.
inline constexpr int kRunLedgerSchemaVersion = 1;

/// Gradient-flow statistics of one parameter tensor, sampled at the last
/// optimizer step of an epoch (after gradient accumulation, before and
/// after the optimizer update).
struct RunLedgerParamStats {
  std::string name;  // Module::NamedParameters() path, e.g. "head.weight"
  int64_t numel = 0;
  double grad_norm = 0.0;    // L2 norm of the accumulated gradient
  double weight_norm = 0.0;  // L2 norm of the weights before the update
  /// ||w_after - w_before|| / (||w_before|| + 1e-12): the update-to-weight
  /// ratio; healthy training sits around 1e-3, ~0 means a dead layer and
  /// >>1e-2 means the layer is being rewritten every step.
  double update_ratio = 0.0;
  double nan_grad_frac = 0.0;   // fraction of non-finite gradient entries
  double zero_grad_frac = 0.0;  // fraction of exactly-zero gradient entries
};

/// Contents of the run-opening header record.
struct RunLedgerHeader {
  std::string model;
  std::string dataset_city;
  int64_t dataset_rows = 0;
  int64_t dataset_cols = 0;
  int64_t dataset_days = 0;
  int64_t dataset_categories = 0;
  /// Seed of the synthetic generator that produced the dataset; -1 when
  /// unknown (e.g. CSV-loaded data that lost the provenance).
  int64_t dataset_generator_seed = -1;
  int64_t train_end = 0;
  uint64_t train_seed = 0;
  /// The full training configuration as pre-rendered JSON key/value pairs
  /// (values are JSON literals, e.g. {"epochs", "15"} or {"cosine_lr",
  /// "true"}). Rendered by the caller so this layer stays independent of
  /// the core layer's TrainConfig type.
  std::vector<std::pair<std::string, std::string>> config;
};

/// Contents of one per-epoch record.
struct RunLedgerEpoch {
  int64_t epoch = 0;  // 1-based
  double loss = 0.0;  // mean per-window training loss of the epoch
  double lr = 0.0;    // learning rate after the schedule, this epoch
  double epoch_seconds = 0.0;
  int64_t windows = 0;     // training windows consumed this epoch
  double grad_norm = 0.0;  // global L2 over all parameters, sampled step
  /// High-water mark of live tensor bytes (0 unless STHSL_TRACE is on —
  /// memory accounting lives on the tracing hooks).
  int64_t peak_tensor_bytes = 0;
  bool has_validation = false;  // a validation pass ran after this epoch
  double validation_mae = 0.0;  // meaningful when has_validation
  bool best_snapshot = false;   // this epoch's validation improved the best
  std::vector<RunLedgerParamStats> params;
};

/// One evaluation figure of the final-eval record.
struct RunLedgerEval {
  std::string name;  // "overall" or a category name
  double mae = 0.0;
  double mape = 0.0;
  double rmse = 0.0;
  int64_t entries = 0;  // evaluated (positive-truth) entries
};

/// The process-wide ledger writer. Thread-safe; records are appended as
/// single JSONL lines and flushed per write, so a crashed run keeps every
/// completed record.
class RunLedger {
 public:
  /// The process-wide instance (leaked singleton; default path initialized
  /// from the STHSL_RUN_LOG environment variable).
  static RunLedger& Global();

  /// Fallback output path for runs that do not name their own ("" disables).
  void SetDefaultPath(std::string path);
  std::string DefaultPath() const;

  /// True when a default path is configured (harness-level check: should
  /// runs started now be ledgered?).
  bool Configured() const;

  /// Opens a run: appends the header record to `path` (falls back to the
  /// default path when empty; no run is opened when both are empty). A
  /// previously open run is superseded.
  void BeginRun(const RunLedgerHeader& header, const std::string& path);

  /// True while a run is open and writable.
  bool Active() const;

  void RecordEpoch(const RunLedgerEpoch& epoch);

  /// Appends an event record ("early_stop", "restore_best", "ema_final").
  /// `epoch` is the 1-based epoch the event refers to; `value` carries the
  /// event's metric (e.g. the best validation MAE) — pass NaN to omit.
  void RecordEvent(const std::string& kind, int64_t epoch, double value);

  /// Appends the final-eval record and closes the run — but only when
  /// `model` matches the open run's model name. EvaluateForecaster calls
  /// this for every forecaster; the guard keeps classical baselines (which
  /// never open runs) from closing a neural model's run.
  void RecordFinalEval(const std::string& model, const std::string& city,
                       const RunLedgerEval& overall,
                       const std::vector<RunLedgerEval>& categories);

  /// Closes the run without a final-eval record.
  void EndRun();

 private:
  void AppendLineLocked(const std::string& json);

  mutable std::mutex mu_;
  std::string default_path_;
  std::string run_path_;   // output file of the open run; empty = no run
  std::string run_model_;  // model name of the open run
  int64_t next_run_id_ = 1;
  int64_t run_id_ = 0;  // id of the open run (0 = none)
};

}  // namespace sthsl::obs

#endif  // STHSL_UTIL_OBS_RUN_LEDGER_H_
