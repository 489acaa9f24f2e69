// Reproduces Table V: computational time cost per training epoch for the
// efficiency-study subset of models on both cities.
//
// Absolute numbers are CPU seconds at the active scale (the paper used a
// GTX 1080Ti); the shape to verify is the relative ordering: plain
// convolutional models (STGCN) cheapest, recurrent/attention-heavy models
// (DCRNN, STDN) most expensive, ST-HSL in the middle of the pack.
//
// With STHSL_TRACE=1 the per-op profiler additionally attributes each
// model's wall time to individual tensor ops, and the breakdown is printed
// per model and embedded in BENCH_table5_efficiency.json (written when
// STHSL_BENCH_JSON_DIR is set).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "util/json_mini.h"
#include "util/obs/obs.h"
#include "util/obs/run_ledger.h"
#include "util/timer.h"

namespace sthsl::bench {
namespace {

double MeanEpochSeconds(Forecaster& model, const CityBenchmark& city) {
  model.Fit(city.data, city.train_end);
  const auto epochs = model.EpochSeconds();
  if (epochs.empty()) return 0.0;
  return std::accumulate(epochs.begin(), epochs.end(), 0.0) /
         static_cast<double>(epochs.size());
}

/// Op profiles of the current model run, heaviest (forward + backward) first.
std::vector<obs::OpProfile> TopOps() {
  std::vector<obs::OpProfile> ops = obs::OpProfiles();
  std::sort(ops.begin(), ops.end(),
            [](const obs::OpProfile& a, const obs::OpProfile& b) {
              return a.forward_us + a.backward_us >
                     b.forward_us + b.backward_us;
            });
  return ops;
}

void PrintTopOps(const std::vector<obs::OpProfile>& ops) {
  const size_t shown = std::min<size_t>(ops.size(), 6);
  for (size_t i = 0; i < shown; ++i) {
    const obs::OpProfile& op = ops[i];
    std::printf("    %-16s calls %-7lld fwd %9.0fus  bwd %9.0fus\n",
                op.name.c_str(), static_cast<long long>(op.forward_calls),
                op.forward_us, op.backward_us);
  }
}

void WriteOpsJson(const std::vector<obs::OpProfile>& ops,
                  json::JsonWriter& json) {
  json.BeginArray();
  const size_t shown = std::min<size_t>(ops.size(), 12);
  for (size_t i = 0; i < shown; ++i) {
    const obs::OpProfile& op = ops[i];
    json.BeginObject().Key("name").String(op.name);
    json.Key("forward_calls").Int(op.forward_calls);
    json.Key("forward_us").Number(op.forward_us);
    json.Key("backward_calls").Int(op.backward_calls);
    json.Key("backward_us").Number(op.backward_us);
    json.Key("forward_flops").Int(op.forward_flops);
    json.Key("backward_flops").Int(op.backward_flops);
    json.Key("bytes_touched").Int(op.bytes_touched);
    json.Key("backward_bytes").Int(op.backward_bytes);
    const int64_t total_bytes = op.bytes_touched + op.backward_bytes;
    const double intensity =
        total_bytes > 0
            ? static_cast<double>(op.forward_flops + op.backward_flops) /
                  static_cast<double>(total_bytes)
            : 0.0;
    json.Key("intensity").Number(intensity).EndObject();
  }
  json.EndArray();
}

void Run() {
  std::printf("Table V reproduction: per-epoch training time (seconds)\n");
  ConfigureRunLedger("table5_efficiency");
  const bool ledgered = obs::RunLedger::Global().Configured();
  ComparisonConfig config = BenchComparisonConfig();
  // A short run suffices to time epochs.
  config.baseline.train.epochs = 3;
  config.sthsl.train.epochs = 3;
  config.baseline.train.validation_days = 0;
  config.sthsl.train.validation_days = 0;

  const CityBenchmark nyc = MakeNyc();
  const CityBenchmark chi = MakeChicago();

  json::JsonWriter json;
  json.BeginObject().Key("bench").String("table5_efficiency");
  json.Key("models").BeginArray();
  PrintTableHeader({"Model", "NYC", "CHI"}, 14, 10);
  for (const auto& name : EfficiencyStudyModelNames()) {
    // Per-model profile: drop whatever the previous model accumulated so the
    // op breakdown below belongs to this model alone.
    obs::ResetProfiler();
    Timer model_timer;
    auto model_nyc = MakeForecaster(name, config.baseline, config.sthsl);
    const double nyc_seconds = MeanEpochSeconds(*model_nyc, nyc);
    // When a run ledger collects this bench, close each model's run with
    // the masked test metrics so the regression gate can compare quality,
    // not just speed. Costs test-set forward passes, hence opt-in.
    if (ledgered) {
      EvaluateForecaster(*model_nyc, nyc.data, nyc.test_start, nyc.test_end);
    }
    auto model_chi = MakeForecaster(name, config.baseline, config.sthsl);
    const double chi_seconds = MeanEpochSeconds(*model_chi, chi);
    if (ledgered) {
      EvaluateForecaster(*model_chi, chi.data, chi.test_start, chi.test_end);
    }
    const double wall_micros = model_timer.ElapsedMicros();
    PrintTableRow(name, {nyc_seconds, chi_seconds}, 14, 10, 3);

    const std::vector<obs::OpProfile> ops = TopOps();
    if (obs::TraceEnabled() && !ops.empty()) {
      std::printf("  top ops by attributed time:\n");
      PrintTopOps(ops);
    }

    json.BeginObject().Key("name").String(name);
    json.Key("nyc_epoch_seconds").Number(nyc_seconds);
    json.Key("chi_epoch_seconds").Number(chi_seconds);
    json.Key("wall_micros").Number(wall_micros).Key("ops");
    WriteOpsJson(ops, json);
    json.EndObject();

    std::fprintf(stderr, "[table5] %s done\n", name.c_str());
  }
  json.EndArray().EndObject();
  MaybeWriteBenchJson("table5_efficiency", json.str());
  std::printf("\nPaper shape to verify: STGCN cheapest; DCRNN and STDN most "
              "expensive;\nST-HSL mid-pack — its SSL losses add only small "
              "overhead.\n");
}

}  // namespace
}  // namespace sthsl::bench

int main() {
  sthsl::bench::Run();
  return 0;
}
