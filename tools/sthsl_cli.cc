// sthsl — command-line interface to the library, covering the full
// lifecycle a downstream user needs without writing C++:
//
//   sthsl generate      --city nyc --out data.csv [--seed N] [--days N]
//   sthsl train         --data data.csv --ckpt model.bin [--epochs N] [...]
//   sthsl evaluate      --data data.csv --ckpt model.bin
//   sthsl forecast      --data data.csv --ckpt model.bin [--horizon N]
//   sthsl export-bundle --data data.csv --ckpt model.bin --out bundle/
//   sthsl predict       --bundle bundle/ --data data.csv [--day T]
//   sthsl stats         --data data.csv
//
// Checkpoints store only parameters; `train`, `evaluate`, `forecast` and
// `export-bundle` must be invoked with the same architecture flags (--dim,
// --hyper, --kernel, --window) for shapes to line up — mismatches are
// rejected by the strict checkpoint loader. A bundle directory is
// self-describing (manifest + weights), so `predict` and the sthsl_serve
// service need no architecture flags at all.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "core/forecaster.h"
#include "core/multi_step.h"
#include "core/sthsl_model.h"
#include "data/generator.h"
#include "data/stats.h"
#include "exec/exec.h"
#include "nn/serialization.h"
#include "serve/bundle.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/obs/calibrate.h"
#include "util/obs/obs.h"

using namespace sthsl;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // A value that is not a whole integer in [min, max] is refused like
  // BadArgs does: the message, then exit code 2.
  int64_t GetInt(const std::string& key, int64_t fallback,
                 int64_t min = std::numeric_limits<int64_t>::min(),
                 int64_t max = std::numeric_limits<int64_t>::max()) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const Result<int64_t> value =
        ParseIntFlag("--" + key, it->second, min, max);
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      std::exit(2);
    }
    return value.value();
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: sthsl_cli <command> [options]\n"
      "  generate --city nyc|chicago --out FILE [--seed N] [--days N]\n"
      "  train    --data FILE --ckpt FILE [--epochs N] [--dim N]\n"
      "           [--hyper N] [--kernel N] [--window N] [--steps N]\n"
      "           [--train-seed N] [--run-log FILE]\n"
      "  evaluate --data FILE --ckpt FILE [architecture flags]\n"
      "  forecast --data FILE --ckpt FILE [--horizon N] [arch flags]\n"
      "  export-bundle --data FILE --ckpt FILE --out DIR [arch flags]\n"
      "           [--gen-seed N]   package the checkpoint as a\n"
      "           self-describing bundle dir (manifest.json + weights.bin)\n"
      "           for sthsl_serve / predict; records dataset geometry,\n"
      "           normalization moments and provenance\n"
      "  predict  --bundle DIR --data FILE [--day T]\n"
      "           one-shot offline prediction: feed the --window days\n"
      "           ending at day T (default: end of file) through the\n"
      "           bundled model, print per-region/category forecasts\n"
      "  stats    --data FILE [--verbose 1] [--window N]\n"
      "           --verbose 1 adds tensor nnz/density and a per-window\n"
      "           (default len 14) sparsity summary\n"
      "  calibrate [--force 1] [--budget-ms N]\n"
      "           measure this machine's single-thread FMA GFLOP/s and\n"
      "           stream-triad GB/s for the roofline reporter; results are\n"
      "           cached per CPU model (~/.cache/sthsl/machine_peaks.json,\n"
      "           STHSL_CACHE_DIR overrides) — --force 1 remeasures\n"
      "execution (any command):\n"
      "  --threads N         kernel thread count (default: STHSL_THREADS or\n"
      "                      all hardware threads; results are bitwise\n"
      "                      identical at any value)\n"
      "observability (any command):\n"
      "  --trace-out FILE    enable tracing, write chrome://tracing JSON\n"
      "  --metrics-out FILE  enable tracing, write metrics/op-profile JSON\n"
      "  (STHSL_TRACE=1 in the environment enables the same machinery)\n"
      "  --run-log FILE      (train only) append a JSONL run ledger: config,\n"
      "                      per-epoch loss/grad-flow stats, final metrics\n"
      "  (STHSL_RUN_LOG=FILE in the environment is the process default)\n");
  return 2;
}

// The architecture and training flags; InvalidArgument when they describe
// a network that cannot be built.
Result<SthslConfig> ConfigFromArgs(const Args& args) {
  SthslConfig config;
  config.dim = args.GetInt("dim", 16);
  config.num_hyperedges = args.GetInt("hyper", 32);
  config.kernel_size = args.GetInt("kernel", 3);
  config.train.window = args.GetInt("window", 14);
  config.train.epochs = args.GetInt("epochs", 12);
  config.train.max_steps_per_epoch = args.GetInt("steps", 16);
  config.train.seed = static_cast<uint64_t>(args.GetInt("train-seed", 7));
  if (Status status = ValidateSthslConfig(config); !status.ok()) {
    return status;
  }
  return config;
}

// Reports a bad flag the way Usage does: the message, then exit code 2.
int BadArgs(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 2;
}

Result<CrimeDataset> LoadData(const Args& args) {
  const std::string path = args.Get("data", "");
  if (path.empty()) return Status::InvalidArgument("--data is required");
  return CrimeDataset::LoadCsv(path);
}

// Builds a forecaster whose network is materialized (via a minimal Fit) so
// a checkpoint can be loaded into it.
SthslForecaster MaterializeModel(const SthslConfig& config,
                                 const CrimeDataset& data,
                                 int64_t train_end) {
  SthslConfig init = config;
  init.train.epochs = 1;
  init.train.max_steps_per_epoch = 1;
  init.train.validation_days = 0;
  SthslForecaster model(init);
  model.Fit(data, train_end);
  return model;
}

int CmdGenerate(const Args& args) {
  CrimeGenConfig gen = args.Get("city", "nyc") == "chicago"
                           ? ChicagoSmallPreset()
                           : NycSmallPreset();
  if (args.options.count("days")) {
    const int64_t days = args.GetInt("days", gen.days);
    // Rescale category totals so the per-day intensity stays calibrated.
    for (auto& total : gen.category_totals) {
      total *= static_cast<double>(days) / static_cast<double>(gen.days);
    }
    gen.days = days;
  }
  if (args.options.count("seed")) {
    gen.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  }
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  CrimeDataset data = GenerateCrimeData(gen);
  Status status = data.SaveCsv(out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld regions x %lld days x %lld categories\n",
              out.c_str(), static_cast<long long>(data.num_regions()),
              static_cast<long long>(data.num_days()),
              static_cast<long long>(data.num_categories()));
  return 0;
}

int CmdTrain(const Args& args) {
  auto config_or = ConfigFromArgs(args);
  if (!config_or.ok()) return BadArgs(config_or.status());
  auto data_or = LoadData(args);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const CrimeDataset& data = data_or.value();
  const int64_t train_end = data.num_days() - data.num_days() / 8;
  SthslConfig config = config_or.value();
  // Run-ledger output is wired here (not in ConfigFromArgs): evaluate and
  // forecast also build TrainConfigs for checkpoint materialization, and
  // those throwaway one-step fits must not be ledgered.
  config.train.run_log = args.Get("run-log", "");
  SthslForecaster model(config);
  std::printf("training ST-HSL (%lld epochs) on days [0, %lld)...\n",
              static_cast<long long>(config.train.epochs),
              static_cast<long long>(train_end));
  model.Fit(data, train_end);

  const std::string ckpt = args.Get("ckpt", "");
  if (!ckpt.empty()) {
    Status status = SaveCheckpoint(*model.net(), ckpt);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint written to %s\n", ckpt.c_str());
  }
  CrimeMetrics metrics =
      EvaluateForecaster(model, data, train_end, data.num_days());
  const EvalResult overall = metrics.Overall();
  std::printf("test MAE %.4f  MAPE %.4f  RMSE %.4f\n", overall.mae,
              overall.mape, overall.rmse);
  return 0;
}

int CmdEvaluate(const Args& args) {
  auto config_or = ConfigFromArgs(args);
  if (!config_or.ok()) return BadArgs(config_or.status());
  auto data_or = LoadData(args);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const CrimeDataset& data = data_or.value();
  const int64_t train_end = data.num_days() - data.num_days() / 8;
  SthslForecaster model =
      MaterializeModel(config_or.value(), data, train_end);
  Status status = LoadCheckpoint(*model.mutable_net(), args.Get("ckpt", ""));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  CrimeMetrics metrics =
      EvaluateForecaster(model, data, train_end, data.num_days());
  for (int64_t c = 0; c < data.num_categories(); ++c) {
    const EvalResult r = metrics.Category(c);
    std::printf("%-12s MAE %.4f  MAPE %.4f  RMSE %.4f\n",
                data.category_names()[static_cast<size_t>(c)].c_str(), r.mae,
                r.mape, r.rmse);
  }
  const EvalResult overall = metrics.Overall();
  std::printf("%-12s MAE %.4f  MAPE %.4f  RMSE %.4f  hit-rate@3 %.2f\n",
              "overall", overall.mae, overall.mape, overall.rmse,
              metrics.HitRateAtK(std::min<int64_t>(3, data.num_regions())));
  return 0;
}

int CmdForecast(const Args& args) {
  auto config_or = ConfigFromArgs(args);
  if (!config_or.ok()) return BadArgs(config_or.status());
  auto data_or = LoadData(args);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const CrimeDataset& data = data_or.value();
  const int64_t horizon = args.GetInt("horizon", 7);
  SthslForecaster model =
      MaterializeModel(config_or.value(), data, data.num_days());
  Status status = LoadCheckpoint(*model.mutable_net(), args.Get("ckpt", ""));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  auto forecasts = ForecastHorizon(model, data, data.num_days(), horizon);
  std::printf("citywide expected incidents per category, next %lld days:\n",
              static_cast<long long>(horizon));
  std::printf("%-6s", "day");
  for (const auto& cat : data.category_names()) {
    std::printf("%12s", cat.substr(0, 10).c_str());
  }
  std::printf("\n");
  for (size_t h = 0; h < forecasts.size(); ++h) {
    std::printf("+%-5zu", h + 1);
    for (int64_t c = 0; c < data.num_categories(); ++c) {
      double total = 0.0;
      for (int64_t r = 0; r < data.num_regions(); ++r) {
        total += forecasts[h].At({r, c});
      }
      std::printf("%12.1f", total);
    }
    std::printf("\n");
  }
  return 0;
}

int CmdExportBundle(const Args& args) {
  auto config_or = ConfigFromArgs(args);
  if (!config_or.ok()) return BadArgs(config_or.status());
  auto data_or = LoadData(args);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out DIR is required\n");
    return 2;
  }
  const CrimeDataset& data = data_or.value();
  const int64_t train_end = data.num_days() - data.num_days() / 8;
  SthslForecaster model =
      MaterializeModel(config_or.value(), data, train_end);
  Status status = LoadCheckpoint(*model.mutable_net(), args.Get("ckpt", ""));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  serve::BundleManifest provenance;
  provenance.city = data.city_name();
  provenance.category_names = data.category_names();
  provenance.generator_seed = args.GetInt("gen-seed", -1);
  provenance.git_hash = GitHash();
  provenance.tool = "sthsl_cli export-bundle";
  status = serve::WriteBundle(model, out, provenance);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "bundle written to %s: model %s, city %s, window %lld, "
      "grid %lldx%lld, %lld categories\n",
      out.c_str(), model.Name().c_str(), data.city_name().c_str(),
      static_cast<long long>(model.train_config().window),
      static_cast<long long>(data.rows()), static_cast<long long>(data.cols()),
      static_cast<long long>(data.num_categories()));
  return 0;
}

int CmdPredict(const Args& args) {
  const std::string bundle_dir = args.Get("bundle", "");
  if (bundle_dir.empty()) {
    std::fprintf(stderr, "--bundle DIR is required\n");
    return 2;
  }
  auto bundle_or = serve::LoadBundle(bundle_dir);
  if (!bundle_or.ok()) {
    std::fprintf(stderr, "%s\n", bundle_or.status().ToString().c_str());
    return 1;
  }
  const serve::BundleManifest& manifest = bundle_or.value().manifest;
  auto data_or = LoadData(args);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const CrimeDataset& data = data_or.value();
  if (data.num_regions() != manifest.num_regions() ||
      data.num_categories() != manifest.categories) {
    std::fprintf(stderr,
                 "dataset geometry (%lld regions, %lld categories) does not "
                 "match bundle %s (%lld regions, %lld categories)\n",
                 static_cast<long long>(data.num_regions()),
                 static_cast<long long>(data.num_categories()),
                 bundle_dir.c_str(),
                 static_cast<long long>(manifest.num_regions()),
                 static_cast<long long>(manifest.categories));
    return 1;
  }
  const int64_t window = manifest.config.train.window;
  const int64_t day = args.GetInt("day", data.num_days());
  if (day < window || day > data.num_days()) {
    std::fprintf(stderr,
                 "--day %lld out of range: need window of %lld days, file "
                 "has %lld\n",
                 static_cast<long long>(day), static_cast<long long>(window),
                 static_cast<long long>(data.num_days()));
    return 1;
  }

  Tensor input = data.WindowInput(day, window);
  std::vector<Tensor> predictions =
      bundle_or.value().model->PredictWindows({input});
  const Tensor& prediction = predictions.front();

  std::printf("prediction for day %lld (window [%lld, %lld), model %s):\n",
              static_cast<long long>(day), static_cast<long long>(day - window),
              static_cast<long long>(day), manifest.model.c_str());
  std::printf("%-12s %10s %10s  %s\n", "category", "citywide", "max-cell",
              "hotspot");
  for (int64_t c = 0; c < manifest.categories; ++c) {
    double total = 0.0;
    double max_value = -1.0;
    int64_t max_region = 0;
    for (int64_t r = 0; r < manifest.num_regions(); ++r) {
      const double value = prediction.At({r, c});
      total += value;
      if (value > max_value) {
        max_value = value;
        max_region = r;
      }
    }
    std::printf("%-12s %10.2f %10.3f  (%lld, %lld)\n",
                manifest.category_names[static_cast<size_t>(c)].c_str(), total,
                max_value, static_cast<long long>(max_region / manifest.cols),
                static_cast<long long>(max_region % manifest.cols));
  }
  return 0;
}

int CmdStats(const Args& args) {
  auto data_or = LoadData(args);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const CrimeDataset& data = data_or.value();
  std::printf("%s: %lldx%lld grid (%lld regions), %lld days\n",
              data.city_name().c_str(), static_cast<long long>(data.rows()),
              static_cast<long long>(data.cols()),
              static_cast<long long>(data.num_regions()),
              static_cast<long long>(data.num_days()));
  for (int64_t c = 0; c < data.num_categories(); ++c) {
    std::printf("  %-12s %10.0f cases  gini %.3f\n",
                data.category_names()[static_cast<size_t>(c)].c_str(),
                data.CategoryTotal(c), SpatialGini(data, c));
  }
  auto histogram = DensityHistogram(data, 0.25);
  std::printf("  density bins (0.25 wide):");
  for (int64_t count : histogram) {
    std::printf(" %lld", static_cast<long long>(count));
  }
  std::printf("\n");
  if (args.GetInt("verbose", 0) != 0) {
    // Sparsity of the tensor the model actually consumes: global fill plus
    // per-window nnz/density over every training-window-sized slice.
    std::printf("  nnz %lld / %lld cells  density %.4f\n",
                static_cast<long long>(data.Nnz()),
                static_cast<long long>(data.num_regions() * data.num_days() *
                                       data.num_categories()),
                data.Density());
    const int64_t window =
        std::min<int64_t>(args.GetInt("window", 14), data.num_days());
    const WindowDensitySummary windows =
        SummarizeWindowDensity(data, window);
    std::printf(
        "  windows (len %lld, %lld total): nnz min %lld mean %.1f max %lld"
        "  density min %.4f mean %.4f max %.4f\n",
        static_cast<long long>(windows.window),
        static_cast<long long>(windows.num_windows),
        static_cast<long long>(windows.min_nnz), windows.mean_nnz,
        static_cast<long long>(windows.max_nnz), windows.min_density,
        windows.mean_density, windows.max_density);
  }
  return 0;
}

int CmdCalibrate(const Args& args) {
  const bool force = args.GetInt("force", 0) != 0;
  const double budget =
      static_cast<double>(args.GetInt("budget-ms", 1000)) / 1e3;
  const obs::MachinePeaks peaks = obs::CalibrateMachinePeaks(force, budget);
  if (!peaks.valid()) {
    std::fprintf(stderr, "machine-peak calibration failed\n");
    return 1;
  }
  std::printf("cpu:       %s\n", peaks.cpu_model.c_str());
  std::printf("threads:   %d hardware, %d configured\n",
              peaks.hardware_threads, exec::ThreadCount());
  std::printf("fma peak:  %.2f GFLOP/s (single thread)\n", peaks.gflops_1t);
  std::printf("triad bw:  %.2f GB/s (single thread)\n", peaks.gbps_1t);
  std::printf("measured:  %s%s\n", peaks.created_utc.c_str(),
              peaks.from_cache ? " [from cache]" : "");
  std::printf("cache:     %s\n", obs::PeaksCachePath().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args.options[argv[i] + 2] = argv[i + 1];
  }
  // Kernel thread count: flag wins over the STHSL_THREADS environment
  // variable (which the exec layer reads on first use).
  if (args.options.count("threads")) {
    exec::SetThreadCount(
        static_cast<int>(args.GetInt("threads", 0, 1, 1024)));
  }
  // Observability flags: either one switches tracing on; the files are
  // written by the process-exit flush.
  const std::string trace_out = args.Get("trace-out", "");
  const std::string metrics_out = args.Get("metrics-out", "");
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::SetTraceEnabled(true);
    if (!trace_out.empty()) obs::SetTraceOutPath(trace_out);
    if (!metrics_out.empty()) obs::SetMetricsOutPath(metrics_out);
  }
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command == "train") return CmdTrain(args);
  if (args.command == "evaluate") return CmdEvaluate(args);
  if (args.command == "forecast") return CmdForecast(args);
  if (args.command == "export-bundle") return CmdExportBundle(args);
  if (args.command == "predict") return CmdPredict(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "calibrate") return CmdCalibrate(args);
  return Usage();
}
