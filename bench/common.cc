#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec/exec.h"
#include "simd/simd.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/json_mini.h"
#include "util/obs/calibrate.h"
#include "util/obs/run_ledger.h"

namespace sthsl::bench {

Scale GetScale() {
  const char* env = std::getenv("STHSL_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "full") == 0) return Scale::kFull;
  return Scale::kSmall;
}

namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  return std::atoll(env);
}

// The opening of an object document that records where its numbers came
// from: '{' and a "provenance" member. MaybeWriteBenchJson splices it over
// every bench document's opening brace. Purely additive: existing consumers
// that look up their own fields are unaffected.
std::string ProvenanceOpening() {
  json::JsonWriter json;
  json.BeginObject().Key("provenance").BeginObject();
  json.Key("git_hash").String(GitHash());
  json.Key("created_utc").String(internal_logging::FormatTimestampIso8601());
  json.Key("threads").Int(exec::ThreadCount());
  json.Key("cpu_model").String(obs::CpuModelName());
  json.Key("simd").String(simd::Kernels().name);
  json.Key("cpu_features").String(simd::CpuFeatureString()).EndObject();
  return std::move(json).str();
}

}  // namespace

CityBenchmark MakeCity(const CrimeGenConfig& config) {
  CityBenchmark city;
  city.data = GenerateCrimeData(config);
  const int64_t days = city.data.num_days();
  const int64_t test_days = days / 8;  // paper: train:test = 7:1
  city.train_end = days - test_days;
  city.test_start = city.train_end;
  city.test_end = days;
  return city;
}

CityBenchmark MakeNyc() {
  return MakeCity(GetScale() == Scale::kFull ? NycPreset() : NycSmallPreset());
}

CityBenchmark MakeChicago() {
  return MakeCity(GetScale() == Scale::kFull ? ChicagoPreset()
                                             : ChicagoSmallPreset());
}

ComparisonConfig BenchComparisonConfig() {
  const int64_t epochs = EnvInt("STHSL_BENCH_EPOCHS", 10);
  const int64_t steps = EnvInt("STHSL_BENCH_STEPS", 14);
  ComparisonConfig config =
      MakeComparisonConfig(/*window=*/14, epochs, steps, /*seed=*/77);
  const char* lr_env = std::getenv("STHSL_BENCH_LR");
  if (lr_env != nullptr) {
    const float lr = static_cast<float>(std::atof(lr_env));
    config.baseline.train.lr = lr;
    config.sthsl.train.lr = lr;
  }
  return config;
}

void MaybeWriteBenchJson(const std::string& name, const std::string& json) {
  const char* dir = std::getenv("STHSL_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", path.c_str());
    return;
  }
  // Stamp provenance in place of the opening brace of object documents.
  std::string stamped = json;
  const size_t brace = stamped.find_first_not_of(" \t\r\n");
  if (brace != std::string::npos && stamped[brace] == '{') {
    const size_t next = stamped.find_first_not_of(" \t\r\n", brace + 1);
    const bool empty_object = next != std::string::npos && stamped[next] == '}';
    stamped.replace(0, brace + 1,
                    ProvenanceOpening() + (empty_object ? "" : ","));
  }
  std::fwrite(stamped.data(), 1, stamped.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

void ConfigureRunLedger(const std::string& name) {
  const char* dir = std::getenv("STHSL_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  obs::RunLedger::Global().SetDefaultPath(std::string(dir) + "/LEDGER_" +
                                          name + ".jsonl");
}

void PrintTableHeader(const std::vector<std::string>& columns,
                      int first_width, int width) {
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%-*s", i == 0 ? first_width : width, columns[i].c_str());
  }
  std::printf("\n");
  const int total =
      first_width + width * (static_cast<int>(columns.size()) - 1);
  for (int i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void PrintTableRow(const std::string& label,
                   const std::vector<double>& values, int first_width,
                   int width, int precision) {
  std::printf("%-*s", first_width, label.c_str());
  for (double v : values) std::printf("%-*.*f", width, precision, v);
  std::printf("\n");
}

void PrintSectionTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace sthsl::bench
