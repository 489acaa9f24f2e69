#include "util/obs/calibrate.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/json_mini.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sthsl::obs {
namespace {

// FMA loop geometry: independent accumulator chains (enough for the compiler
// to vectorize and to hide the FMA latency) advanced in fixed-size blocks so
// the timer is consulted rarely.
constexpr int kFmaChains = 16;
constexpr int64_t kFmaBlockIters = 1 << 14;

// Triad buffers: 16 MiB per array (3 arrays = 48 MiB) — far beyond any LLC,
// so the loop streams from DRAM.
constexpr int64_t kTriadElems = int64_t{1} << 22;

// Zero-initialized before any dynamic initialization, so a registration
// running from another translation unit's static initializer is safe.
FmaProbeFn g_fma_probe = nullptr;

double MeasureFmaGflops(double seconds_budget) {
  if (g_fma_probe != nullptr) {
    const double gflops = g_fma_probe(seconds_budget);
    if (gflops > 0.0) return gflops;
  }
  float acc[kFmaChains];
  for (int i = 0; i < kFmaChains; ++i) {
    acc[i] = 0.001f * static_cast<float>(i + 1);
  }
  // Multiplier fractionally above 1 and a tiny addend keep every chain
  // finite and non-constant for the full run.
  const float mul = 1.0000001f;
  const float add = 1e-7f;
  int64_t blocks = 0;
  Timer timer;
  do {
    for (int64_t it = 0; it < kFmaBlockIters; ++it) {
      for (int i = 0; i < kFmaChains; ++i) acc[i] = acc[i] * mul + add;
    }
    ++blocks;
  } while (timer.ElapsedSeconds() < seconds_budget);
  const double elapsed = timer.ElapsedSeconds();
  // The sink keeps the chains observable so the loop cannot be deleted.
  volatile float sink = 0.0f;
  for (int i = 0; i < kFmaChains; ++i) sink = sink + acc[i];
  (void)sink;
  const double flops = static_cast<double>(blocks) * kFmaBlockIters *
                       kFmaChains * 2.0;  // multiply + add per step
  return elapsed > 0.0 ? flops / elapsed / 1e9 : 0.0;
}

double MeasureTriadGbps(double seconds_budget) {
  std::vector<float> a(static_cast<size_t>(kTriadElems), 0.0f);
  std::vector<float> b(static_cast<size_t>(kTriadElems), 1.0f);
  std::vector<float> c(static_cast<size_t>(kTriadElems), 2.0f);
  const float scale = 0.5f;
  int64_t passes = 0;
  Timer timer;
  do {
    float* pa = a.data();
    const float* pb = b.data();
    const float* pc = c.data();
    for (int64_t i = 0; i < kTriadElems; ++i) pa[i] = pb[i] + scale * pc[i];
    ++passes;
  } while (timer.ElapsedSeconds() < seconds_budget);
  const double elapsed = timer.ElapsedSeconds();
  volatile float sink = a[static_cast<size_t>(passes % kTriadElems)];
  (void)sink;
  // Two streamed reads and one write per element; write-allocate traffic is
  // not counted, which keeps the figure conservative.
  const double bytes = static_cast<double>(passes) * kTriadElems * 3.0 * 4.0;
  return elapsed > 0.0 ? bytes / elapsed / 1e9 : 0.0;
}

// Creates `dir` and its parents (best effort, like `mkdir -p`).
void MakeDirs(const std::string& dir) {
  std::string partial;
  for (size_t i = 0; i < dir.size(); ++i) {
    partial += dir[i];
    if ((dir[i] == '/' && partial.size() > 1) || i + 1 == dir.size()) {
      mkdir(partial.c_str(), 0755);
    }
  }
}

std::string DirnameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

}  // namespace

void SetFmaProbe(FmaProbeFn probe) { g_fma_probe = probe; }

std::string CpuModelName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    if (start < line.size()) return line.substr(start);
    break;
  }
  return "unknown";
}

int HardwareThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string PeaksCachePath() {
  if (const char* dir = std::getenv("STHSL_CACHE_DIR")) {
    if (dir[0] != '\0') return std::string(dir) + "/machine_peaks.json";
  }
  if (const char* home = std::getenv("HOME")) {
    if (home[0] != '\0') {
      return std::string(home) + "/.cache/sthsl/machine_peaks.json";
    }
  }
  return "/tmp/sthsl-cache/machine_peaks.json";
}

MachinePeaks MeasureMachinePeaks(double seconds_budget) {
  MachinePeaks peaks;
  peaks.cpu_model = CpuModelName();
  peaks.hardware_threads = HardwareThreads();
  peaks.created_utc = internal_logging::FormatTimestampIso8601();
  const double half = seconds_budget > 0.0 ? seconds_budget / 2.0 : 0.0;
  peaks.gflops_1t = MeasureFmaGflops(half);
  peaks.gbps_1t = MeasureTriadGbps(half);
  return peaks;
}

bool LoadCachedPeaks(const std::string& path, MachinePeaks* out) {
  std::ifstream file(path);
  if (!file.good()) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  json::JsonValue root;
  std::string error;
  json::JsonParser parser(text);
  if (!parser.Parse(&root, &error)) return false;
  if (!root.Is(json::JsonValue::Kind::kObject)) return false;
  // Schema 2: the FMA peak is measured through the simd gemm-tile probe.
  // Older caches hold the scalar-loop figure, which the vectorized kernels
  // exceed by the vector width — treat them as missing and remeasure.
  const auto* schema =
      root.FindOfKind("schema", json::JsonValue::Kind::kNumber);
  if (schema == nullptr || schema->number != 2) return false;
  const auto* gflops =
      root.FindOfKind("gflops_1t", json::JsonValue::Kind::kNumber);
  const auto* gbps = root.FindOfKind("gbps_1t", json::JsonValue::Kind::kNumber);
  const auto* model =
      root.FindOfKind("cpu_model", json::JsonValue::Kind::kString);
  if (gflops == nullptr || gbps == nullptr || model == nullptr) return false;
  MachinePeaks peaks;
  peaks.gflops_1t = gflops->number;
  peaks.gbps_1t = gbps->number;
  peaks.cpu_model = model->text;
  if (const auto* threads = root.FindOfKind(
          "hardware_threads", json::JsonValue::Kind::kNumber)) {
    peaks.hardware_threads = static_cast<int>(threads->number);
  }
  if (const auto* created =
          root.FindOfKind("created_utc", json::JsonValue::Kind::kString)) {
    peaks.created_utc = created->text;
  }
  peaks.from_cache = true;
  if (!peaks.valid()) return false;
  *out = peaks;
  return true;
}

bool SaveMachinePeaks(const std::string& path, const MachinePeaks& peaks) {
  MakeDirs(DirnameOf(path));
  std::ofstream file(path, std::ios::trunc);
  if (!file.good()) return false;
  json::JsonWriter json;
  json.BeginObject().Key("schema").Int(2);
  json.Key("cpu_model").String(peaks.cpu_model);
  json.Key("gflops_1t").Number(peaks.gflops_1t);
  json.Key("gbps_1t").Number(peaks.gbps_1t);
  json.Key("hardware_threads").Int(peaks.hardware_threads);
  json.Key("created_utc").String(peaks.created_utc).EndObject();
  file << json.str() << "\n";
  return file.good();
}

MachinePeaks CalibrateMachinePeaks(bool force_remeasure,
                                   double seconds_budget) {
  const std::string path = PeaksCachePath();
  if (!force_remeasure) {
    MachinePeaks cached;
    if (LoadCachedPeaks(path, &cached) &&
        cached.cpu_model == CpuModelName()) {
      return cached;
    }
  }
  MachinePeaks peaks = MeasureMachinePeaks(seconds_budget);
  if (!SaveMachinePeaks(path, peaks)) {
    STHSL_LOG(Warning) << "could not write machine-peaks cache to " << path;
  }
  return peaks;
}

}  // namespace sthsl::obs
