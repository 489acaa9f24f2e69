// bench_e2e — end-to-end benchmark of ST-HSL training and served predictions,
// with per-layer attribution. See bench/e2e/README.md.
//
//   bench_e2e --workload W --seed N [--seconds S] [--trace 0|1]
//       One run of one workload. Prints `W metric value unit` lines, then
//       one JSON result line: the end-to-end metrics untraced (--trace 0),
//       the per-layer metrics traced (--trace 1). Exits 1 on a wrong output.
//   bench_e2e --seed N [--seconds S]
//       Every workload, untraced then traced, each run in its own child
//       process; writes $STHSL_BENCH_JSON_DIR/BENCH_e2e.json.
//   bench_e2e compare DIR_A DIR_B [--bounds BENCHMARK.json]
//       Compares two sets of BENCH_e2e.json runs (see compare.cc).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "e2e.h"
#include "simd/simd.h"
#include "util/json_mini.h"

namespace sthsl::e2e {
namespace {

constexpr const char* kWorkloads[] = {"train-small", "train-full", "serve-miss",
                                      "serve-mixed"};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload W --seed N [--seconds S] "
               "[--trace 0|1]\n"
               "       bench_e2e --seed N [--seconds S]\n"
               "       bench_e2e compare DIR_A DIR_B [--bounds FILE]\n"
               "workloads: train-small train-full serve-miss serve-mixed\n");
  return 2;
}

std::string ResultJson(const RunResult& result, bool correct) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : result.defs()) {
    json += std::string(first ? "" : ", ") + json::JsonQuote(def.name) +
            ": {\"value\": " + Num(result.value(def.name)) +
            ", \"unit\": " + json::JsonQuote(def.unit) + "}";
    first = false;
  }
  return json + "}}";
}

int RunOne(const Options& options) {
  RunResult result = options.workload.rfind("train-", 0) == 0
                         ? RunTrain(options)
                         : RunServe(options);
  const char* w = options.workload.c_str();
  std::printf("%s attempted %lld count\n%s failed %lld count\n", w,
              static_cast<long long>(result.attempted), w,
              static_cast<long long>(result.failed));
  for (const std::string& note : result.notes) {
    std::printf("%s %s\n", w, note.c_str());
  }
  for (const MetricDef& def : result.defs()) {
    std::printf("%s %s %s %s\n", w, def.name,
                Num(result.value(def.name)).c_str(), def.unit);
  }
  const bool correct =
      result.correct() && result.failed == 0 && result.attempted > 0;
  std::printf("%s\n", ResultJson(result, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Runs one child and returns its stdout; `*exit_code` gets its status.
std::string RunChild(const std::string& command, int* exit_code) {
  std::string out;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return out;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  *exit_code = pclose(pipe);
  return out;
}

/// Every workload, untraced then traced, each in a fresh child process so
/// RSS high-water, the obs registry and the exec pool belong to one run.
int RunAll(const Options& options) {
  std::error_code ec;
  const std::string exe =
      std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec) return Usage();
  bool ok = true;
  std::string workloads_json;
  for (const char* workload : kWorkloads) {
    // Each child's result line is a JSON object; it is stored verbatim.
    std::string entry;
    for (int trace = 0; trace <= 1; ++trace) {
      const std::string command = "'" + exe + "' --workload " + workload +
                                  " --seed " + std::to_string(options.seed) +
                                  " --seconds " + Num(options.seconds) +
                                  " --trace " + std::to_string(trace);
      int exit_code = 0;
      std::string out = RunChild(command, &exit_code);
      while (!out.empty() && out.back() == '\n') out.pop_back();
      // Every line but the last is already `workload metric value unit`.
      const size_t cut = out.rfind('\n');
      std::string result_line =
          cut == std::string::npos ? out : out.substr(cut + 1);
      if (cut != std::string::npos) {
        std::fwrite(out.data(), 1, cut + 1, stdout);
      }
      std::fflush(stdout);
      json::JsonValue result;
      std::string error;
      if (exit_code != 0 ||
          !json::JsonParser(result_line).Parse(&result, &error)) {
        std::fprintf(stderr, "[bench_e2e] %s --trace %d failed (exit %d)\n",
                     workload, trace, exit_code);
        ok = false;
        result_line = "null";
      }
      entry += trace == 0 ? "\"end_to_end\": " : ", \"per_layer\": ";
      entry += result_line;
    }
    workloads_json += std::string(workloads_json.empty() ? "" : ", ") +
                      json::JsonQuote(workload) + ": {" + entry + "}";
  }
  const int nproc = Nproc();
  bench::MaybeWriteBenchJson(
      "e2e",
      "{\"bench\": \"e2e\", \"seed\": " + std::to_string(options.seed) +
          ", \"seconds\": " + Num(options.seconds) +
          ", \"nproc\": " + std::to_string(nproc) +
          ", \"simd\": " + json::JsonQuote(simd::Kernels().name) +
          ", \"thread_counts\": {\"train_exec\": " +
          std::to_string(TrainExecThreads()) + ", \"serve_batcher_workers\": " +
          std::to_string(kServeBatcherWorkers) +
          ", \"serve_exec\": " + std::to_string(ServeExecThreads()) +
          ", \"loadgen_connections\": " + std::to_string(LoadgenConnections()) +
          "}, \"correct\": " + (ok ? "true" : "false") +
          ", \"workloads\": {" + workloads_json + "}}");
  return ok ? 0 : 1;
}

bool KnownWorkload(const std::string& name) {
  for (const char* workload : kWorkloads) {
    if (name == workload) return true;
  }
  return false;
}

}  // namespace
}  // namespace sthsl::e2e

int main(int argc, char** argv) {
  using namespace sthsl::e2e;
  if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) {
    return RunCompare(argc - 2, argv + 2);
  }
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      if (!KnownWorkload(options.workload)) return Usage();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();
  return options.workload.empty() ? RunAll(options) : RunOne(options);
}
