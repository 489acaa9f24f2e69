// `bench_e2e compare DIR_A DIR_B [--bounds BENCHMARK.json]`: reads every
// BENCH_e2e.json under DIR_A (the parent) and DIR_B (the change) and gives,
// per (workload, end-to-end metric), each side's median and quartiles, the
// share of pairs the change wins, and a verdict against the bounds of
// BENCHMARK.json:
//
//   unresolved  the parent's own spread (quartile distance / median) is
//               wider than the bound, and not every change run beats every
//               parent run; or a gain with fewer than ten pairs, or with
//               more failed operations on the change's side;
//   improved    the change wins >= 90% of pairs (ties count for neither) and
//               the medians differ by more than the parent's quartile
//               distance;
//   regressed   the change's median is worse than the parent's by more
//               than the bound;
//   unchanged   otherwise.
//
// Runs pair up by seed when both sides ran the same seeds, else by order.
// Per-layer medians follow as context; they carry no verdict. Exits 1 when
// any row regressed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.h"
#include "util/json_mini.h"

namespace sthsl::e2e {
namespace {

using json::JsonValue;
using Kind = JsonValue::Kind;

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

/// workload -> metric -> value.
using Section = std::map<std::string, std::map<std::string, double>>;

struct Run {
  double seed = 0.0;
  Section e2e;
  Section per_layer;
  // workload -> failed operations, a failed gate counting as one.
  std::map<std::string, int64_t> failed;
};

bool ReadJson(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  std::string error;
  if (!json::JsonParser(body).Parse(out, &error)) {
    std::fprintf(stderr, "compare: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

std::vector<Bound> ReadBounds(const JsonValue& root, const char* key) {
  std::vector<Bound> bounds;
  const JsonValue* list = root.FindOfKind(key, Kind::kArray);
  if (list == nullptr) return bounds;
  for (const JsonValue& item : list->items) {
    Bound b;
    if (const auto* v = item.FindOfKind("name", Kind::kString)) {
      b.name = v->text;
    }
    if (const auto* v = item.FindOfKind("better", Kind::kString)) {
      b.lower_is_better = v->text != "higher";
    }
    if (const auto* v = item.FindOfKind("bound", Kind::kNumber)) {
      b.bound = v->number;
    }
    bounds.push_back(b);
  }
  return bounds;
}

/// Reads one run's result object ({"correct", "attempted", "failed",
/// "metrics"}) under `key` of a workload entry; returns its failed
/// operations, a missing result or failed gate counting as one.
int64_t ReadResult(const JsonValue& workload, const char* key,
                   std::map<std::string, double>* out) {
  const JsonValue* run = workload.FindOfKind(key, Kind::kObject);
  if (run == nullptr) return 1;
  if (const auto* metrics = run->FindOfKind("metrics", Kind::kObject)) {
    for (const auto& [name, metric] : metrics->members) {
      if (const auto* v = metric.FindOfKind("value", Kind::kNumber)) {
        (*out)[name] = v->number;
      }
    }
  }
  const JsonValue* correct = run->FindOfKind("correct", Kind::kBool);
  const JsonValue* failed = run->FindOfKind("failed", Kind::kNumber);
  const int64_t failures =
      failed != nullptr ? static_cast<int64_t>(failed->number) : 0;
  const bool ok = correct != nullptr && correct->boolean;
  return ok ? failures : std::max<int64_t>(failures, 1);
}

std::vector<Run> LoadRuns(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        entry.path().filename() == "BENCH_e2e.json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Run> runs;
  for (const std::string& path : paths) {
    JsonValue root;
    if (!ReadJson(path, &root)) continue;
    const JsonValue* workloads = root.FindOfKind("workloads", Kind::kObject);
    if (workloads == nullptr) continue;
    Run run;
    if (const auto* seed = root.FindOfKind("seed", Kind::kNumber)) {
      run.seed = seed->number;
    }
    for (const auto& [name, workload] : workloads->members) {
      run.failed[name] =
          ReadResult(workload, "end_to_end", &run.e2e[name]) +
          ReadResult(workload, "per_layer", &run.per_layer[name]);
    }
    runs.push_back(std::move(run));
  }
  std::stable_sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.seed < b.seed;
  });
  return runs;
}

/// Python's statistics.quantiles(values, n=4) (exclusive method).
std::vector<double> Quartiles(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const int64_t ld = static_cast<int64_t>(data.size());
  if (ld == 0) return {0.0, 0.0, 0.0};
  if (ld == 1) return {data[0], data[0], data[0]};
  std::vector<double> result;
  const int64_t n = 4;
  const int64_t m = ld + 1;
  for (int64_t i = 1; i < n; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / n, 1, ld - 1);
    const double delta = static_cast<double>(i * m - j * n);
    const double lo = data[static_cast<size_t>(j - 1)];
    const double hi = data[static_cast<size_t>(j)];
    result.push_back((lo * (static_cast<double>(n) - delta) + hi * delta) /
                     static_cast<double>(n));
  }
  return result;
}

std::vector<double> Values(const std::vector<Run>& runs, bool per_layer,
                           const std::string& workload,
                           const std::string& metric) {
  std::vector<double> values;
  for (const Run& run : runs) {
    const Section& section = per_layer ? run.per_layer : run.e2e;
    const auto w = section.find(workload);
    if (w == section.end()) continue;
    const auto v = w->second.find(metric);
    if (v != w->second.end()) values.push_back(v->second);
  }
  return values;
}

int64_t FailedOps(const std::vector<Run>& runs, const std::string& workload) {
  int64_t failed = 0;
  for (const Run& run : runs) {
    const auto it = run.failed.find(workload);
    failed += it == run.failed.end() ? 1 : it->second;
  }
  return failed;
}

/// Change from `a` to `b` in percent of `a`.
double DeltaPct(double a, double b) {
  return a != 0.0 ? 100.0 * (b - a) / std::fabs(a) : 0.0;
}

}  // namespace

int RunCompare(int argc, char** argv) {
  std::string bounds_path = "BENCHMARK.json";
  std::vector<std::string> dirs;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bounds" && i + 1 < argc) {
      bounds_path = argv[++i];
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_e2e compare DIR_A DIR_B [--bounds FILE]\n");
    return 2;
  }
  JsonValue bench;
  if (!ReadJson(bounds_path, &bench)) {
    std::fprintf(stderr, "compare: cannot read bounds from %s\n",
                 bounds_path.c_str());
    return 2;
  }
  const std::vector<Bound> e2e = ReadBounds(bench, "end_to_end");
  const std::vector<Bound> layers = ReadBounds(bench, "per_layer");
  const std::vector<Run> a = LoadRuns(dirs[0]);
  const std::vector<Run> b = LoadRuns(dirs[1]);
  if (a.empty() || b.empty()) {
    std::fprintf(stderr, "compare: no BENCH_e2e.json under %s\n",
                 (a.empty() ? dirs[0] : dirs[1]).c_str());
    return 2;
  }
  bool same_seeds = a.size() == b.size();
  for (size_t i = 0; same_seeds && i < a.size(); ++i) {
    same_seeds = a[i].seed == b[i].seed;
  }
  std::printf("A: %zu runs under %s\nB: %zu runs under %s\npairs by %s\n\n",
              a.size(), dirs[0].c_str(), b.size(), dirs[1].c_str(),
              same_seeds ? "seed" : "order");

  std::set<std::string> workloads;
  for (const Run& run : a) {
    for (const auto& entry : run.e2e) workloads.insert(entry.first);
  }
  int regressed = 0;
  std::printf("%-12s %-17s %11s %23s %11s %23s %8s %5s  %s\n", "workload",
              "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
              "delta", "win", "verdict");
  for (const std::string& workload : workloads) {
    const int64_t failed_a = FailedOps(a, workload);
    const int64_t failed_b = FailedOps(b, workload);
    for (const Bound& bound : e2e) {
      const std::vector<double> va = Values(a, false, workload, bound.name);
      const std::vector<double> vb = Values(b, false, workload, bound.name);
      if (va.empty() || vb.empty()) continue;
      const std::vector<double> qa = Quartiles(va);
      const std::vector<double> qb = Quartiles(vb);
      const double med_a = Median(va);
      const double med_b = Median(vb);
      const auto better = [&bound](double x, double y) {
        return bound.lower_is_better ? x < y : x > y;
      };
      const size_t pairs = std::min(va.size(), vb.size());
      size_t wins = 0;
      for (size_t i = 0; i < pairs; ++i) wins += better(vb[i], va[i]) ? 1 : 0;
      const double win_frac =
          static_cast<double>(wins) / static_cast<double>(pairs);
      bool all_b_better = true;
      for (double x : vb) {
        for (double y : va) all_b_better = all_b_better && better(x, y);
      }
      const double iqr_a = qa[2] - qa[0];
      const double spread_a = med_a != 0.0 ? iqr_a / std::fabs(med_a) : 0.0;
      const double worse_pct = bound.lower_is_better ? DeltaPct(med_a, med_b)
                                                     : -DeltaPct(med_a, med_b);
      std::string verdict = "unchanged";
      if (spread_a > bound.bound && !all_b_better) {
        verdict = "unresolved";
      } else if (win_frac >= 0.9 && better(med_b, med_a) &&
                 std::fabs(med_b - med_a) > iqr_a) {
        verdict = pairs < 10             ? "unresolved (gain needs >= 10 pairs)"
                  : failed_b > failed_a ? "unresolved (more failed operations)"
                                        : "improved";
      } else if (worse_pct > 100.0 * bound.bound) {
        verdict = "regressed";
        ++regressed;
      }
      std::printf(
          "%-12s %-17s %11.5g [%10.5g, %10.5g] %11.5g [%10.5g, %10.5g] "
          "%+7.2f%% %5.2f  %s\n",
          workload.c_str(), bound.name.c_str(), med_a, qa[0], qa[2], med_b,
          qb[0], qb[2], DeltaPct(med_a, med_b), win_frac, verdict.c_str());
    }
    std::printf("%-12s failed operations: A %lld, B %lld\n", workload.c_str(),
                static_cast<long long>(failed_a),
                static_cast<long long>(failed_b));
  }

  std::printf("\nper-layer medians (context for the rows above; no verdict)\n");
  std::printf("%-12s %-28s %12s %12s %9s\n", "workload", "metric", "A median",
              "B median", "delta");
  for (const std::string& workload : workloads) {
    for (const Bound& layer : layers) {
      const std::vector<double> va = Values(a, true, workload, layer.name);
      const std::vector<double> vb = Values(b, true, workload, layer.name);
      if (va.empty() || vb.empty()) continue;
      const double med_a = Median(va);
      const double med_b = Median(vb);
      if (med_a == 0.0 && med_b == 0.0) continue;  // layer not on this path
      std::printf("%-12s %-28s %12.5g %12.5g %+8.2f%%\n", workload.c_str(),
                  layer.name.c_str(), med_a, med_b, DeltaPct(med_a, med_b));
    }
  }
  return regressed > 0 ? 1 : 0;
}

}  // namespace sthsl::e2e
