#include "e2e.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/obs/obs.h"

namespace sthsl::e2e {

RunResult::RunResult(bool trace) {
  if (trace) {
    defs_.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    defs_.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const MetricDef& def : defs_) values_[def.name] = 0.0;
}

void RunResult::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it != values_.end()) {
    it->second = value;
    return;
  }
  // Traced and untraced runs share code paths, so a metric of the other
  // kind is dropped; a name in neither catalogue is a bug.
  for (const MetricDef& def : kEndToEnd) {
    if (name == def.name) return;
  }
  for (const MetricDef& def : kPerLayer) {
    if (name == def.name) return;
  }
  std::fprintf(stderr, "[bench_e2e] metric %s is not in the catalogue\n",
               name.c_str());
  std::abort();
}

void RunResult::Fail(const std::string& why) {
  correct_ = false;
  if (++reported_ <= 10) {
    std::fprintf(stderr, "[bench_e2e] FAIL: %s\n", why.c_str());
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams are independent.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const size_t rank =
      static_cast<size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

uint64_t HashFloats(const std::vector<float>& values, uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

PoolSnapshot TakePoolSnapshot() {
  const exec::PoolStats stats = exec::GetPoolStats();
  PoolSnapshot snapshot;
  snapshot.regions = stats.regions_launched;
  for (size_t i = 0; i < stats.worker_busy_us.size(); ++i) {
    snapshot.worker_busy_us += stats.worker_busy_us[i];
    snapshot.worker_total_us +=
        stats.worker_busy_us[i] + stats.worker_idle_us[i];
  }
  return snapshot;
}

void AttributeModelLayers(const PoolSnapshot& pool_before, double backward_us,
                          RunResult* result) {
  std::map<std::string, obs::ScopeProfile> scopes;
  for (obs::ScopeProfile& scope : obs::ScopeProfiles()) {
    scopes[scope.name] = std::move(scope);
  }
  const auto scope_us = [&scopes](const char* name) {
    const auto it = scopes.find(name);
    return it == scopes.end() ? 0.0 : it->second.total_us;
  };
  const auto forward = scopes.find("sthsl/forward");
  if (forward == scopes.end() || forward->second.calls == 0) return;
  const double windows = static_cast<double>(forward->second.calls);
  const double ms_per_window = 1e-3 / windows;

  // Eq. 2-3 / 4 / 5 / 6-7 / 8 / 9; what the named layers leave of the
  // forward (Eq. 1 embedding, corruption, glue) is unattributed.
  const struct {
    const char* metric;
    const char* scope;
  } kLayers[] = {
      {"core.local_encoder_ms", "sthsl/local_encoder"},
      {"core.hypergraph_ms", "sthsl/hypergraph_prop"},
      {"core.global_temporal_ms", "sthsl/global_temporal"},
      {"core.infomax_ms", "sthsl/infomax_loss"},
      {"core.contrastive_ms", "sthsl/contrastive_loss"},
      {"core.predict_head_ms", "sthsl/predict_head"},
  };
  const double forward_us = forward->second.total_us;
  double named_us = 0.0;
  for (const auto& layer : kLayers) {
    const double us = scope_us(layer.scope);
    named_us += us;
    result->Set(layer.metric, us * ms_per_window);
  }
  result->Set("core.forward_ms", forward_us * ms_per_window);
  result->Set("core.unattributed_ms", (forward_us - named_us) * ms_per_window);

  // Op self time runs from the previous op boundary on the op's thread. A
  // fused chain materialized on a thread that ran no op for a while (a
  // served prediction read by the HTTP thread) absorbs that idle time, so
  // "other ops" is what forward and backward leave after the GEMM and conv
  // kernels, not a sum of op self times.
  double matmul_us = 0.0, conv_us = 0.0;
  double matmul_flops = 0.0, conv_flops = 0.0;
  int64_t op_calls = 0;
  for (const obs::OpProfile& op : obs::OpProfiles()) {
    // Optimizer updates are kernel samples, timed by the training loop.
    if (op.name == "adam_step" || op.name == "sgd_step") continue;
    const double us = op.forward_us + op.backward_us;
    const double flops =
        static_cast<double>(op.forward_flops + op.backward_flops);
    op_calls += op.forward_calls;
    if (op.name == "matmul") {
      matmul_us += us;
      matmul_flops += flops;
    } else if (op.name == "conv2d") {
      conv_us += us;
      conv_flops += flops;
    }
  }
  result->Set("tensor.matmul_ms", matmul_us * ms_per_window);
  result->Set("tensor.conv_ms", conv_us * ms_per_window);
  result->Set("tensor.other_ops_ms",
              (forward_us + backward_us - matmul_us - conv_us) * ms_per_window);
  // FLOP per microsecond is MFLOP/s.
  result->Set("tensor.matmul_gflops",
              matmul_us > 0.0 ? matmul_flops / matmul_us * 1e-3 : 0.0);
  result->Set("tensor.conv_gflops",
              conv_us > 0.0 ? conv_flops / conv_us * 1e-3 : 0.0);
  result->Set("tensor.ops_per_window", static_cast<double>(op_calls) / windows);
  result->Set("tensor.peak_mb",
              static_cast<double>(obs::PeakTensorBytes()) / (1024.0 * 1024.0));

  const PoolSnapshot pool_after = TakePoolSnapshot();
  result->Set("exec.regions_per_window",
              static_cast<double>(pool_after.regions - pool_before.regions) /
                  windows);
  const double total_us =
      pool_after.worker_total_us - pool_before.worker_total_us;
  result->Set("exec.worker_util",
              total_us > 0.0
                  ? (pool_after.worker_busy_us - pool_before.worker_busy_us) /
                        total_us
                  : 0.0);
}

}  // namespace sthsl::e2e
