#include "tensor/fusion.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "util/obs/obs.h"

namespace sthsl {
namespace {

// Same elementwise grain as ops.cc (see docs/performance.md).
constexpr int64_t kFusedGrain = 16384;

std::atomic<int> g_fusion_override{-1};

bool NeedsGrad(const Tensor& t) {
  return t.Defined() && (t.RequiresGrad() || t.GradFn() != nullptr);
}

void EnsureMaterialized(const Tensor& t) {
  const auto impl = t.Impl();
  if (impl != nullptr && impl->pending != nullptr) MaterializePending(*impl);
}

template <typename F>
void ApplyScalar(float* buf, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) buf[i] = f(buf[i]);
}

// Applies one step in place over a contiguous strip: through the simd
// kernels where one exists (all lane-exact), otherwise with the scalar
// formula of the eager ops.cc lambda (libm for transcendentals), so a
// materialized chain equals the eager op sequence bitwise.
void ApplyStep(const FusedStep& s, float* buf, const float* rhs, int64_t n) {
  const auto& ks = simd::Kernels();
  const float c = s.scalar;
  switch (s.op) {
    case FusedOp::kAdd:
      return ks.add(n, buf, rhs, buf);
    case FusedOp::kSub:
      return ks.sub(n, buf, rhs, buf);
    case FusedOp::kMul:
      return ks.mul(n, buf, rhs, buf);
    case FusedOp::kDiv:
      return ks.div(n, buf, rhs, buf);
    case FusedOp::kAddScalar:
      return ks.add_scalar(n, buf, c, buf);
    case FusedOp::kMulScalar:
      return ks.mul_scalar(n, buf, c, buf);
    case FusedOp::kSquare:
      return ks.mul(n, buf, buf, buf);
    case FusedOp::kRelu:
      return ks.relu(n, buf, buf);
    case FusedOp::kLeakyRelu:
      return ks.leaky_relu(n, buf, c, buf);
    case FusedOp::kClampMin:
      return ks.clamp_min(n, buf, c, buf);
    case FusedOp::kNeg:
      return ApplyScalar(buf, n, [](float x) { return -x; });
    case FusedOp::kExp:
      return ApplyScalar(buf, n, [](float x) { return std::exp(x); });
    case FusedOp::kLog:
      return ApplyScalar(buf, n, [](float x) {
        return std::log(std::max(x, 1e-12f));
      });
    case FusedOp::kSqrt:
      return ApplyScalar(buf, n, [](float x) { return std::sqrt(x); });
    case FusedOp::kAbs:
      return ApplyScalar(buf, n, [](float x) { return std::fabs(x); });
    case FusedOp::kPowScalar:
      return ApplyScalar(buf, n, [c](float x) { return std::pow(x, c); });
    case FusedOp::kSigmoid:
      return ApplyScalar(buf, n, [](float x) {
        return 1.0f / (1.0f + std::exp(-x));
      });
    case FusedOp::kTanh:
      return ApplyScalar(buf, n, [](float x) { return std::tanh(x); });
  }
}

std::string FusedOpName(size_t nsteps) {
  return "fused_elemwise" + std::to_string(nsteps);
}

// Wraps chain + steps into a pending tensor. Chains only form where no
// gradient is recorded, so a pending tensor is never part of the autograd
// graph.
Tensor MakePendingTensor(std::shared_ptr<FusedChain> chain) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = chain->root.Shape();
  impl->pending = std::move(chain);
  return Tensor::FromImpl(std::move(impl));
}

// Starts a new chain from `a`, or copies and extends `a`'s pending chain
// when there is still room (the shorter pending prefix stays lazy — if
// nothing else reads it, it is never evaluated).
std::shared_ptr<FusedChain> ChainFrom(const Tensor& a) {
  auto chain = std::make_shared<FusedChain>();
  const auto impl = a.Impl();
  if (impl->pending != nullptr &&
      static_cast<int64_t>(impl->pending->steps.size()) < kMaxFusedSteps) {
    chain->root = impl->pending->root;
    chain->steps = impl->pending->steps;
  } else {
    EnsureMaterialized(a);
    chain->root = a;
  }
  return chain;
}

// Ops whose result joins the gradient graph take the eager kernels: their
// backward needs the materialized intermediates anyway, and a fused node
// would have to recompute the chain to differentiate it.
bool RecordsGrad(const Tensor& a, const Tensor& b) {
  return GradRecordingEnabled() && (NeedsGrad(a) || NeedsGrad(b));
}

}  // namespace

bool FusedOpIsBinary(FusedOp op) {
  return op == FusedOp::kAdd || op == FusedOp::kSub || op == FusedOp::kMul ||
         op == FusedOp::kDiv;
}

bool FusionEnabled() {
  const int forced = g_fusion_override.load(std::memory_order_acquire);
  if (forced != -1) return forced == 1;
  if (DebugChecksEnabled()) return false;
  static const bool env_off = [] {
    const char* e = std::getenv("STHSL_FUSION");
    return e != nullptr && std::string(e) == "0";
  }();
  return !env_off;
}

void SetFusionEnabledForTesting(int mode) {
  g_fusion_override.store(mode, std::memory_order_release);
}

Tensor TryFuseUnary(FusedOp op, const Tensor& a, float scalar) {
  if (!a.Defined() || !FusionEnabled() || RecordsGrad(a, Tensor())) {
    return Tensor();
  }
  auto chain = ChainFrom(a);
  chain->steps.push_back(FusedStep{op, scalar, Tensor()});
  return MakePendingTensor(std::move(chain));
}

Tensor TryFuseBinary(FusedOp op, const Tensor& a, const Tensor& b) {
  if (!a.Defined() || !b.Defined() || !FusionEnabled() ||
      RecordsGrad(a, b) || a.Shape() != b.Shape()) {
    return Tensor();
  }
  auto chain = ChainFrom(a);
  EnsureMaterialized(b);
  chain->steps.push_back(FusedStep{op, 0.0f, b});
  return MakePendingTensor(std::move(chain));
}

void MaterializePending(TensorImpl& impl) {
  if (impl.pending == nullptr) return;
  const std::shared_ptr<FusedChain> chain = std::move(impl.pending);
  impl.pending = nullptr;

  const bool obs_on = obs::TraceEnabled();
  const double obs_start_us = obs_on ? obs::TraceNowMicros() : 0.0;

  const auto& root_data = chain->root.Data();
  const int64_t n = static_cast<int64_t>(root_data.size());
  impl.data.resize(static_cast<size_t>(n));
  float* out = impl.data.data();
  const float* rv = root_data.data();
  const auto& steps = chain->steps;

  std::vector<const float*> rhs_ptr(steps.size(), nullptr);
  int64_t binary_steps = 0;
  for (size_t k = 0; k < steps.size(); ++k) {
    if (!FusedOpIsBinary(steps[k].op)) continue;
    rhs_ptr[k] = steps[k].rhs.Data().data();
    ++binary_steps;
  }

  // One pass per chunk: seed with the root values, then apply every step in
  // place — no intermediate tensors exist at any point.
  exec::ParallelFor(
      0, n, kFusedGrain,
      [&](int64_t lo, int64_t hi) {
        std::copy(rv + lo, rv + hi, out + lo);
        for (size_t k = 0; k < steps.size(); ++k) {
          const float* rhs =
              rhs_ptr[k] != nullptr ? rhs_ptr[k] + lo : nullptr;
          ApplyStep(steps[k], out + lo, rhs, hi - lo);
        }
      },
      "exec/fused_elemwise");

  if (obs_on) {
    // Reads root + each rhs once, writes the output once.
    const int64_t bytes = 4 * n * (2 + binary_steps);
    const int64_t flops = static_cast<int64_t>(steps.size()) * n;
    const std::string name = FusedOpName(steps.size());
    obs::OnTensorAlloc(4 * n);
    obs::RecordKernelSample(name.c_str(),
                            obs::TraceNowMicros() - obs_start_us, bytes,
                            flops);
    if (!obs::InBackwardPass()) obs::RecordForwardOp(name, bytes, flops);
  }
}

}  // namespace sthsl
