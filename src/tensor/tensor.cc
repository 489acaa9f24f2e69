#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "tensor/debug_validator.h"
#include "tensor/kernel_cost.h"
#include "util/check.h"
#include "util/obs/obs.h"

namespace sthsl {
namespace {

thread_local bool g_grad_enabled = true;

}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool GradRecordingEnabled() { return g_grad_enabled; }

int64_t NumelOf(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) {
    STHSL_CHECK_GE(s, 0);
    n *= s;
  }
  return n;
}

std::vector<int64_t> StridesOf(const std::vector<int64_t>& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b) {
  const size_t rank = std::max(a.size(), b.size());
  std::vector<int64_t> out(rank, 1);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t sa = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t sb = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    STHSL_CHECK(sa == sb || sa == 1 || sb == 1)
        << "incompatible broadcast: dim " << i << " sizes " << sa << " vs "
        << sb;
    out[i] = std::max(sa, sb);
  }
  return out;
}

TensorImpl::~TensorImpl() {
  if (obs::TraceEnabled()) {
    obs::OnTensorFree(static_cast<int64_t>(data.size()) * 4);
  }
}

// -- Factories ----------------------------------------------------------------

Tensor Tensor::FromImpl(std::shared_ptr<TensorImpl> impl) {
  if (obs::TraceEnabled() && impl != nullptr) {
    obs::OnTensorAlloc(static_cast<int64_t>(impl->data.size()) * 4);
  }
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(static_cast<size_t>(NumelOf(shape)), 0.0f);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return FromImpl(std::move(impl));
}

Tensor Tensor::Ones(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value,
                    bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(static_cast<size_t>(NumelOf(shape)), value);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return FromImpl(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> values, bool requires_grad) {
  STHSL_CHECK_EQ(NumelOf(shape), static_cast<int64_t>(values.size()))
      << "FromVector size mismatch";
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  return FromImpl(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({}, {value}, requires_grad);
}

Tensor Tensor::Rand(std::vector<int64_t> shape, Rng& rng, float lo, float hi,
                    bool requires_grad) {
  const int64_t n = NumelOf(shape);
  std::vector<float> values(static_cast<size_t>(n));
  for (auto& v : values) v = static_cast<float>(rng.Uniform(lo, hi));
  return FromVector(std::move(shape), std::move(values), requires_grad);
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev,
                     bool requires_grad) {
  const int64_t n = NumelOf(shape);
  std::vector<float> values(static_cast<size_t>(n));
  for (auto& v : values) v = static_cast<float>(rng.Normal(0.0, stddev));
  return FromVector(std::move(shape), std::move(values), requires_grad);
}

Tensor Tensor::XavierUniform(std::vector<int64_t> shape, Rng& rng,
                             int64_t fan_in, int64_t fan_out,
                             bool requires_grad) {
  STHSL_CHECK_GT(fan_in + fan_out, 0);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Rand(std::move(shape), rng, -bound, bound, requires_grad);
}

// -- Introspection --------------------------------------------------------------

const std::vector<int64_t>& Tensor::Shape() const {
  STHSL_CHECK(Defined());
  return impl_->shape;
}

int64_t Tensor::Dim() const { return static_cast<int64_t>(Shape().size()); }

int64_t Tensor::Size(int64_t d) const {
  const auto& shape = Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (d < 0) d += rank;
  STHSL_CHECK(d >= 0 && d < rank) << "Size dim out of range";
  return shape[static_cast<size_t>(d)];
}

int64_t Tensor::Numel() const { return NumelOf(Shape()); }

bool Tensor::RequiresGrad() const {
  return Defined() && impl_->requires_grad;
}

Tensor& Tensor::SetRequiresGrad(bool value) {
  STHSL_CHECK(Defined());
  STHSL_CHECK(impl_->grad_fn == nullptr)
      << "SetRequiresGrad is only valid on leaf tensors";
  impl_->requires_grad = value;
  return *this;
}

const std::vector<float>& Tensor::Data() const {
  STHSL_CHECK(Defined());
  return impl_->data;
}

std::vector<float>& Tensor::MutableData() {
  STHSL_CHECK(Defined());
  return impl_->data;
}

const std::vector<float>& Tensor::Grad() const {
  STHSL_CHECK(Defined());
  return impl_->grad;
}

std::vector<float>& Tensor::MutableGrad() {
  STHSL_CHECK(Defined());
  if (impl_->grad.empty()) impl_->grad.assign(impl_->data.size(), 0.0f);
  return impl_->grad;
}

void Tensor::ZeroGrad() {
  STHSL_CHECK(Defined());
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

float Tensor::Item() const {
  STHSL_CHECK_EQ(Numel(), 1) << "Item() requires a 1-element tensor";
  return impl_->data[0];
}

float Tensor::At(int64_t flat_index) const {
  STHSL_CHECK(Defined());
  STHSL_CHECK(flat_index >= 0 &&
              flat_index < static_cast<int64_t>(impl_->data.size()))
      << "flat index out of range: " << flat_index;
  return impl_->data[static_cast<size_t>(flat_index)];
}

float Tensor::At(const std::vector<int64_t>& index) const {
  const auto& shape = Shape();
  STHSL_CHECK_EQ(index.size(), shape.size());
  const auto strides = StridesOf(shape);
  int64_t flat = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    STHSL_CHECK(index[i] >= 0 && index[i] < shape[i])
        << "index out of range at dim " << i;
    flat += index[i] * strides[i];
  }
  return impl_->data[static_cast<size_t>(flat)];
}

std::shared_ptr<GradNode> Tensor::GradFn() const {
  return Defined() ? impl_->grad_fn : nullptr;
}

Tensor Tensor::Detach() const {
  STHSL_CHECK(Defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // copy values; no autograd linkage
  impl->requires_grad = false;
  return FromImpl(std::move(impl));
}

Tensor Tensor::Clone() const { return Detach(); }

// -- Backward -------------------------------------------------------------------

namespace {

void AccumulateGrad(const std::shared_ptr<TensorImpl>& impl,
                    const Tensor& grad) {
  if (DebugChecksEnabled()) ValidateGradAccumulation(*impl, grad);
  STHSL_CHECK_EQ(static_cast<int64_t>(impl->data.size()), grad.Numel())
      << "gradient shape mismatch in accumulation";
  const auto& g = grad.Data();
  if (impl->grad.empty()) {
    // First touch writes 0 + g instead of reading back a zero-filled buffer
    // to add to it; the bits are the same, including -0 → +0.
    impl->grad.resize(g.size());
    for (size_t i = 0; i < g.size(); ++i) impl->grad[i] = 0.0f + g[i];
    return;
  }
  for (size_t i = 0; i < g.size(); ++i) impl->grad[i] += g[i];
}

// Post-order DFS over the autograd DAG (iterative to avoid deep recursion).
void TopoSort(const std::shared_ptr<TensorImpl>& root,
              std::vector<std::shared_ptr<TensorImpl>>& order) {
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<std::shared_ptr<TensorImpl>, size_t>> stack;
  if (!root->grad_fn) return;
  stack.emplace_back(root, 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    const auto& fn = node->grad_fn;
    bool descended = false;
    while (fn && next_child < fn->inputs.size()) {
      const auto child = fn->inputs[next_child++].Impl();
      if (child && child->grad_fn && !visited.count(child.get())) {
        visited.insert(child.get());
        stack.emplace_back(child, 0);
        descended = true;
        break;
      }
    }
    if (!descended) {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Tensor::Backward(const Tensor& seed) const {
  STHSL_CHECK(Defined());
  STHSL_CHECK(impl_->requires_grad || impl_->grad_fn)
      << "Backward on a tensor that is not part of an autograd graph";
  Tensor initial = seed;
  if (!initial.Defined()) {
    STHSL_CHECK_EQ(Numel(), 1)
        << "Backward without seed requires a scalar output";
    initial = Tensor::Ones(impl_->shape);
  }
  STHSL_CHECK_EQ(initial.Numel(), Numel()) << "seed shape mismatch";

  // Suspends forward-op attribution for the duration of the pass; per-node
  // backward timing below takes over.
  obs::BackwardPassGuard obs_backward_guard;

  AccumulateGrad(impl_, initial);

  std::vector<std::shared_ptr<TensorImpl>> order;
  TopoSort(impl_, order);

  NoGradGuard no_grad;
  // `order` is post-order (children first); process in reverse so each
  // node's output gradient is complete before its backward runs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto& node = *it;
    const auto& fn = node->grad_fn;
    if (!fn) continue;
    if (DebugChecksEnabled()) {
      STHSL_CHECK(!fn->backward_consumed)
          << "debug validator: double Backward through op '" << fn->op_name
          << "': this graph was already consumed (its intermediate gradients "
             "were freed) by a previous backward pass";
    }
    STHSL_CHECK(!node->grad.empty())
        << "node in topo order missing accumulated gradient: " << fn->op_name;
    // Hand the complete gradient off instead of copying it. This leaves the
    // node's buffer empty, and grad_out frees it after this iteration: once
    // a node has propagated, only leaves still need their grads.
    Tensor grad_out = Tensor::FromVector(node->shape, std::move(node->grad));
    const bool obs_on = obs::TraceEnabled();
    const double obs_start_us = obs_on ? obs::TraceNowMicros() : 0.0;
    std::vector<Tensor> input_grads = fn->backward(grad_out);
    if (obs_on) {
      obs::RecordBackwardOp(fn->op_name, obs_start_us,
                            BackwardOpFlops(fn->op_name, fn->inputs,
                                            node->shape),
                            BackwardOpBytes(fn->inputs, node->shape));
    }
    fn->backward_consumed = true;
    STHSL_CHECK_EQ(input_grads.size(), fn->inputs.size())
        << "backward of " << fn->op_name
        << " returned wrong number of gradients";
    for (size_t i = 0; i < fn->inputs.size(); ++i) {
      const auto input_impl = fn->inputs[i].Impl();
      if (!input_impl) continue;
      const bool needs_grad = input_impl->requires_grad || input_impl->grad_fn;
      if (!needs_grad) continue;
      STHSL_CHECK(input_grads[i].Defined())
          << "backward of " << fn->op_name
          << " returned undefined grad for input " << i
          << " which requires grad";
      if (DebugChecksEnabled()) {
        ValidateBackwardGradient(fn->op_name, i, input_grads[i],
                                 input_impl->shape);
      }
      AccumulateGrad(input_impl, input_grads[i]);
    }
  }
}

std::string Tensor::ToString() const {
  if (!Defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor(shape=[";
  for (size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << impl_->shape[i];
  }
  os << "], data=[";
  const size_t preview = std::min<size_t>(impl_->data.size(), 8);
  for (size_t i = 0; i < preview; ++i) {
    if (i > 0) os << ", ";
    os << impl_->data[i];
  }
  if (impl_->data.size() > preview) os << ", ...";
  os << "])";
  return os.str();
}

bool NeedsGrad(const Tensor& t) {
  return t.Defined() && (t.RequiresGrad() || t.GradFn() != nullptr);
}

Tensor MakeResult(std::vector<int64_t> shape, std::vector<float> data,
                  std::string op_name, std::vector<Tensor> inputs,
                  std::function<std::vector<Tensor>(const Tensor&)> backward) {
  // Per-op profiler hook: attribute the wall time since the previous op
  // boundary on this thread (the kernel compute that just produced `data`)
  // and the bytes touched. Ops running inside a Backward pass are skipped
  // here — they are accounted to the owning op's backward column instead.
  if (obs::TraceEnabled() && !obs::InBackwardPass()) {
    int64_t bytes = static_cast<int64_t>(data.size()) * 4;
    for (const auto& input : inputs) {
      if (input.Defined()) bytes += input.Numel() * 4;
    }
    obs::RecordForwardOp(op_name, bytes, ForwardOpFlops(op_name, inputs, shape));
  }
  STHSL_CHECK_EQ(NumelOf(shape), static_cast<int64_t>(data.size()))
      << "MakeResult size mismatch in op " << op_name;
  if (DebugChecksEnabled()) {
    ValidateForwardResult(op_name, shape, data, inputs);
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);

  if (GradRecordingEnabled() &&
      std::any_of(inputs.begin(), inputs.end(), NeedsGrad)) {
    auto node = std::make_shared<GradNode>();
    node->op_name = std::move(op_name);
    node->inputs = std::move(inputs);
    node->backward = std::move(backward);
    impl->grad_fn = std::move(node);
    impl->requires_grad = true;
  }
  return Tensor::FromImpl(std::move(impl));
}

}  // namespace sthsl
