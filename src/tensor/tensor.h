#ifndef STHSL_TENSOR_TENSOR_H_
#define STHSL_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace sthsl {

class Tensor;
struct GradNode;

/// Shared state of a Tensor: a contiguous row-major float32 buffer plus the
/// autograd bookkeeping. Copies of a Tensor alias the same impl.
struct TensorImpl {
  std::vector<int64_t> shape;
  std::vector<float> data;

  /// True for leaf tensors the user asked gradients for, and for any tensor
  /// produced from such a leaf while gradient recording is enabled.
  bool requires_grad = false;

  /// Gradient buffer, same shape as `data`; filled by Tensor::Backward().
  std::vector<float> grad;

  /// Non-null for non-leaf tensors: records how to backpropagate.
  std::shared_ptr<GradNode> grad_fn;

  /// Reports the value buffer to the observability layer's tensor-memory
  /// accounting (no-op when tracing is disabled).
  ~TensorImpl();
};

/// One node of the reverse-mode autograd tape. `backward` receives the
/// gradient of the loss w.r.t. this node's output and returns gradients
/// w.r.t. each entry of `inputs` (empty tensors allowed for inputs that do
/// not require grad).
struct GradNode {
  std::string op_name;
  std::vector<Tensor> inputs;
  std::function<std::vector<Tensor>(const Tensor& grad_out)> backward;

  /// Set once a Backward() pass has propagated through this node. The graph
  /// frees intermediate gradient buffers eagerly, so a second pass would
  /// silently double-accumulate into leaves; the debug validator uses this
  /// flag to reject double-backward on a consumed graph.
  bool backward_consumed = false;
};

/// RAII guard that disables gradient recording within its scope (used inside
/// backward functions, evaluation loops and optimizers).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Returns true when operations should record autograd nodes.
bool GradRecordingEnabled();

/// N-dimensional float32 tensor with reverse-mode automatic differentiation.
///
/// Data is always contiguous row-major; shape-changing views (Reshape) are
/// cheap, axis reorderings (Permute/Transpose) materialize a copy. A Tensor
/// is a cheap shared handle: copying it aliases storage and autograd state.
class Tensor {
 public:
  /// Empty (null) tensor; Defined() is false.
  Tensor() = default;

  // -- Factory functions ----------------------------------------------------

  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);
  static Tensor Ones(std::vector<int64_t> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int64_t> shape, float value,
                     bool requires_grad = false);
  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> values,
                           bool requires_grad = false);
  /// Scalar (0-d) tensor.
  static Tensor Scalar(float value, bool requires_grad = false);
  /// Uniform in [lo, hi).
  static Tensor Rand(std::vector<int64_t> shape, Rng& rng, float lo = 0.0f,
                     float hi = 1.0f, bool requires_grad = false);
  /// Standard normal entries scaled by `stddev`.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng,
                      float stddev = 1.0f, bool requires_grad = false);
  /// Xavier/Glorot uniform init for a parameter with the given fan-in/out.
  static Tensor XavierUniform(std::vector<int64_t> shape, Rng& rng,
                              int64_t fan_in, int64_t fan_out,
                              bool requires_grad = true);

  // -- Introspection --------------------------------------------------------

  bool Defined() const { return impl_ != nullptr; }
  const std::vector<int64_t>& Shape() const;
  int64_t Dim() const;
  /// Size along dimension `d`; negative `d` counts from the end.
  int64_t Size(int64_t d) const;
  int64_t Numel() const;
  bool RequiresGrad() const;
  /// Marks a leaf tensor as requiring grad.
  Tensor& SetRequiresGrad(bool value);

  /// Direct access to the contiguous value buffer.
  const std::vector<float>& Data() const;
  std::vector<float>& MutableData();
  /// Gradient buffer (empty until Backward has touched this tensor).
  const std::vector<float>& Grad() const;
  std::vector<float>& MutableGrad();
  /// Clears the gradient buffer.
  void ZeroGrad();

  /// Scalar value of a 1-element tensor.
  float Item() const;
  /// Value at a flat (row-major) offset.
  float At(int64_t flat_index) const;
  /// Value at a multi-dimensional index.
  float At(const std::vector<int64_t>& index) const;

  std::shared_ptr<TensorImpl> Impl() const { return impl_; }
  std::shared_ptr<GradNode> GradFn() const;

  /// Returns a copy detached from the autograd graph (shares no grad state).
  Tensor Detach() const;

  /// Deep copy of values (detached, fresh buffer).
  Tensor Clone() const;

  /// Runs backpropagation from this tensor. If the tensor is not scalar a
  /// `seed` gradient of the same shape must be provided.
  void Backward(const Tensor& seed = Tensor()) const;

  /// Debug string: shape plus the first few values.
  std::string ToString() const;

  /// Wraps an existing impl (internal use by ops).
  static Tensor FromImpl(std::shared_ptr<TensorImpl> impl);

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Total element count of `shape`.
int64_t NumelOf(const std::vector<int64_t>& shape);

/// Row-major strides of `shape`.
std::vector<int64_t> StridesOf(const std::vector<int64_t>& shape);

/// NumPy-style broadcast of two shapes; aborts if incompatible.
std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b);

/// True when `t` takes part in autograd: a leaf that requires grad, or an
/// op result that recorded a grad node.
bool NeedsGrad(const Tensor& t);

/// Helper for ops: builds a result tensor that records `node` when gradient
/// recording is on and any input requires grad.
Tensor MakeResult(std::vector<int64_t> shape, std::vector<float> data,
                  std::string op_name, std::vector<Tensor> inputs,
                  std::function<std::vector<Tensor>(const Tensor&)> backward);

}  // namespace sthsl

#endif  // STHSL_TENSOR_TENSOR_H_
