#ifndef STHSL_TENSOR_DEBUG_VALIDATOR_H_
#define STHSL_TENSOR_DEBUG_VALIDATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sthsl {

/// Runtime autograd/numerics validator.
///
/// When enabled, every forward op (via MakeResult), every backward gradient
/// (via Tensor::Backward), gradient accumulation, and every optimizer step
/// are checked for:
///   - NaN/Inf values in activations and gradients,
///   - buffer/shape inconsistencies (data size vs shape, grad vs parameter),
///   - gradient accumulation onto tensors that never asked for gradients,
///   - a second Backward() through a graph already consumed (freed) by a
///     previous backward pass.
/// Failures abort through STHSL_CHECK, reporting the originating op name and
/// the shapes involved.
///
/// Enablement: set the STHSL_DEBUG_CHECKS environment variable to anything
/// but "0" before process start, or call SetDebugChecks(true) at runtime.
/// When disabled, every hook costs a single predictable branch.

namespace debug_validator_internal {
/// Backing flag; read through DebugChecksEnabled(). Initialized from the
/// STHSL_DEBUG_CHECKS environment variable during static initialization.
/// Atomic because it may flip while pool workers read it.
extern std::atomic<bool> g_enabled;
}  // namespace debug_validator_internal

/// True when runtime debug validation is active.
inline bool DebugChecksEnabled() {
  return debug_validator_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Enables or disables validation at runtime, overriding the environment
/// variable. Returns the previous state (handy for scoped save/restore in
/// tests).
bool SetDebugChecks(bool enabled);

/// Renders a shape as "[2, 3, 4]" for diagnostics.
std::string ShapeToString(const std::vector<int64_t>& shape);

/// Validates a freshly computed forward result before it is wrapped into a
/// Tensor: `data` must match `shape`, and every value must be finite. Aborts
/// naming `op_name` and the input shapes otherwise.
void ValidateForwardResult(const std::string& op_name,
                           const std::vector<int64_t>& shape,
                           const std::vector<float>& data,
                           const std::vector<Tensor>& inputs);

/// Validates a tensor entering an op kernel (catches NaN/Inf injected into
/// leaf buffers, e.g. corrupted datasets, before it spreads). `arg_name`
/// identifies the operand in the failure message.
void ValidateOpInput(const char* op_name, const char* arg_name,
                     const Tensor& input);

/// Validates one input-gradient produced by `op_name`'s backward function:
/// it must match the input's shape exactly and contain only finite values.
void ValidateBackwardGradient(const std::string& op_name, size_t input_index,
                              const Tensor& grad,
                              const std::vector<int64_t>& input_shape);

/// Validates a gradient about to be accumulated into `target`: the target
/// must participate in the autograd graph (requires_grad or grad_fn) and the
/// gradient buffer must be shape-consistent.
void ValidateGradAccumulation(const TensorImpl& target, const Tensor& grad);

/// Validates parameters and their gradients at the top of an optimizer step:
/// finite parameter data, finite gradients, and grad buffers sized like the
/// parameter they update.
void ValidateOptimizerStep(const char* optimizer_name,
                           const std::vector<Tensor>& params);

}  // namespace sthsl

#endif  // STHSL_TENSOR_DEBUG_VALIDATOR_H_
