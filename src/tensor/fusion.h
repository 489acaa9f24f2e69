#ifndef STHSL_TENSOR_FUSION_H_
#define STHSL_TENSOR_FUSION_H_

// Eager elementwise-chain fusion.
//
// Same-shape elementwise ops (every row of the op table in
// tensor/elementwise_ops.h) do not evaluate immediately: they return a
// *pending* tensor whose TensorImpl carries a FusedChain — a materialized
// root tensor plus up to kMaxFusedSteps ops to apply to it. Chaining another
// fusable op onto a pending tensor extends the chain instead of
// materializing it, so a z-score → add-bias → activation → dropout-mask
// pipeline becomes ONE loop nest over the data with zero intermediate tensor
// buffers. Any access to the values (Data, Item, At, Backward, ...)
// materializes the chain in a single pass: each step runs its row's simd
// kernel, a lane-exact IEEE operation (see simd/simd.h), or else the row's
// scalar formula, the same one the eager op evaluates, so a materialized
// chain equals the eager op sequence bitwise.
//
// Only grad-free chains fuse: an op declines (and takes the eager kernels)
// when gradient recording is on and any operand needs grad. Chains form in
// inference under NoGradGuard, over masks and constants, and in grad-free
// prefixes such as the Eq. 1 z-scoring; a pending tensor never carries a
// GradNode. Training's grad-carrying ops would only ever build one-step
// chains, which cost more than the eager kernel they replace.
//
// Pending chains created while fusing an op onto a still-pending input share
// the root and copy the steps; the shorter prefix tensor stays pending and,
// if nothing else reads it, is simply never evaluated.
//
// Fusion is disabled under STHSL_DEBUG_CHECKS (the validator wants to see
// every intermediate) and via STHSL_FUSION=0.

#include <cstdint>
#include <vector>

#include "tensor/elementwise_ops.h"
#include "tensor/tensor.h"

namespace sthsl {

/// Ops a chain step can apply: one per row of the elementwise op table.
/// Binary ops consume a same-shape rhs tensor; scalar ops carry an
/// immediate operand.
enum class FusedOp {
#define STHSL_FUSED_OP_ENUMERATOR(Fn, ...) k##Fn,
  STHSL_ELEMENTWISE_OPS(STHSL_FUSED_OP_ENUMERATOR)
#undef STHSL_FUSED_OP_ENUMERATOR
};

struct FusedStep {
  FusedOp op;
  float scalar = 0.0f;  // the operand s of SCALAR rows
  Tensor rhs;           // defined for binary ops only; always materialized
};

/// Chain length cap: long enough for the model's activation pipelines,
/// short enough that a chain's rhs operands stay few.
inline constexpr int64_t kMaxFusedSteps = 8;

struct FusedChain {
  Tensor root;  // materialized; the chain applies steps[0..] to its values
  std::vector<FusedStep> steps;
};

/// Applies one table row's forward in place over a contiguous strip:
/// buf[i] = fwd(buf[i], rhs[i]) for BINARY rows, fwd(buf[i]) with operand
/// `scalar` for SCALAR rows. Bitwise what the eager op computes.
void ApplyFusedStep(FusedOp op, float scalar, float* buf, const float* rhs,
                    int64_t n);

/// True when new elementwise ops should build pending chains. Off under
/// STHSL_DEBUG_CHECKS and STHSL_FUSION=0.
bool FusionEnabled();

/// Test hook: 1 forces fusion on, 0 forces it off, -1 restores the default.
void SetFusionEnabledForTesting(int mode);

/// Builds (or extends) a pending chain applying `op` to `a`. Returns an
/// undefined Tensor when fusion is disabled or the result would record a
/// gradient — the caller must then take the eager path.
Tensor TryFuseUnary(FusedOp op, const Tensor& a, float scalar = 0.0f);

/// Same for a binary op with rhs `b`; requires identical shapes (broadcasts
/// take the eager path).
Tensor TryFuseBinary(FusedOp op, const Tensor& a, const Tensor& b);

/// Evaluates `impl`'s pending chain into impl.data and clears it. No-op if
/// the impl is not pending. Called by the Tensor accessors.
void MaterializePending(TensorImpl& impl);

}  // namespace sthsl

#endif  // STHSL_TENSOR_FUSION_H_
