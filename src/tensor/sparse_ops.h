#ifndef STHSL_TENSOR_SPARSE_OPS_H_
#define STHSL_TENSOR_SPARSE_OPS_H_

#include "sparse/sparse_tensor.h"
#include "tensor/tensor.h"

namespace sthsl {

/// Autograd-integrated sparse operations (docs/sparse.md).
///
/// The sparse layer stores structure; these ops connect it to the autograd
/// tape. The contract for the sparse-side gradient is *fixed-pattern*: a
/// sparse operand's gradient is materialized only at its stored
/// coordinates, and the coordinate pattern itself is never extended or
/// pruned by training. Dense-side gradients flow as usual. Both SpMM
/// dispatch orders visit stored entries in exactly the order the dense
/// GEMM visits all entries, so a sparse forward/backward is
/// bitwise-identical to the dense (masked) reference whenever every
/// skipped product is exactly +0 (finite data; holds for every workload in
/// this repo and is asserted by tests/sparse_test.cc).

/// Dense -> sparse conversion (COO, detached from the autograd tape).
sparse::SparseTensor ToSparse(
    const Tensor& t,
    sparse::ZeroPolicy policy = sparse::ZeroPolicy::kDropZeros);

/// Sparse -> dense materialization (detached leaf tensor).
Tensor SparseToDense(const sparse::SparseTensor& s);

/// Gathers the values of `dense` at `pattern`'s stored coordinates into a
/// 1-D tensor of length nnz (entry order = the pattern's storage order).
/// This is the autograd bridge for learnable sparse operands: the backward
/// scatters the incoming gradient to the stored coordinates only — the
/// fixed-pattern gradient semantics above. Op name: "sparse_values".
Tensor SparseValues(const Tensor& dense, const sparse::SparseTensor& pattern);

/// SpMM: A · B (or A^T · B with `transpose_a`) where A is `pattern` (CSR,
/// shape (m, k)) with values taken from the 1-D tensor `values` (length
/// nnz, pattern storage order) and B is dense (k, n) ((m, n) when
/// transposed). Gradients flow to both `values` (fixed-pattern) and `b`.
/// Op name: "spmm" (nnz-aware cost model in tensor/kernel_cost.cc).
Tensor SpMM(const sparse::SparseTensor& pattern, const Tensor& values,
            const Tensor& b, bool transpose_a = false);

}  // namespace sthsl

#endif  // STHSL_TENSOR_SPARSE_OPS_H_
