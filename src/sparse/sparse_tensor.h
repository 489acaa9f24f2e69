#ifndef STHSL_SPARSE_SPARSE_TENSOR_H_
#define STHSL_SPARSE_SPARSE_TENSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/status.h"

namespace sthsl::sparse {

/// Sparse tensor layer (docs/sparse.md).
///
/// Sits between `exec` and `tensor` in the layer DAG: it stores coordinate
/// structure and raw float values with no dependency on the autograd Tensor
/// type; the autograd-integrated SpMM ops live in
/// src/tensor/sparse_ops.h and include this header. The layout contract:
///
///  - COO: one sorted, duplicate-free flat row-major index per stored
///    entry. Works for any rank.
///  - CSR: 2-D only; `row_ptr` of size rows+1, column indices sorted
///    ascending within each row. The SpMM kernels consume this layout.
///
/// Copies are cheap shared handles; conversions share the value buffer (and
/// COO<->CSR share what index structure survives the layout change), so a
/// matrix held in both layouts stores its values once.

enum class Layout { kCoo, kCsr };

/// What dense->sparse conversion does with cells whose value is exactly
/// zero. `kDropZeros` (the default) stores only nonzeros; `kKeepExplicit`
/// stores every cell, preserving explicit zeros — used when the coordinate
/// *pattern* matters independently of the current values (fixed-pattern
/// gradients never drop a stored coordinate, see docs/sparse.md).
enum class ZeroPolicy { kDropZeros, kKeepExplicit };

class SparseTensor {
 public:
  SparseTensor() = default;

  /// Builds a COO tensor from a dense row-major buffer of `shape`.
  static SparseTensor FromDense(const float* data,
                                std::vector<int64_t> shape,
                                ZeroPolicy policy = ZeroPolicy::kDropZeros);

  /// Builds a COO tensor from explicit parts; fails (never aborts) when the
  /// indices are unsorted, duplicated, out of range, or sized differently
  /// from the values.
  static Result<SparseTensor> CooFromParts(std::vector<int64_t> shape,
                                           std::vector<int64_t> flat_indices,
                                           std::vector<float> values);

  /// Builds a CSR matrix from explicit parts; fails on a malformed row_ptr
  /// (wrong size, non-monotone, bad total) or unsorted/duplicated/escaping
  /// column indices.
  static Result<SparseTensor> CsrFromParts(std::vector<int64_t> shape,
                                           std::vector<int64_t> row_ptr,
                                           std::vector<int64_t> cols,
                                           std::vector<float> values);

  bool Defined() const { return !shape_.empty(); }
  Layout layout() const { return layout_; }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t Numel() const;
  int64_t Nnz() const;
  /// Stored entries / total cells, in [0, 1]; 0 for an empty tensor.
  double Density() const;
  /// Bytes of index + value storage this handle keeps alive (the number the
  /// sparsity bench compares against the 4·numel dense footprint).
  int64_t StorageBytes() const;

  /// Converts to the requested layout. CSR requires rank 2. Conversions out
  /// of a sorted source preserve entry order, so values are shared, never
  /// copied; converting to the current layout returns *this unchanged.
  SparseTensor ToCoo() const;
  SparseTensor ToCsr() const;

  /// Writes the dense row-major image (stored zeros included — they are
  /// simply written over the zero fill) into `out[0, Numel())`.
  void ToDenseInto(float* out) const;
  std::vector<float> ToDense() const;

  /// Re-checks every structural invariant (sorted, deduped, in-range,
  /// consistent sizes). Factories validate on construction; this is exposed
  /// for tests and for callers that mutated storage out-of-band.
  Status Validate() const;

  // Storage accessors. Flat indices / row_ptr+cols are layout-specific;
  // calling the wrong accessor aborts.
  const std::vector<int64_t>& FlatIndices() const;
  const std::vector<int64_t>& RowPtr() const;
  const std::vector<int64_t>& Cols() const;
  const std::vector<float>& Values() const;

 private:
  std::vector<int64_t> shape_;
  Layout layout_ = Layout::kCoo;
  std::shared_ptr<const std::vector<int64_t>> flat_indices_;  // COO
  std::shared_ptr<const std::vector<int64_t>> row_ptr_;       // CSR
  std::shared_ptr<const std::vector<int64_t>> cols_;          // CSR
  std::shared_ptr<const std::vector<float>> values_;
};

/// Transpose index of a 2-D CSR matrix: the CSR structure of A^T plus a
/// permutation mapping each transpose entry back to its original entry, so
/// kernels can read the original value buffer through `perm` and gradient
/// kernels can scatter to the original entry order. Built with a counting
/// sort, so within each transpose row the entries appear in ascending
/// original-row order — exactly the accumulation order of a dense
/// A^T·B GEMM (bitwise parity, see docs/sparse.md).
struct CsrTransposeIndex {
  std::shared_ptr<const std::vector<int64_t>> row_ptr;  // size cols(A)+1
  std::shared_ptr<const std::vector<int64_t>> cols;     // original row ids
  std::shared_ptr<const std::vector<int64_t>> perm;     // -> original entry
};

CsrTransposeIndex BuildCsrTranspose(const SparseTensor& csr);

}  // namespace sthsl::sparse

#endif  // STHSL_SPARSE_SPARSE_TENSOR_H_
