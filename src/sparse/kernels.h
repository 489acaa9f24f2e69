#ifndef STHSL_SPARSE_KERNELS_H_
#define STHSL_SPARSE_KERNELS_H_

#include <cstdint>

namespace sthsl::sparse {

/// Raw sparse compute kernels, dispatched through sthsl::exec with
/// fixed-chunk boundaries (independent of the thread count) and disjoint
/// per-chunk output ranges, so every result below is bitwise-identical at
/// any thread count. The accumulation orders deliberately mirror the dense
/// GEMM loops in src/tensor/matmul.cc — per output element, stored entries
/// are visited in the same ascending order the dense kernel visits all
/// entries — which is what makes dense/sparse parity hold down to the bit
/// (see docs/sparse.md, "Determinism and parity").

/// out(m, n) = A(m, k) · B(k, n) with A in CSR form; `out` must be
/// zero-filled. When `perm` is non-null, entry e reads vals[perm[e]]
/// (transpose dispatch reads original values through the transpose
/// permutation). Row-parallel: each chunk owns disjoint output rows.
void SpmmCsrDense(const int64_t* row_ptr, const int64_t* cols,
                  const float* vals, const int64_t* perm, int64_t m,
                  const float* b, int64_t n, float* out);

/// Gradient of SpMM w.r.t. the stored values: for entry e in row i with
/// column p, dvals[perm ? perm[e] : e] = sum_j g(i, j) · b(p, j). Row-
/// parallel; each entry's dot runs in ascending j, matching the dense
/// GemmNT row-dot.
void SpmmValueGrad(const int64_t* row_ptr, const int64_t* cols,
                   const float* g, const float* b, const int64_t* perm,
                   int64_t m, int64_t n, float* dvals);

/// out[e] = dense[flat[e]] — coordinate gather. Entry-parallel (disjoint).
void GatherFlatKernel(const float* dense, const int64_t* flat, int64_t count,
                      float* out);

/// dense[flat[e]] = g[e] — coordinate scatter into a zero-filled buffer.
/// Flat coordinates are unique (validated), so writes are disjoint.
void ScatterFlatKernel(const float* g, const int64_t* flat, int64_t count,
                       float* dense);

}  // namespace sthsl::sparse

#endif  // STHSL_SPARSE_KERNELS_H_
