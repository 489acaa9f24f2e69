#include "sparse/kernels.h"

#include <algorithm>
#include <cmath>

#include "exec/exec.h"

namespace sthsl::sparse {
namespace {

// Target flop count per fixed chunk, matching the dense GEMM grain: keeps
// dispatch overhead negligible while letting sparse workloads fill the pool.
constexpr int64_t kSparseGrainFlops = int64_t{1} << 17;

// Fixed-chunk grain over `rows` given the average per-row flop cost. The
// chunk boundaries depend only on the range and this grain — never on the
// thread count — per the exec determinism contract.
int64_t RowGrain(int64_t nnz, int64_t rows, int64_t flops_per_entry) {
  if (rows < 1) return 1;
  const int64_t per_row =
      std::max<int64_t>(1, nnz / rows * std::max<int64_t>(1, flops_per_entry));
  return std::max<int64_t>(1, kSparseGrainFlops / per_row);
}

}  // namespace

void SpmmCsrDense(const int64_t* row_ptr, const int64_t* cols,
                  const float* vals, const int64_t* perm, int64_t m,
                  const float* b, int64_t n, float* out) {
  const int64_t nnz = row_ptr[m];
  exec::ParallelForFixedChunks(
      0, m, RowGrain(nnz, m, 2 * n),
      [=](int64_t, int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          float* crow = out + i * n;
          for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
            const float av = vals[perm != nullptr ? perm[e] : e];
            const float* brow = b + cols[e] * n;
            // Single-rounding fma, like the dense GEMM microkernels: with
            // fma(0, b, acc) == acc exactly, skipping the zero entries
            // leaves the result bitwise equal to the dense product.
            for (int64_t j = 0; j < n; ++j)
              crow[j] = std::fma(av, brow[j], crow[j]);
          }
        }
      },
      "exec/spmm");
}

void SpmmValueGrad(const int64_t* row_ptr, const int64_t* cols,
                   const float* g, const float* b, const int64_t* perm,
                   int64_t m, int64_t n, float* dvals) {
  const int64_t nnz = row_ptr[m];
  exec::ParallelForFixedChunks(
      0, m, RowGrain(nnz, m, 2 * n),
      [=](int64_t, int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* grow = g + i * n;
          for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
            const float* brow = b + cols[e] * n;
            float acc = 0.0f;
            for (int64_t j = 0; j < n; ++j)
              acc = std::fma(grow[j], brow[j], acc);
            dvals[perm != nullptr ? perm[e] : e] = acc;
          }
        }
      },
      "exec/spmm_vgrad");
}

void GatherFlatKernel(const float* dense, const int64_t* flat, int64_t count,
                      float* out) {
  exec::ParallelForFixedChunks(
      0, count, int64_t{1} << 14,
      [=](int64_t, int64_t e0, int64_t e1) {
        for (int64_t e = e0; e < e1; ++e) out[e] = dense[flat[e]];
      },
      "exec/gather_flat");
}

void ScatterFlatKernel(const float* g, const int64_t* flat, int64_t count,
                       float* dense) {
  exec::ParallelForFixedChunks(
      0, count, int64_t{1} << 14,
      [=](int64_t, int64_t e0, int64_t e1) {
        for (int64_t e = e0; e < e1; ++e) dense[flat[e]] = g[e];
      },
      "exec/scatter_flat");
}

}  // namespace sthsl::sparse
