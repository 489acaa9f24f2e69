// Matrix-product kernels and the MatMul autograd op.
//
// All three GEMM variants run cache-blocked through the simd microkernel
// layer: K is split into ascending KC-sized blocks, B (or the transposed
// operand) is packed into kc x 16 panels in exec scratch, and 6x16 register
// tiles of C are updated by simd::Kernels().gemm_tile. Every output element
// accumulates its K products as one ascending fused-multiply-add chain, so
// the result is bitwise independent of thread count, tile alignment, and
// the selected ISA variant (see the contract in simd/simd.h). Row chunks are
// dispatched through the exec layer exactly as before.

#include <algorithm>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace sthsl {
namespace {

// Target fused-multiply-add count per parallel chunk; keeps op-launch
// overhead negligible for small problems (they run inline on the caller).
constexpr int64_t kGemmGrainFlops = int64_t{1} << 17;

int64_t RowGrain(int64_t flops_per_row) {
  if (flops_per_row < 1) flops_per_row = 1;
  return std::max<int64_t>(1, kGemmGrainFlops / flops_per_row);
}

// K-dimension cache block: 256 floats of a packed panel row group stay well
// inside L1/L2 alongside the 6x16 C tile.
constexpr int64_t kKC = 256;

constexpr int64_t kMR = simd::kGemmTileRows;
constexpr int64_t kNR = simd::kGemmTileCols;

// Blocked driver shared by all three variants. Computes, for output rows
// [i0, i1) of row-major C with `ncols` columns:
//   C(i, j) += sum_p X(i, p) * Y(p, j),   p = 0 .. kk-1 ascending
// pack_y(panel, p0, pc, j0, nr) must fill panel[p*kNR + jj] = Y(p0+p, j0+jj);
// pack_x(panel, r0, mr, p0, pc) must fill panel[r*pc + q] = X(r0+r, p0+q).
// When X's rows are already contiguous with stride kk and the whole K fits
// in one block, callers pass x_direct to skip the X packing entirely.
template <typename PackX, typename PackY>
void GemmBlocked(float* c, int64_t ncols, int64_t i0, int64_t i1, int64_t kk,
                 const float* x_direct, PackX pack_x, PackY pack_y) {
  if (i1 <= i0 || ncols <= 0 || kk <= 0) return;
  const auto& kernels = simd::Kernels();
  const bool direct = (x_direct != nullptr) && kk <= kKC;
  exec::ScratchLease scratch(static_cast<size_t>(kKC * kNR + kMR * kKC));
  float* y_panel = scratch.data();
  float* x_panel = scratch.data() + kKC * kNR;
  for (int64_t p0 = 0; p0 < kk; p0 += kKC) {
    const int64_t pc = std::min(kKC, kk - p0);
    for (int64_t j0 = 0; j0 < ncols; j0 += kNR) {
      const int64_t nr = std::min(kNR, ncols - j0);
      pack_y(y_panel, p0, pc, j0, nr);
      for (int64_t r0 = i0; r0 < i1; r0 += kMR) {
        const int64_t mr = std::min(kMR, i1 - r0);
        const float* xp;
        if (direct) {
          xp = x_direct + r0 * kk;
        } else {
          pack_x(x_panel, r0, mr, p0, pc);
          xp = x_panel;
        }
        kernels.gemm_tile(xp, y_panel, c + r0 * ncols + j0, ncols, mr, nr,
                          pc);
      }
    }
  }
}

// C(m,n) += A(m,k) * B(k,n) restricted to output rows [i0, i1). C must be
// pre-zeroed (or hold a running accumulation).
void GemmNNRows(const float* a, const float* b, float* c, int64_t k,
                int64_t n, int64_t i0, int64_t i1) {
  GemmBlocked(
      c, n, i0, i1, k, k <= kKC ? a : nullptr,
      [=](float* panel, int64_t r0, int64_t mr, int64_t p0, int64_t pc) {
        for (int64_t r = 0; r < mr; ++r) {
          const float* src = a + (r0 + r) * k + p0;
          std::copy(src, src + pc, panel + r * pc);
        }
      },
      [=](float* panel, int64_t p0, int64_t pc, int64_t j0, int64_t nr) {
        for (int64_t p = 0; p < pc; ++p) {
          const float* src = b + (p0 + p) * n + j0;
          std::copy(src, src + nr, panel + p * kNR);
        }
      });
}

// C(m,k) += A(m,n) * B(k,n)^T restricted to output rows [i0, i1): the
// inner dimension is n, and Y(p, j) = B(j0+j row, p-th column) needs a
// transpose pack.
void GemmNTRows(const float* a, const float* b, float* c, int64_t n,
                int64_t k, int64_t i0, int64_t i1) {
  GemmBlocked(
      c, k, i0, i1, n, n <= kKC ? a : nullptr,
      [=](float* panel, int64_t r0, int64_t mr, int64_t p0, int64_t pc) {
        for (int64_t r = 0; r < mr; ++r) {
          const float* src = a + (r0 + r) * n + p0;
          std::copy(src, src + pc, panel + r * pc);
        }
      },
      [=](float* panel, int64_t p0, int64_t pc, int64_t j0, int64_t nr) {
        for (int64_t j = 0; j < nr; ++j) {
          const float* src = b + (j0 + j) * n + p0;
          for (int64_t p = 0; p < pc; ++p) panel[p * kNR + j] = src[p];
        }
      });
}

// C(k,n) += A(m,k)^T * B(m,n) restricted to output rows [p0, p1). The
// inner dimension is m; X(p, i) = A(i, p) needs a transpose pack. Each
// output element accumulates over i in ascending order, so the result is
// bitwise independent of the row chunking.
void GemmTNRows(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, int64_t p0, int64_t p1) {
  GemmBlocked(
      c, n, p0, p1, m, nullptr,
      [=](float* panel, int64_t r0, int64_t mr, int64_t q0, int64_t qc) {
        for (int64_t r = 0; r < mr; ++r) {
          const float* col = a + (r0 + r);
          for (int64_t q = 0; q < qc; ++q) {
            panel[r * qc + q] = col[(q0 + q) * k];
          }
        }
      },
      [=](float* panel, int64_t q0, int64_t qc, int64_t j0, int64_t nr) {
        for (int64_t q = 0; q < qc; ++q) {
          const float* src = b + (q0 + q) * n + j0;
          std::copy(src, src + nr, panel + q * kNR);
        }
      });
}

// Parallel batched GemmNN: collapses (batch, row) into one index space so
// small per-sample GEMMs still fill the pool.
void GemmNNBatched(const float* a, const float* b, float* c, int64_t batch,
                   int64_t m, int64_t k, int64_t n, bool b_batched) {
  exec::ParallelFor(
      0, batch * m, RowGrain(2 * k * n),
      [=](int64_t r0, int64_t r1) {
        int64_t r = r0;
        while (r < r1) {
          const int64_t s = r / m;
          const int64_t i0 = r % m;
          const int64_t i1 = std::min(m, i0 + (r1 - r));
          GemmNNRows(a + s * m * k, b + (b_batched ? s * k * n : 0),
                     c + s * m * n, k, n, i0, i1);
          r += i1 - i0;
        }
      },
      "exec/gemm_nn");
}

void GemmNTBatched(const float* a, const float* b, float* c, int64_t batch,
                   int64_t m, int64_t n, int64_t k, bool b_batched) {
  exec::ParallelFor(
      0, batch * m, RowGrain(2 * n * k),
      [=](int64_t r0, int64_t r1) {
        int64_t r = r0;
        while (r < r1) {
          const int64_t s = r / m;
          const int64_t i0 = r % m;
          const int64_t i1 = std::min(m, i0 + (r1 - r));
          GemmNTRows(a + s * m * n, b + (b_batched ? s * k * n : 0),
                     c + s * m * k, n, k, i0, i1);
          r += i1 - i0;
        }
      },
      "exec/gemm_nt");
}

// Parallel GemmTN over one batch sample: output rows (the k dimension) are
// disjoint per chunk. Batch samples accumulating into a *shared* C must be
// applied serially outside (ascending s) to keep the accumulation order.
void GemmTNParallel(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  exec::ParallelFor(
      0, k, RowGrain(2 * m * n),
      [=](int64_t p0, int64_t p1) { GemmTNRows(a, b, c, m, k, n, p0, p1); },
      "exec/gemm_tn");
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (DebugChecksEnabled()) {
    ValidateOpInput("matmul", "a", a);
    ValidateOpInput("matmul", "b", b);
  }
  const int64_t a_rank = a.Dim();
  const int64_t b_rank = b.Dim();
  STHSL_CHECK(a_rank >= 2 && b_rank >= 2 && a_rank <= 3 && b_rank <= 3)
      << "MatMul supports 2-D and 3-D operands, got ranks " << a_rank << ", "
      << b_rank;
  STHSL_CHECK(!(a_rank == 2 && b_rank == 3))
      << "MatMul (2-D x 3-D) is not supported";

  const int64_t m = a.Size(-2);
  const int64_t k = a.Size(-1);
  const int64_t k2 = b.Size(-2);
  const int64_t n = b.Size(-1);
  STHSL_CHECK_EQ(k, k2) << "MatMul inner-dim mismatch";

  const int64_t batch = a_rank == 3 ? a.Size(0) : 1;
  const bool b_batched = (b_rank == 3);
  if (b_batched) {
    STHSL_CHECK_EQ(a_rank, 3) << "batched rhs needs batched lhs";
    STHSL_CHECK_EQ(b.Size(0), batch) << "MatMul batch mismatch";
  }

  std::vector<float> out(static_cast<size_t>(batch * m * n), 0.0f);
  GemmNNBatched(a.Data().data(), b.Data().data(), out.data(), batch, m, k, n,
                b_batched);

  std::vector<int64_t> out_shape =
      a_rank == 3 ? std::vector<int64_t>{batch, m, n}
                  : std::vector<int64_t>{m, n};

  Tensor a_captured = a;
  Tensor b_captured = b;
  return MakeResult(
      std::move(out_shape), std::move(out), "matmul", {a, b},
      [a_captured, b_captured, batch, m, k, n,
       b_batched](const Tensor& g) -> std::vector<Tensor> {
        const float* gv = g.Data().data();
        const float* av = a_captured.Data().data();
        const float* bv = b_captured.Data().data();
        Tensor ga;
        Tensor gb;
        if (NeedsGrad(a_captured)) {
          std::vector<float> da(static_cast<size_t>(batch * m * k), 0.0f);
          // dA = dC * B^T
          GemmNTBatched(gv, bv, da.data(), batch, m, n, k, b_batched);
          ga = Tensor::FromVector(a_captured.Shape(), std::move(da));
        }
        if (NeedsGrad(b_captured)) {
          std::vector<float> db(
              static_cast<size_t>((b_batched ? batch : 1) * k * n), 0.0f);
          // dB = A^T * dC. When B is shared across the batch the samples
          // accumulate into one buffer, so they are applied in ascending
          // batch order (each sample's GEMM is row-parallel internally).
          for (int64_t s = 0; s < batch; ++s) {
            GemmTNParallel(av + s * m * k, gv + s * m * n,
                           db.data() + (b_batched ? s * k * n : 0), m, k, n);
          }
          gb = Tensor::FromVector(b_captured.Shape(), std::move(db));
        }
        return {ga, gb};
      });
}

}  // namespace sthsl
