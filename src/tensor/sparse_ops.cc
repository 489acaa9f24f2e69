#include "tensor/sparse_ops.h"

#include <memory>
#include <utility>

#include "sparse/kernels.h"
#include "util/check.h"

namespace sthsl {

sparse::SparseTensor ToSparse(const Tensor& t, sparse::ZeroPolicy policy) {
  STHSL_CHECK(t.Defined());
  return sparse::SparseTensor::FromDense(t.Data().data(), t.Shape(), policy);
}

Tensor SparseToDense(const sparse::SparseTensor& s) {
  STHSL_CHECK(s.Defined());
  return Tensor::FromVector(s.shape(), s.ToDense());
}

Tensor SparseValues(const Tensor& dense, const sparse::SparseTensor& pattern) {
  STHSL_CHECK(dense.Defined() && pattern.Defined());
  STHSL_CHECK(dense.Shape() == pattern.shape())
      << "SparseValues: pattern/dense shape mismatch";
  const sparse::SparseTensor coo = pattern.ToCoo();
  const int64_t nnz = coo.Nnz();
  std::vector<float> out(static_cast<size_t>(nnz));
  sparse::GatherFlatKernel(dense.Data().data(), coo.FlatIndices().data(), nnz,
                           out.data());
  Tensor dense_captured = dense;
  return MakeResult(
      {nnz}, std::move(out), "sparse_values", {dense},
      [dense_captured, coo, nnz](const Tensor& g) -> std::vector<Tensor> {
        std::vector<float> dg(
            static_cast<size_t>(dense_captured.Numel()), 0.0f);
        sparse::ScatterFlatKernel(g.Data().data(), coo.FlatIndices().data(),
                                  nnz, dg.data());
        return {Tensor::FromVector(dense_captured.Shape(), std::move(dg))};
      });
}

Tensor SpMM(const sparse::SparseTensor& pattern, const Tensor& values,
            const Tensor& b, bool transpose_a) {
  STHSL_CHECK(pattern.Defined() && pattern.layout() == sparse::Layout::kCsr)
      << "SpMM needs a CSR pattern";
  const int64_t m = pattern.shape()[0];
  const int64_t k = pattern.shape()[1];
  const int64_t nnz = pattern.Nnz();
  STHSL_CHECK(values.Defined() && values.Dim() == 1 && values.Numel() == nnz)
      << "SpMM: values must be a 1-D tensor of length nnz";
  STHSL_CHECK(b.Defined() && b.Dim() == 2);
  STHSL_CHECK_EQ(b.Size(0), transpose_a ? m : k) << "SpMM inner-dim mismatch";
  const int64_t n = b.Size(1);
  const int64_t out_rows = transpose_a ? k : m;

  // The transpose index serves the forward when transpose_a, and the
  // dense-side gradient of the non-transposed dispatch; build it once and
  // share it with the backward closure.
  auto transpose = std::make_shared<sparse::CsrTransposeIndex>();
  const bool b_grad = NeedsGrad(b);
  if (transpose_a || b_grad) *transpose = sparse::BuildCsrTranspose(pattern);

  std::vector<float> out(static_cast<size_t>(out_rows * n), 0.0f);
  if (transpose_a) {
    sparse::SpmmCsrDense(transpose->row_ptr->data(), transpose->cols->data(),
                         values.Data().data(), transpose->perm->data(), k,
                         b.Data().data(), n, out.data());
  } else {
    sparse::SpmmCsrDense(pattern.RowPtr().data(), pattern.Cols().data(),
                         values.Data().data(), nullptr, m, b.Data().data(), n,
                         out.data());
  }

  Tensor values_captured = values;
  Tensor b_captured = b;
  return MakeResult(
      {out_rows, n}, std::move(out), "spmm", {values, b},
      [pattern, transpose, values_captured, b_captured, transpose_a, m, k, n,
       nnz](const Tensor& g) -> std::vector<Tensor> {
        if (transpose->row_ptr == nullptr &&
            NeedsGrad(b_captured) != transpose_a) {
          // b started without grad but gained it between forward and
          // backward — not reachable through the public API, but keep the
          // index available rather than crash.
          *transpose = sparse::BuildCsrTranspose(pattern);
        }
        Tensor dvalues;
        Tensor db;
        if (NeedsGrad(values_captured)) {
          std::vector<float> dv(static_cast<size_t>(nnz), 0.0f);
          if (transpose_a) {
            sparse::SpmmValueGrad(transpose->row_ptr->data(),
                                  transpose->cols->data(), g.Data().data(),
                                  b_captured.Data().data(),
                                  transpose->perm->data(), k, n, dv.data());
          } else {
            sparse::SpmmValueGrad(pattern.RowPtr().data(),
                                  pattern.Cols().data(), g.Data().data(),
                                  b_captured.Data().data(), nullptr, m, n,
                                  dv.data());
          }
          dvalues = Tensor::FromVector({nnz}, std::move(dv));
        }
        if (NeedsGrad(b_captured)) {
          std::vector<float> dbv(
              static_cast<size_t>(b_captured.Numel()), 0.0f);
          if (transpose_a) {
            // out = A^T·b  =>  db = A·g.
            sparse::SpmmCsrDense(pattern.RowPtr().data(),
                                 pattern.Cols().data(),
                                 values_captured.Data().data(), nullptr, m,
                                 g.Data().data(), n, dbv.data());
          } else {
            // out = A·b  =>  db = A^T·g.
            sparse::SpmmCsrDense(transpose->row_ptr->data(),
                                 transpose->cols->data(),
                                 values_captured.Data().data(),
                                 transpose->perm->data(), k, g.Data().data(),
                                 n, dbv.data());
          }
          db = Tensor::FromVector(b_captured.Shape(), std::move(dbv));
        }
        return {dvalues, db};
      });
}

}  // namespace sthsl
