#include "sparse/sparse_tensor.h"

#include <utility>

#include "util/check.h"
#include "util/obs/obs.h"

namespace sthsl::sparse {
namespace {

int64_t ProductOf(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return n;
}

/// Wraps a buffer in a shared handle that participates in the observability
/// layer's tensor-memory accounting, mirroring TensorImpl: the sparsity
/// bench's "peak tensor bytes" therefore covers index and value storage,
/// not just dense float buffers.
template <typename T>
std::shared_ptr<const std::vector<T>> TrackStorage(std::vector<T> buffer) {
  const int64_t bytes =
      static_cast<int64_t>(buffer.size()) * static_cast<int64_t>(sizeof(T));
  if (obs::TraceEnabled()) obs::OnTensorAlloc(bytes);
  return std::shared_ptr<const std::vector<T>>(
      new std::vector<T>(std::move(buffer)), [bytes](const std::vector<T>* p) {
        if (obs::TraceEnabled()) obs::OnTensorFree(bytes);
        delete p;
      });
}

}  // namespace

SparseTensor SparseTensor::FromDense(const float* data,
                                     std::vector<int64_t> shape,
                                     ZeroPolicy policy) {
  STHSL_CHECK(!shape.empty()) << "sparse tensor needs a shape";
  const int64_t numel = ProductOf(shape);
  STHSL_CHECK_GE(numel, 0);
  std::vector<int64_t> indices;
  std::vector<float> values;
  for (int64_t i = 0; i < numel; ++i) {
    if (policy == ZeroPolicy::kDropZeros && data[i] == 0.0f) continue;
    indices.push_back(i);
    values.push_back(data[i]);
  }
  SparseTensor out;
  out.shape_ = std::move(shape);
  out.layout_ = Layout::kCoo;
  out.flat_indices_ = TrackStorage(std::move(indices));
  out.values_ = TrackStorage(std::move(values));
  return out;
}

Result<SparseTensor> SparseTensor::CooFromParts(
    std::vector<int64_t> shape, std::vector<int64_t> flat_indices,
    std::vector<float> values) {
  SparseTensor out;
  out.shape_ = std::move(shape);
  out.layout_ = Layout::kCoo;
  out.flat_indices_ = TrackStorage(std::move(flat_indices));
  out.values_ = TrackStorage(std::move(values));
  Status status = out.Validate();
  if (!status.ok()) return status;
  return out;
}

Result<SparseTensor> SparseTensor::CsrFromParts(std::vector<int64_t> shape,
                                                std::vector<int64_t> row_ptr,
                                                std::vector<int64_t> cols,
                                                std::vector<float> values) {
  SparseTensor out;
  out.shape_ = std::move(shape);
  out.layout_ = Layout::kCsr;
  out.row_ptr_ = TrackStorage(std::move(row_ptr));
  out.cols_ = TrackStorage(std::move(cols));
  out.values_ = TrackStorage(std::move(values));
  Status status = out.Validate();
  if (!status.ok()) return status;
  return out;
}

int64_t SparseTensor::Numel() const { return ProductOf(shape_); }

int64_t SparseTensor::Nnz() const {
  return values_ == nullptr ? 0 : static_cast<int64_t>(values_->size());
}

double SparseTensor::Density() const {
  const int64_t numel = Numel();
  if (numel <= 0) return 0.0;
  return static_cast<double>(Nnz()) / static_cast<double>(numel);
}

int64_t SparseTensor::StorageBytes() const {
  int64_t bytes = 0;
  if (flat_indices_) bytes += static_cast<int64_t>(flat_indices_->size()) * 8;
  if (row_ptr_) bytes += static_cast<int64_t>(row_ptr_->size()) * 8;
  if (cols_) bytes += static_cast<int64_t>(cols_->size()) * 8;
  if (values_) bytes += static_cast<int64_t>(values_->size()) * 4;
  return bytes;
}

SparseTensor SparseTensor::ToCoo() const {
  if (layout_ == Layout::kCoo) return *this;
  STHSL_CHECK(Defined());
  const int64_t ncols = shape_[1];
  const auto& row_ptr = *row_ptr_;
  const auto& cols = *cols_;
  std::vector<int64_t> flat(cols.size());
  for (int64_t r = 0; r + 1 < static_cast<int64_t>(row_ptr.size()); ++r) {
    for (int64_t e = row_ptr[static_cast<size_t>(r)];
         e < row_ptr[static_cast<size_t>(r + 1)]; ++e) {
      flat[static_cast<size_t>(e)] =
          r * ncols + cols[static_cast<size_t>(e)];
    }
  }
  SparseTensor out;
  out.shape_ = shape_;
  out.layout_ = Layout::kCoo;
  out.flat_indices_ = TrackStorage(std::move(flat));
  out.values_ = values_;  // shared, entry order is unchanged
  return out;
}

SparseTensor SparseTensor::ToCsr() const {
  if (layout_ == Layout::kCsr) return *this;
  STHSL_CHECK(Defined());
  STHSL_CHECK_EQ(static_cast<int64_t>(shape_.size()), 2)
      << "CSR is a 2-D layout";
  const int64_t nrows = shape_[0];
  const int64_t ncols = shape_[1];
  const auto& flat = *flat_indices_;
  std::vector<int64_t> row_ptr(static_cast<size_t>(nrows + 1), 0);
  std::vector<int64_t> cols(flat.size());
  // Flat indices are sorted, so entries are already grouped by ascending
  // row with ascending columns inside each row; one pass fills both arrays.
  for (size_t e = 0; e < flat.size(); ++e) {
    const int64_t r = flat[e] / ncols;
    cols[e] = flat[e] % ncols;
    ++row_ptr[static_cast<size_t>(r + 1)];
  }
  for (int64_t r = 0; r < nrows; ++r) {
    row_ptr[static_cast<size_t>(r + 1)] += row_ptr[static_cast<size_t>(r)];
  }
  SparseTensor out;
  out.shape_ = shape_;
  out.layout_ = Layout::kCsr;
  out.row_ptr_ = TrackStorage(std::move(row_ptr));
  out.cols_ = TrackStorage(std::move(cols));
  out.values_ = values_;  // shared, entry order is unchanged
  return out;
}

void SparseTensor::ToDenseInto(float* out) const {
  const int64_t numel = Numel();
  for (int64_t i = 0; i < numel; ++i) out[i] = 0.0f;
  const auto& values = *values_;
  if (layout_ == Layout::kCoo) {
    const auto& flat = *flat_indices_;
    for (size_t e = 0; e < flat.size(); ++e) {
      out[flat[e]] = values[e];
    }
    return;
  }
  const int64_t ncols = shape_[1];
  const auto& row_ptr = *row_ptr_;
  const auto& cols = *cols_;
  for (int64_t r = 0; r + 1 < static_cast<int64_t>(row_ptr.size()); ++r) {
    for (int64_t e = row_ptr[static_cast<size_t>(r)];
         e < row_ptr[static_cast<size_t>(r + 1)]; ++e) {
      out[r * ncols + cols[static_cast<size_t>(e)]] =
          values[static_cast<size_t>(e)];
    }
  }
}

std::vector<float> SparseTensor::ToDense() const {
  std::vector<float> out(static_cast<size_t>(Numel()));
  ToDenseInto(out.data());
  return out;
}

Status SparseTensor::Validate() const {
  if (shape_.empty()) return Status::InvalidArgument("sparse tensor: empty shape");
  for (int64_t s : shape_) {
    if (s < 0) return Status::InvalidArgument("sparse tensor: negative dim");
  }
  if (values_ == nullptr) {
    return Status::InvalidArgument("sparse tensor: missing values");
  }
  const int64_t nnz = Nnz();
  if (layout_ == Layout::kCoo) {
    if (flat_indices_ == nullptr ||
        static_cast<int64_t>(flat_indices_->size()) != nnz) {
      return Status::InvalidArgument(
          "sparse tensor: COO index/value size mismatch");
    }
    const auto& flat = *flat_indices_;
    const int64_t numel = Numel();
    for (int64_t e = 0; e < nnz; ++e) {
      const int64_t idx = flat[static_cast<size_t>(e)];
      if (idx < 0 || idx >= numel) {
        return Status::OutOfRange("sparse tensor: COO index out of range");
      }
      if (e > 0 && idx <= flat[static_cast<size_t>(e - 1)]) {
        return Status::InvalidArgument(
            "sparse tensor: COO indices must be strictly ascending "
            "(sorted, duplicate-free)");
      }
    }
    return Status::Ok();
  }
  if (shape_.size() != 2) {
    return Status::InvalidArgument("sparse tensor: CSR requires rank 2");
  }
  if (row_ptr_ == nullptr ||
      static_cast<int64_t>(row_ptr_->size()) != shape_[0] + 1) {
    return Status::InvalidArgument("sparse tensor: CSR row_ptr size");
  }
  if (cols_ == nullptr || static_cast<int64_t>(cols_->size()) != nnz) {
    return Status::InvalidArgument(
        "sparse tensor: CSR cols/value size mismatch");
  }
  const auto& row_ptr = *row_ptr_;
  const auto& cols = *cols_;
  if (row_ptr.front() != 0 || row_ptr.back() != nnz) {
    return Status::InvalidArgument("sparse tensor: CSR row_ptr endpoints");
  }
  // All of row_ptr is checked before any column is read: with the endpoints
  // pinned to 0 and nnz, monotone offsets keep every cols[e] in bounds.
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      return Status::InvalidArgument("sparse tensor: CSR row_ptr not "
                                     "monotone");
    }
  }
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const int64_t c = cols[static_cast<size_t>(e)];
      if (c < 0 || c >= shape_[1]) {
        return Status::OutOfRange("sparse tensor: CSR column out of range");
      }
      if (e > row_ptr[r] && c <= cols[static_cast<size_t>(e - 1)]) {
        return Status::InvalidArgument(
            "sparse tensor: CSR columns must be strictly ascending within "
            "each row");
      }
    }
  }
  return Status::Ok();
}

const std::vector<int64_t>& SparseTensor::FlatIndices() const {
  STHSL_CHECK(layout_ == Layout::kCoo) << "FlatIndices is a COO accessor";
  return *flat_indices_;
}

const std::vector<int64_t>& SparseTensor::RowPtr() const {
  STHSL_CHECK(layout_ == Layout::kCsr) << "RowPtr is a CSR accessor";
  return *row_ptr_;
}

const std::vector<int64_t>& SparseTensor::Cols() const {
  STHSL_CHECK(layout_ == Layout::kCsr) << "Cols is a CSR accessor";
  return *cols_;
}

const std::vector<float>& SparseTensor::Values() const { return *values_; }

CsrTransposeIndex BuildCsrTranspose(const SparseTensor& csr) {
  STHSL_CHECK(csr.layout() == Layout::kCsr);
  const int64_t nrows = csr.shape()[0];
  const int64_t ncols = csr.shape()[1];
  const auto& row_ptr = csr.RowPtr();
  const auto& cols = csr.Cols();
  const int64_t nnz = csr.Nnz();

  std::vector<int64_t> t_row_ptr(static_cast<size_t>(ncols + 1), 0);
  for (int64_t e = 0; e < nnz; ++e) {
    ++t_row_ptr[static_cast<size_t>(cols[static_cast<size_t>(e)] + 1)];
  }
  for (int64_t c = 0; c < ncols; ++c) {
    t_row_ptr[static_cast<size_t>(c + 1)] +=
        t_row_ptr[static_cast<size_t>(c)];
  }
  std::vector<int64_t> t_cols(static_cast<size_t>(nnz));
  std::vector<int64_t> perm(static_cast<size_t>(nnz));
  std::vector<int64_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  // Stable counting sort: scanning original rows in ascending order places
  // each transpose row's entries in ascending original-row order.
  for (int64_t r = 0; r < nrows; ++r) {
    for (int64_t e = row_ptr[static_cast<size_t>(r)];
         e < row_ptr[static_cast<size_t>(r + 1)]; ++e) {
      const int64_t c = cols[static_cast<size_t>(e)];
      const int64_t slot = cursor[static_cast<size_t>(c)]++;
      t_cols[static_cast<size_t>(slot)] = r;
      perm[static_cast<size_t>(slot)] = e;
    }
  }
  CsrTransposeIndex out;
  out.row_ptr = TrackStorage(std::move(t_row_ptr));
  out.cols = TrackStorage(std::move(t_cols));
  out.perm = TrackStorage(std::move(perm));
  return out;
}

}  // namespace sthsl::sparse
