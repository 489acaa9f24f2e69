#ifndef STHSL_DATA_CRIME_DATASET_H_
#define STHSL_DATA_CRIME_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace sthsl {

/// A citywide crime dataset: the paper's three-way tensor X in R^{R x T x C}
/// over a grid-partitioned urban space (R = rows x cols regions), T daily
/// time slots and C crime categories.
class CrimeDataset {
 public:
  CrimeDataset() = default;
  /// `counts` must have shape (rows*cols, days, categories).
  CrimeDataset(std::string city_name, int64_t rows, int64_t cols,
               std::vector<std::string> category_names, Tensor counts);

  const std::string& city_name() const { return city_name_; }

  /// Seed of the synthetic generator that produced this dataset, recorded
  /// by GenerateCrimeData for run-ledger provenance; -1 when unknown (CSV
  /// round-trips do not persist it).
  int64_t generator_seed() const { return generator_seed_; }
  void set_generator_seed(int64_t seed) { generator_seed_ = seed; }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t num_regions() const { return rows_ * cols_; }
  int64_t num_days() const { return days_; }
  int64_t num_categories() const { return cats_; }
  const std::vector<std::string>& category_names() const {
    return category_names_;
  }

  /// The full (R, T, C) tensor (detached; no autograd).
  const Tensor& counts() const { return counts_; }

  /// Nonzero cells of the full (R, T, C) tensor.
  int64_t Nnz() const { return nnz_; }

  /// Fill fraction nnz / (R·T·C).
  double Density() const;

  /// Nonzero cells of the input window covering days [t_end - window,
  /// t_end) — the per-window sparsity statistic behind the paper's Fig. 1
  /// discussion (most region-day-category cells are empty).
  int64_t WindowNnz(int64_t t_end, int64_t window) const;

  /// Crime count at region r, day t, category c.
  float Count(int64_t r, int64_t t, int64_t c) const;

  /// Total reported cases of category `c` (the paper's Table II statistic).
  double CategoryTotal(int64_t c) const;

  /// Density degree of region r: fraction of days with at least one crime of
  /// any category (the paper's Fig. 1 / RQ3 statistic).
  double DensityDegree(int64_t r) const;

  /// Density degree restricted to one category.
  double DensityDegree(int64_t r, int64_t c) const;

  /// Mean and standard deviation over the whole tensor (Eq. 1 Z-score).
  void ComputeMoments(float* mean, float* stddev) const;

  /// Sub-dataset covering days [start, start+length).
  CrimeDataset SliceDays(int64_t start, int64_t length) const;

  /// Input window: days [t_end - window, t_end) as an (R, window, C) tensor.
  Tensor WindowInput(int64_t t_end, int64_t window) const;

  /// Ground truth of day t as an (R, C) matrix (the paper's X_{T+1}).
  Tensor TargetDay(int64_t t) const;

  /// Persists as CSV rows (region, day, category, count); loads it back.
  Status SaveCsv(const std::string& path) const;

  /// Largest R·T·C a loaded CSV may describe (2^27 cells, 512 MiB of
  /// counts; the paper's NYC tensor has 0.75M).
  static constexpr int64_t kMaxCsvCells = int64_t{1} << 27;

  /// Loads what SaveCsv wrote. Every row must repeat the first row's city
  /// and grid geometry; numeric fields must parse whole, and counts must be
  /// finite and >= 0. Errors name the file and the line: InvalidArgument
  /// for malformed rows, OutOfRange for indices outside the geometry and
  /// for tensors above kMaxCsvCells.
  static Result<CrimeDataset> LoadCsv(const std::string& path);

 private:
  /// Flat offset of cell (r, t, c) in counts_.
  size_t Offset(int64_t r, int64_t t, int64_t c) const {
    return static_cast<size_t>((r * days_ + t) * cats_ + c);
  }

  /// Days [start, start + length) of every region, as the flat data of an
  /// (R, length, C) tensor. A plain copy rather than the Narrow op: a
  /// slice of data needs no autograd node or profiler record.
  std::vector<float> CopyDays(int64_t start, int64_t length) const;

  std::string city_name_;
  int64_t generator_seed_ = -1;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t days_ = 0;
  int64_t cats_ = 0;
  std::vector<std::string> category_names_;
  Tensor counts_;  // (R, T, C)
  int64_t nnz_ = 0;
};

/// Chronological train/validation/test split. Following the paper: the test
/// set is the final 1/8 of days (train:test = 7:1) and validation is the
/// last `validation_days` of the training span.
struct DatasetSplit {
  CrimeDataset train;       // training days excluding validation
  CrimeDataset validation;  // last `validation_days` of the training span
  CrimeDataset test;
  int64_t train_days = 0;
  int64_t validation_days = 0;
  int64_t test_days = 0;
};

DatasetSplit SplitDataset(const CrimeDataset& data,
                          int64_t validation_days = 30);

}  // namespace sthsl

#endif  // STHSL_DATA_CRIME_DATASET_H_
