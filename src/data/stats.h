#ifndef STHSL_DATA_STATS_H_
#define STHSL_DATA_STATS_H_

#include <cstdint>
#include <vector>

#include "data/crime_dataset.h"

namespace sthsl {

/// Histogram of region density degrees (the paper's Fig. 1): bucket i counts
/// regions with density in (i*bin_width, (i+1)*bin_width], except bucket 0
/// which also includes exactly-zero regions.
std::vector<int64_t> DensityHistogram(const CrimeDataset& data,
                                      double bin_width = 0.25);

/// Per-region total cases of category `c` over days [start, start+length),
/// sorted descending (the paper's Fig. 2 skew plot).
std::vector<double> SortedRegionCounts(const CrimeDataset& data, int64_t c,
                                       int64_t start, int64_t length);

/// Region ids whose density degree lies in (lo, hi] (the paper's RQ3
/// sparsity groups, e.g. (0, 0.25] and (0.25, 0.5]).
std::vector<int64_t> RegionsInDensityRange(const CrimeDataset& data,
                                           double lo, double hi);

/// Gini coefficient of the per-region totals of category `c` — a scalar
/// measure of how skewed the spatial distribution is (1 = all crime in one
/// region). Used by tests to assert the generator plants the Fig. 2 skew.
double SpatialGini(const CrimeDataset& data, int64_t c);

/// Per-window sparsity summary: nnz / fill-fraction statistics over every
/// length-`window` input window the dataset can serve (the Fig. 1 sparsity
/// picture at the granularity the model actually consumes; printed by
/// `sthsl_cli stats --verbose 1`).
struct WindowDensitySummary {
  int64_t window = 0;
  int64_t num_windows = 0;
  int64_t min_nnz = 0;
  int64_t max_nnz = 0;
  double mean_nnz = 0.0;
  double min_density = 0.0;
  double max_density = 0.0;
  double mean_density = 0.0;
};

WindowDensitySummary SummarizeWindowDensity(const CrimeDataset& data,
                                            int64_t window);

}  // namespace sthsl

#endif  // STHSL_DATA_STATS_H_
