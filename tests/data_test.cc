// Tests for the crime-data substrate: dataset accessors, splits, CSV
// round-trip, and statistical properties of the synthetic generator (the
// phenomena of the paper's Figs. 1-2 must actually be planted).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "data/crime_dataset.h"
#include "data/generator.h"
#include "data/stats.h"

namespace sthsl {
namespace {

CrimeDataset TinyDataset() {
  // 2x1 regions, 4 days, 2 categories. Region 0 busy, region 1 quiet.
  std::vector<float> counts = {
      // region 0: day-major, categories inner
      2, 0, 1, 1, 0, 3, 4, 0,
      // region 1
      0, 0, 0, 1, 0, 0, 0, 0,
  };
  return CrimeDataset("tiny", 2, 1, {"A", "B"},
                      Tensor::FromVector({2, 4, 2}, counts));
}

TEST(CrimeDatasetTest, BasicAccessors) {
  CrimeDataset data = TinyDataset();
  EXPECT_EQ(data.num_regions(), 2);
  EXPECT_EQ(data.num_days(), 4);
  EXPECT_EQ(data.num_categories(), 2);
  EXPECT_EQ(data.Count(0, 0, 0), 2.0f);
  EXPECT_EQ(data.Count(0, 3, 0), 4.0f);
  EXPECT_EQ(data.Count(1, 1, 1), 1.0f);
}

TEST(CrimeDatasetTest, CategoryTotals) {
  CrimeDataset data = TinyDataset();
  EXPECT_DOUBLE_EQ(data.CategoryTotal(0), 2 + 1 + 4);
  EXPECT_DOUBLE_EQ(data.CategoryTotal(1), 3 + 1 + 1);
}

TEST(CrimeDatasetTest, DensityDegrees) {
  CrimeDataset data = TinyDataset();
  // Region 0 has crime on all 4 days; region 1 only on day 1.
  EXPECT_DOUBLE_EQ(data.DensityDegree(0), 1.0);
  EXPECT_DOUBLE_EQ(data.DensityDegree(1), 0.25);
  // Category-specific: region 0 category 0 active on days 0,1,3.
  EXPECT_DOUBLE_EQ(data.DensityDegree(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(data.DensityDegree(1, 0), 0.0);
}

TEST(CrimeDatasetTest, WindowAndTarget) {
  CrimeDataset data = TinyDataset();
  Tensor window = data.WindowInput(3, 2);  // days 1..2
  EXPECT_EQ(window.Shape(), (std::vector<int64_t>{2, 2, 2}));
  EXPECT_EQ(window.At({0, 0, 0}), 1.0f);  // region 0, day 1, cat 0
  Tensor target = data.TargetDay(3);
  EXPECT_EQ(target.Shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(target.At({0, 0}), 4.0f);
}

TEST(CrimeDatasetTest, SliceDays) {
  CrimeDataset data = TinyDataset();
  CrimeDataset tail = data.SliceDays(2, 2);
  EXPECT_EQ(tail.num_days(), 2);
  EXPECT_EQ(tail.Count(0, 1, 0), 4.0f);
}

TEST(CrimeDatasetTest, MomentsMatchManualComputation) {
  CrimeDataset data = TinyDataset();
  float mean;
  float stddev;
  data.ComputeMoments(&mean, &stddev);
  const auto& v = data.counts().Data();
  double m = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  EXPECT_NEAR(mean, m, 1e-6);
  EXPECT_GT(stddev, 0.0f);
}

TEST(CrimeDatasetTest, SplitProportions) {
  CrimeGenConfig config;
  config.rows = 4;
  config.cols = 4;
  config.days = 240;
  CrimeDataset data = GenerateCrimeData(config);
  DatasetSplit split = SplitDataset(data, /*validation_days=*/30);
  EXPECT_EQ(split.test_days, 30);                 // 240 / 8
  EXPECT_EQ(split.validation_days, 30);
  EXPECT_EQ(split.train_days, 240 - 30 - 30);
  EXPECT_EQ(split.train.num_days() + split.validation.num_days() +
                split.test.num_days(),
            240);
}

TEST(CrimeDatasetTest, CsvRoundTrip) {
  CrimeDataset data = TinyDataset();
  const std::string path = "/tmp/sthsl_test_roundtrip.csv";
  ASSERT_TRUE(data.SaveCsv(path).ok());
  auto loaded_or = CrimeDataset::LoadCsv(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const CrimeDataset& loaded = loaded_or.value();
  EXPECT_EQ(loaded.city_name(), "tiny");
  EXPECT_EQ(loaded.num_regions(), data.num_regions());
  EXPECT_EQ(loaded.num_days(), data.num_days());
  EXPECT_EQ(loaded.num_categories(), data.num_categories());
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t t = 0; t < 4; ++t) {
      for (int64_t c = 0; c < 2; ++c) {
        EXPECT_EQ(loaded.Count(r, t, c), data.Count(r, t, c));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CrimeDatasetTest, CsvRoundTripWithNonZeroLastCell) {
  // Regression: the extent sentinel must not clobber a real count at the
  // last (region, day, category) cell.
  std::vector<float> counts = {1, 2, 3, 4, 5, 6, 7, 8};
  CrimeDataset data("t", 2, 1, {"A", "B"},
                    Tensor::FromVector({2, 2, 2}, counts));
  const std::string path = "/tmp/sthsl_test_last_cell.csv";
  ASSERT_TRUE(data.SaveCsv(path).ok());
  auto loaded = CrimeDataset::LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().Count(1, 1, 1), 8.0f);
  std::remove(path.c_str());
}

TEST(CrimeDatasetTest, LoadMissingFileFails) {
  auto result = CrimeDataset::LoadCsv("/tmp/does_not_exist_sthsl.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIoError);
}

// Writes a crime CSV with SaveCsv's header and `rows` as its body, loads
// it, and returns the load status.
Status LoadCsvBody(const std::string& rows) {
  const std::string path = "/tmp/sthsl_test_malformed.csv";
  {
    std::ofstream file(path);
    file << "city,rows,cols,region,day,category,category_name,count\n"
         << rows;
  }
  Status status = CrimeDataset::LoadCsv(path).status();
  std::remove(path.c_str());
  return status;
}

void ExpectRejected(const std::string& rows, Status::Code code,
                    const std::string& message) {
  const Status status = LoadCsvBody(rows);
  ASSERT_FALSE(status.ok()) << rows;
  EXPECT_EQ(status.code(), code) << status.ToString();
  EXPECT_NE(status.message().find("sthsl_test_malformed.csv"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(message), std::string::npos)
      << status.ToString();
}

TEST(CrimeDatasetTest, LoadCsvAcceptsWellFormedRows) {
  EXPECT_TRUE(LoadCsvBody("c,2,1,1,3,1,B,0\nc,2,1,0,0,0,A,2\n").ok());
}

TEST(CrimeDatasetTest, LoadCsvRejectsNonFiniteOrNegativeCounts) {
  for (const char* count : {"nan", "inf", "-inf", "-5", "1e40"}) {
    ExpectRejected(std::string("c,2,1,0,0,0,A,") + count + "\n",
                   Status::Code::kInvalidArgument, "line 2: count");
  }
}

TEST(CrimeDatasetTest, LoadCsvRejectsGarbageFields) {
  const Status::Code bad = Status::Code::kInvalidArgument;
  ExpectRejected("c,2,1,0,0,0,A,3x\n", bad, "line 2: count '3x'");
  ExpectRejected("c,2,1,0,0,0,A,\n", bad, "line 2: count ''");
  ExpectRejected("c,2,1,0,0,0,A,1\nc,2,1,zero,0,0,A,1\n", bad,
                 "line 3: region, day and category must be integers");
  ExpectRejected("c,2,1,0, 1,0,A,1\n", bad, "line 2: region, day");
  ExpectRejected("c,two,1,0,0,0,A,1\n", bad, "line 2: rows and cols");
  ExpectRejected("c,0,1,0,0,0,A,1\n", bad, "line 2: rows and cols");
  ExpectRejected("c,2,1,0,0,0,A,1\n\n", bad, "line 3: expected 8 fields");
}

TEST(CrimeDatasetTest, LoadCsvRejectsRowsThatChangeCityOrGeometry) {
  const Status::Code bad = Status::Code::kInvalidArgument;
  ExpectRejected("c,2,1,0,0,0,A,1\nc,1,2,0,1,0,A,1\n", bad,
                 "line 3: city and geometry 'c,1,2'");
  ExpectRejected("c,2,1,0,0,0,A,1\nc,2,1,1,0,0,A,1\nd,2,1,0,1,0,A,1\n",
                 bad, "line 4: city and geometry 'd,2,1'");
}

TEST(CrimeDatasetTest, LoadCsvRejectsIndicesOutsideTheGrid) {
  const Status::Code range = Status::Code::kOutOfRange;
  ExpectRejected("c,2,1,2,0,0,A,1\n", range, "line 2: region 2");
  ExpectRejected("c,2,1,0,0,0,A,1\nc,2,1,-1,0,0,A,1\n", range,
                 "line 3: region -1");
  ExpectRejected("c,2,1,0,-1,0,A,1\n", range, "line 2: day -1");
  ExpectRejected("c,2,1,0,0,9223372036854775807,A,1\n", range,
                 "line 2: day 0 or category 9223372036854775807");
}

TEST(CrimeDatasetTest, LoadCsvRejectsTensorsAboveTheCellCap) {
  const Status::Code range = Status::Code::kOutOfRange;
  // Unchecked, each of these would reach a multi-terabyte allocation or an
  // int64 overflow.
  ExpectRejected("c,4000000,4000000,0,0,0,A,1\n", range,
                 "line 2: a 4000000x4000000 grid exceeds the cap");
  ExpectRejected("c,9223372036854775807,3,0,0,0,A,1\n", range,
                 "line 2: a 9223372036854775807x3 grid");
  ExpectRejected("c,256,1,0,100000000,3,A,1\n", range,
                 "256 regions x 100000001 days x 4 categories exceeds");
  // Just at the cap by days alone: R = 1, T = cap, C = 2 is over it.
  ExpectRejected("c,1,1,0," + std::to_string(CrimeDataset::kMaxCsvCells - 1) +
                     ",1,A,1\n",
                 range, "categories exceeds the cap");
}

TEST(CrimeDatasetTest, WindowStatsMatchManualCount) {
  CrimeGenConfig gen;
  gen.rows = 4;
  gen.cols = 4;
  gen.days = 64;
  gen.num_zones = 3;
  gen.category_totals = {300, 700, 350, 400};
  gen.seed = 77;
  CrimeDataset data = GenerateCrimeData(gen);
  const int64_t window = 7;
  const int64_t t_end = 30;
  int64_t expected = 0;
  for (int64_t r = 0; r < data.num_regions(); ++r) {
    for (int64_t t = t_end - window; t < t_end; ++t) {
      for (int64_t c = 0; c < data.num_categories(); ++c) {
        expected += data.Count(r, t, c) != 0.0f ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(data.WindowNnz(t_end, window), expected);

  const WindowDensitySummary summary = SummarizeWindowDensity(data, window);
  EXPECT_EQ(summary.num_windows, data.num_days() - window + 1);
  EXPECT_LE(summary.min_nnz, expected);
  EXPECT_GE(summary.max_nnz, expected);
  EXPECT_GT(summary.mean_density, 0.0);
  EXPECT_LE(summary.mean_density, 1.0);
}

// -- Generator statistical properties --------------------------------------------

TEST(GeneratorTest, DeterministicInSeed) {
  CrimeGenConfig config;
  config.rows = 3;
  config.cols = 3;
  config.days = 30;
  CrimeDataset a = GenerateCrimeData(config);
  CrimeDataset b = GenerateCrimeData(config);
  EXPECT_EQ(a.counts().Data(), b.counts().Data());
  config.seed += 1;
  CrimeDataset c = GenerateCrimeData(config);
  EXPECT_NE(a.counts().Data(), c.counts().Data());
}

TEST(GeneratorTest, CategoryTotalsNearTargets) {
  CrimeGenConfig config = NycSmallPreset();
  CrimeDataset data = GenerateCrimeData(config);
  for (int64_t c = 0; c < data.num_categories(); ++c) {
    const double target = config.category_totals[static_cast<size_t>(c)];
    const double actual = data.CategoryTotal(c);
    // Poisson emission + zone fluctuation: expect within 25% of target.
    EXPECT_GT(actual, target * 0.75) << "category " << c;
    EXPECT_LT(actual, target * 1.25) << "category " << c;
  }
}

TEST(GeneratorTest, PlantsSkewedSpatialDistribution) {
  CrimeDataset data = GenerateCrimeData(NycSmallPreset());
  // The paper's Fig. 2: heavy-tailed region totals. Gini above 0.4 means a
  // strongly skewed distribution.
  for (int64_t c = 0; c < data.num_categories(); ++c) {
    EXPECT_GT(SpatialGini(data, c), 0.4) << "category " << c;
  }
  // Top region should dwarf the median region.
  auto sorted = SortedRegionCounts(data, 0, 0, data.num_days());
  EXPECT_GT(sorted.front(), 5.0 * sorted[sorted.size() / 2]);
}

TEST(GeneratorTest, PlantsSparseDensities) {
  CrimeDataset data = GenerateCrimeData(NycSmallPreset());
  // The paper's Fig. 1: a large share of regions live in the sparse bins.
  auto histogram = DensityHistogram(data, 0.25);
  ASSERT_EQ(histogram.size(), 4u);
  const int64_t total =
      std::accumulate(histogram.begin(), histogram.end(), int64_t{0});
  EXPECT_EQ(total, data.num_regions());
  // Sparse half (density <= 0.5) must hold a substantial fraction.
  EXPECT_GT(histogram[0] + histogram[1], total / 3);
}

TEST(GeneratorTest, SortedCountsMonotone) {
  CrimeDataset data = GenerateCrimeData(ChicagoSmallPreset());
  auto sorted = SortedRegionCounts(data, 1, 0, 30);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i], sorted[i - 1]);
  }
}

TEST(GeneratorTest, RegionsInDensityRangePartition) {
  CrimeDataset data = GenerateCrimeData(NycSmallPreset());
  auto sparse = RegionsInDensityRange(data, 0.0, 0.25);
  auto mid = RegionsInDensityRange(data, 0.25, 0.5);
  auto dense = RegionsInDensityRange(data, 0.5, 1.0);
  auto zero = RegionsInDensityRange(data, -1.0, 0.0);
  EXPECT_EQ(static_cast<int64_t>(sparse.size() + mid.size() + dense.size() +
                                 zero.size()),
            data.num_regions());
}

TEST(GeneratorTest, PresetDimensionsMatchPaper) {
  CrimeGenConfig nyc = NycPreset();
  EXPECT_EQ(nyc.rows * nyc.cols, 256);  // paper: 256 regions in NYC
  EXPECT_EQ(nyc.days, 730);
  CrimeGenConfig chi = ChicagoPreset();
  EXPECT_EQ(chi.rows * chi.cols, 168);  // paper: 168 regions in Chicago
  EXPECT_EQ(chi.category_names.size(), 4u);
}

TEST(GeneratorTest, ZoneStructureInducesCrossRegionCorrelation) {
  // Two runs of the same city must show higher correlation between nearby
  // region pairs than the global average — i.e. spatial structure exists.
  CrimeGenConfig config = NycSmallPreset();
  config.days = 365;
  CrimeDataset data = GenerateCrimeData(config);
  const int64_t days = data.num_days();

  auto daily_series = [&](int64_t r) {
    std::vector<double> series(static_cast<size_t>(days), 0.0);
    for (int64_t t = 0; t < days; ++t) {
      for (int64_t c = 0; c < data.num_categories(); ++c) {
        series[static_cast<size_t>(t)] += data.Count(r, t, c);
      }
    }
    return series;
  };
  auto correlation = [&](const std::vector<double>& a,
                         const std::vector<double>& b) {
    const double n = static_cast<double>(a.size());
    double ma = 0.0;
    double mb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      ma += a[i];
      mb += b[i];
    }
    ma /= n;
    mb /= n;
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      cov += (a[i] - ma) * (b[i] - mb);
      va += (a[i] - ma) * (a[i] - ma);
      vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
  };

  // Busiest region and its grid neighbor should correlate positively via the
  // shared zone fluctuation.
  auto totals = SortedRegionCounts(data, 0, 0, days);
  int64_t busiest = 0;
  double best = -1.0;
  for (int64_t r = 0; r < data.num_regions(); ++r) {
    double total = 0.0;
    for (int64_t t = 0; t < days; ++t) total += data.Count(r, t, 0);
    if (total > best) {
      best = total;
      busiest = r;
    }
  }
  const int64_t neighbor =
      busiest % data.cols() + 1 < data.cols() ? busiest + 1 : busiest - 1;
  const double corr =
      correlation(daily_series(busiest), daily_series(neighbor));
  EXPECT_GT(corr, 0.1) << "neighboring regions should co-fluctuate";
}

}  // namespace
}  // namespace sthsl
