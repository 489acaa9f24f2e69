#include "data/crime_dataset.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "util/check.h"
#include "util/csv.h"

namespace sthsl {

CrimeDataset::CrimeDataset(std::string city_name, int64_t rows, int64_t cols,
                           std::vector<std::string> category_names,
                           Tensor counts)
    : city_name_(std::move(city_name)),
      rows_(rows),
      cols_(cols),
      category_names_(std::move(category_names)),
      counts_(std::move(counts)) {
  STHSL_CHECK(counts_.Defined());
  STHSL_CHECK_EQ(counts_.Dim(), 3) << "counts must be (R, T, C)";
  STHSL_CHECK_EQ(counts_.Size(0), rows_ * cols_) << "region count mismatch";
  STHSL_CHECK_EQ(counts_.Size(2),
                 static_cast<int64_t>(category_names_.size()))
      << "category count mismatch";
  days_ = counts_.Size(1);
  cats_ = counts_.Size(2);
  for (float v : counts_.Data()) {
    if (v != 0.0f) ++nnz_;
  }
}

double CrimeDataset::Density() const {
  const int64_t numel = num_regions() * days_ * cats_;
  if (numel == 0) return 0.0;
  return static_cast<double>(nnz_) / static_cast<double>(numel);
}

float CrimeDataset::Count(int64_t r, int64_t t, int64_t c) const {
  STHSL_CHECK(r >= 0 && r < num_regions() && t >= 0 && t < days_ && c >= 0 &&
              c < cats_);
  return counts_.At({r, t, c});
}

double CrimeDataset::CategoryTotal(int64_t c) const {
  STHSL_CHECK(c >= 0 && c < cats_);
  const auto& data = counts_.Data();
  double total = 0.0;
  for (int64_t r = 0; r < num_regions(); ++r) {
    for (int64_t t = 0; t < days_; ++t) total += data[Offset(r, t, c)];
  }
  return total;
}

double CrimeDataset::DensityDegree(int64_t r) const {
  STHSL_CHECK(r >= 0 && r < num_regions());
  const auto& data = counts_.Data();
  int64_t active_days = 0;
  for (int64_t t = 0; t < days_; ++t) {
    for (int64_t c = 0; c < cats_; ++c) {
      if (data[Offset(r, t, c)] > 0.0f) {
        ++active_days;
        break;
      }
    }
  }
  return static_cast<double>(active_days) / static_cast<double>(days_);
}

double CrimeDataset::DensityDegree(int64_t r, int64_t c) const {
  STHSL_CHECK(r >= 0 && r < num_regions());
  STHSL_CHECK(c >= 0 && c < cats_);
  const auto& data = counts_.Data();
  int64_t active_days = 0;
  for (int64_t t = 0; t < days_; ++t) {
    if (data[Offset(r, t, c)] > 0.0f) ++active_days;
  }
  return static_cast<double>(active_days) / static_cast<double>(days_);
}

void CrimeDataset::ComputeMoments(float* mean, float* stddev) const {
  const int64_t numel = num_regions() * days_ * cats_;
  STHSL_CHECK_GT(numel, 0);
  const auto& data = counts_.Data();
  double sum = 0.0;
  for (float v : data) sum += v;
  const double mu = sum / static_cast<double>(numel);
  double var = 0.0;
  for (float v : data) var += (v - mu) * (v - mu);
  var /= static_cast<double>(numel);
  *mean = static_cast<float>(mu);
  *stddev = static_cast<float>(std::sqrt(std::max(var, 1e-12)));
}

std::vector<float> CrimeDataset::CopyDays(int64_t start,
                                          int64_t length) const {
  const auto& data = counts_.Data();
  std::vector<float> out;
  out.reserve(static_cast<size_t>(num_regions() * length * cats_));
  for (int64_t r = 0; r < num_regions(); ++r) {
    out.insert(out.end(), data.begin() + Offset(r, start, 0),
               data.begin() + Offset(r, start + length, 0));
  }
  return out;
}

CrimeDataset CrimeDataset::SliceDays(int64_t start, int64_t length) const {
  STHSL_CHECK(start >= 0 && length >= 0 && start + length <= days_);
  return CrimeDataset(city_name_, rows_, cols_, category_names_,
                      Tensor::FromVector({num_regions(), length, cats_},
                                         CopyDays(start, length)));
}

Tensor CrimeDataset::WindowInput(int64_t t_end, int64_t window) const {
  STHSL_CHECK(t_end - window >= 0 && t_end <= days_)
      << "window [" << t_end - window << ", " << t_end << ") out of range";
  return Tensor::FromVector({num_regions(), window, cats_},
                            CopyDays(t_end - window, window));
}

int64_t CrimeDataset::WindowNnz(int64_t t_end, int64_t window) const {
  STHSL_CHECK(t_end - window >= 0 && t_end <= days_)
      << "window [" << t_end - window << ", " << t_end << ") out of range";
  const std::vector<float> cells = CopyDays(t_end - window, window);
  return std::count_if(cells.begin(), cells.end(),
                       [](float v) { return v != 0.0f; });
}

Tensor CrimeDataset::TargetDay(int64_t t) const {
  STHSL_CHECK(t >= 0 && t < days_);
  return Tensor::FromVector({num_regions(), cats_}, CopyDays(t, 1));
}

Status CrimeDataset::SaveCsv(const std::string& path) const {
  CsvTable table;
  table.header = {"city", "rows", "cols", "region", "day", "category",
                  "category_name", "count"};
  const int64_t regions = num_regions();
  // A sentinel row records the full extent so zero-tail days round-trip.
  // It is written FIRST so that a genuine count at the same cell (written
  // below) overwrites it on load.
  table.rows.push_back({city_name_, std::to_string(rows_),
                        std::to_string(cols_), std::to_string(regions - 1),
                        std::to_string(days_ - 1), std::to_string(cats_ - 1),
                        category_names_[static_cast<size_t>(cats_ - 1)], "0"});
  const auto& data = counts_.Data();
  for (int64_t r = 0; r < regions; ++r) {
    for (int64_t t = 0; t < days_; ++t) {
      for (int64_t c = 0; c < cats_; ++c) {
        const float v = data[Offset(r, t, c)];
        if (v == 0.0f) continue;
        table.rows.push_back({city_name_, std::to_string(rows_),
                              std::to_string(cols_), std::to_string(r),
                              std::to_string(t), std::to_string(c),
                              category_names_[static_cast<size_t>(c)],
                              std::to_string(static_cast<int64_t>(v))});
      }
    }
  }
  return WriteCsv(path, table);
}

namespace {

/// Parses the whole of `field` as a T; false on empty input, trailing
/// bytes or overflow.
template <typename T>
bool ParseWhole(const std::string& field, T* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end && !field.empty();
}

}  // namespace

Result<CrimeDataset> CrimeDataset::LoadCsv(const std::string& path) {
  auto table_or = ReadCsv(path);
  if (!table_or.ok()) return table_or.status();
  const CsvTable& table = table_or.value();
  if (table.header.size() != 8) {
    return Status::InvalidArgument("unexpected crime csv header in " + path);
  }
  if (table.rows.empty()) {
    return Status::InvalidArgument("empty crime csv " + path);
  }

  struct Cell {
    int64_t r, t, c;
    float count;
  };
  std::vector<Cell> cells;
  cells.reserve(table.rows.size());
  const std::vector<std::string>& first = table.rows.front();
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t regions = 0;
  int64_t max_day = 0;
  int64_t max_cat = 0;
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const std::vector<std::string>& row = table.rows[i];
    auto where = [&] {  // line 1 is the header
      return "crime csv " + path + " line " + std::to_string(i + 2) + ": ";
    };
    if (row.size() != 8) {
      return Status::InvalidArgument(where() + "expected 8 fields, got " +
                                     std::to_string(row.size()));
    }
    Cell cell;
    if (!ParseWhole(row[3], &cell.r) || !ParseWhole(row[4], &cell.t) ||
        !ParseWhole(row[5], &cell.c)) {
      return Status::InvalidArgument(
          where() + "region, day and category must be integers");
    }
    if (!ParseWhole(row[7], &cell.count) || !std::isfinite(cell.count) ||
        cell.count < 0.0f) {
      return Status::InvalidArgument(where() + "count '" + row[7] +
                                     "' is not a finite number >= 0");
    }
    if (i == 0) {
      if (!ParseWhole(row[1], &rows) || !ParseWhole(row[2], &cols) ||
          rows < 1 || cols < 1) {
        return Status::InvalidArgument(
            where() + "rows and cols must be integers >= 1");
      }
      if (rows > kMaxCsvCells / cols) {
        return Status::OutOfRange(where() + "a " + row[1] + "x" + row[2] +
                                  " grid exceeds the cap of " +
                                  std::to_string(kMaxCsvCells) + " cells");
      }
      regions = rows * cols;
    } else if (row[0] != first[0] || row[1] != first[1] ||
               row[2] != first[2]) {
      return Status::InvalidArgument(
          where() + "city and geometry '" + row[0] + "," + row[1] + "," +
          row[2] + "' differ from line 2's '" + first[0] + "," + first[1] +
          "," + first[2] + "'");
    }
    if (cell.r < 0 || cell.r >= regions) {
      return Status::OutOfRange(where() + "region " + row[3] +
                                " is outside the " + std::to_string(regions) +
                                "-region grid");
    }
    if (cell.t < 0 || cell.t >= kMaxCsvCells || cell.c < 0 ||
        cell.c >= kMaxCsvCells) {
      return Status::OutOfRange(where() + "day " + row[4] + " or category " +
                                row[5] + " is outside [0, " +
                                std::to_string(kMaxCsvCells) + ")");
    }
    max_day = std::max(max_day, cell.t);
    max_cat = std::max(max_cat, cell.c);
    cells.push_back(cell);
  }
  const int64_t days = max_day + 1;
  const int64_t cats = max_cat + 1;
  // Each factor is at most the cap, so dividing decides the bound before
  // any product can overflow.
  if (days > kMaxCsvCells / regions ||
      cats > kMaxCsvCells / (regions * days)) {
    return Status::OutOfRange(
        "crime csv " + path + ": " + std::to_string(regions) + " regions x " +
        std::to_string(days) + " days x " + std::to_string(cats) +
        " categories exceeds the cap of " + std::to_string(kMaxCsvCells) +
        " cells");
  }

  std::vector<std::string> category_names(static_cast<size_t>(cats));
  std::vector<float> data(static_cast<size_t>(regions * days * cats), 0.0f);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    category_names[static_cast<size_t>(cell.c)] = table.rows[i][6];
    data[static_cast<size_t>((cell.r * days + cell.t) * cats + cell.c)] =
        cell.count;
  }
  for (auto& name : category_names) {
    if (name.empty()) name = "unknown";
  }
  Tensor counts = Tensor::FromVector({regions, days, cats}, std::move(data));
  return CrimeDataset(first[0], rows, cols, std::move(category_names),
                      std::move(counts));
}

DatasetSplit SplitDataset(const CrimeDataset& data, int64_t validation_days) {
  const int64_t days = data.num_days();
  const int64_t test_days = days / 8;
  const int64_t train_span = days - test_days;
  STHSL_CHECK_GT(train_span, validation_days)
      << "dataset too short for the requested validation window";
  DatasetSplit split;
  split.train = data.SliceDays(0, train_span - validation_days);
  split.validation =
      data.SliceDays(train_span - validation_days, validation_days);
  split.test = data.SliceDays(train_span, test_days);
  split.train_days = train_span - validation_days;
  split.validation_days = validation_days;
  split.test_days = test_days;
  return split;
}

}  // namespace sthsl
