#include "util/csv.h"

#include <fstream>
#include <sstream>

namespace sthsl {
namespace {

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteCell(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void AppendRow(std::ostream& os, const std::vector<std::string>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) os << ',';
    os << QuoteCell(row[i]);
  }
  os << '\n';
}

}  // namespace

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

Status WriteCsv(const std::string& path, const CsvTable& table) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  AppendRow(file, table.header);
  for (const auto& row : table.rows) AppendRow(file, row);
  file.flush();
  if (!file.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<CsvTable> ReadCsv(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  CsvTable table;
  std::string line;
  bool have_header = false;
  while (std::getline(file, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!have_header) {
      table.header = SplitCsvLine(line);
      have_header = true;
    } else {
      table.rows.push_back(SplitCsvLine(line));
    }
  }
  if (!have_header) return Status::IoError("empty csv file: " + path);
  return table;
}

}  // namespace sthsl
