#include "src/common/csv.h"

#include <fstream>
#include <sstream>

#include "src/common/logging.h"

namespace proteus {

CsvWriter::CsvWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void CsvWriter::AddRow(const std::vector<std::string>& cells) {
  PROTEUS_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(cells);
}

std::string CsvWriter::Render() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) {
        out << ",";
      }
      out << cells[i];
    }
    out << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) {
    emit(row);
  }
  return out.str();
}

bool CsvWriter::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    PROTEUS_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  f << Render();
  return static_cast<bool>(f);
}

namespace {
std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(cell);
  return cells;
}
}  // namespace

CsvTable ParseCsv(const std::string& text) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line == "\r" || line[0] == '#') {
      continue;
    }
    auto cells = SplitLine(line);
    if (table.header_line == 0) {
      table.headers = std::move(cells);
      table.header_line = line_number;
    } else {
      table.rows.push_back(std::move(cells));
      table.row_lines.push_back(line_number);
    }
  }
  return table;
}

}  // namespace proteus
