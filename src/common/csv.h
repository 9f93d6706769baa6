// Tiny CSV reader/writer used for persisting spot-market traces and bench
// outputs. Handles only the subset we emit: no quoting, comma separator,
// '#' comment lines.
#ifndef SRC_COMMON_CSV_H_
#define SRC_COMMON_CSV_H_

#include <string>
#include <vector>

namespace proteus {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void AddRow(const std::vector<std::string>& cells);

  std::string Render() const;
  // Returns false (and logs) on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

struct CsvTable {
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
  // 1-based source line of the header and of each row, for error
  // messages.
  int header_line = 0;
  std::vector<int> row_lines;
};

// Parses CSV text. First non-comment line is the header.
CsvTable ParseCsv(const std::string& text);

}  // namespace proteus

#endif  // SRC_COMMON_CSV_H_
