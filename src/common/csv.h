// RFC-4180-subset CSV reading and writing.
//
// Supports quoted fields with embedded delimiters, escaped quotes ("") and
// newlines inside quotes. This is the IO layer under data/csv_loader.
#ifndef METALEAK_COMMON_CSV_H_
#define METALEAK_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace metaleak {

/// Parsed CSV content: rows of string fields. Header handling is up to the
/// caller (csv_loader treats row 0 as the header).
struct CsvTable {
  std::vector<std::vector<std::string>> rows;
};

struct CsvOptions {
  char delimiter = ',';
  /// When true, a row with a different field count than row 0 is an error;
  /// otherwise short rows are padded with empty fields.
  bool strict_field_count = true;
};

/// Parses CSV text. Returns an error Status on unterminated quotes or
/// (under strict_field_count) ragged rows.
Result<CsvTable> ParseCsv(std::string_view text,
                          const CsvOptions& options = CsvOptions());

/// Reads and parses a CSV file from disk.
Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = CsvOptions());

/// Serializes rows to CSV text, quoting fields that need it.
std::string WriteCsv(const CsvTable& table,
                     const CsvOptions& options = CsvOptions());

}  // namespace metaleak

#endif  // METALEAK_COMMON_CSV_H_
