#include "common/csv.h"

#include <fstream>
#include <sstream>

namespace metaleak {

namespace {

// Returns true if `field` must be quoted when written.
bool NeedsQuoting(std::string_view field, char delim) {
  return field.find(delim) != std::string_view::npos ||
         field.find('"') != std::string_view::npos ||
         field.find('\n') != std::string_view::npos ||
         field.find('\r') != std::string_view::npos;
}

void AppendQuoted(std::string_view field, std::string* out) {
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<CsvTable> ParseCsv(std::string_view text, const CsvOptions& options) {
  CsvTable table;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_started = false;

  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
      row_started = true;
      ++i;
    } else if (c == options.delimiter) {
      row.push_back(std::move(field));
      field.clear();
      row_started = true;
      ++i;
    } else if (c == '\r') {
      ++i;  // swallow; the \n (if any) ends the row
      if (i >= n || text[i] != '\n') {
        row.push_back(std::move(field));
        field.clear();
        table.rows.push_back(std::move(row));
        row.clear();
        row_started = false;
      }
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      table.rows.push_back(std::move(row));
      row.clear();
      row_started = false;
      ++i;
    } else {
      field.push_back(c);
      row_started = true;
      ++i;
    }
  }
  if (in_quotes) {
    return Status::IoError("unterminated quoted CSV field");
  }
  if (row_started || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    table.rows.push_back(std::move(row));
  }

  if (!table.rows.empty()) {
    size_t width = table.rows[0].size();
    for (size_t r = 1; r < table.rows.size(); ++r) {
      if (table.rows[r].size() == width) continue;
      if (options.strict_field_count) {
        std::ostringstream msg;
        msg << "CSV row " << r << " has " << table.rows[r].size()
            << " fields, expected " << width;
        return Status::IoError(msg.str());
      }
      table.rows[r].resize(width);
    }
  }
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), options);
}

std::string WriteCsv(const CsvTable& table, const CsvOptions& options) {
  std::string out;
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(options.delimiter);
      if (NeedsQuoting(row[i], options.delimiter)) {
        AppendQuoted(row[i], &out);
      } else {
        out.append(row[i]);
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace metaleak
