#include "data/csv_loader.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/csv.h"
#include "common/string_util.h"

namespace metaleak {

namespace {

bool IsNullMarker(const std::string& field,
                  const std::vector<std::string>& markers) {
  std::string trimmed(Trim(field));
  return std::find(markers.begin(), markers.end(), trimmed) != markers.end();
}

}  // namespace

Result<Relation> LoadCsvRelation(std::string_view text,
                                 const CsvLoadOptions& options) {
  CsvOptions csv_options;
  csv_options.delimiter = options.delimiter;
  METALEAK_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text, csv_options));
  if (table.rows.empty()) {
    return Status::Invalid("CSV input is empty");
  }

  std::vector<std::string> names;
  size_t first_data_row = 0;
  size_t width = table.rows[0].size();
  if (options.has_header) {
    for (const std::string& h : table.rows[0]) {
      names.emplace_back(Trim(h));
    }
    first_data_row = 1;
  } else {
    for (size_t c = 0; c < width; ++c) {
      names.push_back("attr" + std::to_string(c));
    }
  }

  size_t nrows = table.rows.size() - first_data_row;

  // Pass 1: infer physical type per column.
  std::vector<DataType> types(width, DataType::kInt64);
  for (size_t c = 0; c < width; ++c) {
    bool all_int = true;
    bool all_double = true;
    bool any_value = false;
    for (size_t r = first_data_row; r < table.rows.size(); ++r) {
      const std::string& field = table.rows[r][c];
      if (IsNullMarker(field, options.null_markers)) continue;
      any_value = true;
      if (all_int && !ParseInt64(field).has_value()) all_int = false;
      if (all_double && !ParseDouble(field).has_value()) all_double = false;
      if (!all_int && !all_double) break;
    }
    if (!any_value || (!all_int && !all_double)) {
      types[c] = DataType::kString;
    } else if (all_int) {
      types[c] = DataType::kInt64;
    } else {
      types[c] = DataType::kDouble;
    }
  }

  // Pass 2: materialize columns.
  std::vector<std::vector<Value>> columns(width);
  for (size_t c = 0; c < width; ++c) columns[c].reserve(nrows);
  for (size_t r = first_data_row; r < table.rows.size(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      const std::string& field = table.rows[r][c];
      if (IsNullMarker(field, options.null_markers)) {
        columns[c].push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case DataType::kInt64:
          columns[c].push_back(Value::Int(*ParseInt64(field)));
          break;
        case DataType::kDouble: {
          // NaN has no place in Value's order (Encode sorts and
          // binary-searches each column), so a "nan" cell loads as NULL.
          const double x = *ParseDouble(field);
          columns[c].push_back(std::isnan(x) ? Value::Null()
                                             : Value::Real(x));
          break;
        }
        case DataType::kString:
          columns[c].push_back(Value::Str(std::string(Trim(field))));
          break;
      }
    }
  }

  // Semantic inference: numeric columns with few distinct values are
  // categorical codes, everything string is categorical.
  std::vector<Attribute> attrs(width);
  for (size_t c = 0; c < width; ++c) {
    attrs[c].name = names[c];
    attrs[c].type = types[c];
    if (types[c] == DataType::kString) {
      attrs[c].semantic = SemanticType::kCategorical;
    } else {
      std::unordered_set<Value> distinct;
      for (const Value& v : columns[c]) {
        if (!v.is_null()) distinct.insert(v);
      }
      attrs[c].semantic =
          distinct.size() <= options.categorical_distinct_threshold
              ? SemanticType::kCategorical
              : SemanticType::kContinuous;
    }
  }

  return Relation::Make(Schema(std::move(attrs)), std::move(columns));
}

Result<Relation> LoadCsvRelationFile(const std::string& path,
                                     const CsvLoadOptions& options) {
  CsvOptions csv_options;
  csv_options.delimiter = options.delimiter;
  METALEAK_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path, csv_options));
  std::string text = WriteCsv(table, csv_options);
  return LoadCsvRelation(text, options);
}

std::string RelationToCsv(const Relation& relation) {
  CsvTable table;
  std::vector<std::string> header;
  for (const Attribute& a : relation.schema().attributes()) {
    header.push_back(a.name);
  }
  table.rows.push_back(std::move(header));
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(relation.num_columns());
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      row.push_back(relation.at(r, c).ToString());
    }
    table.rows.push_back(std::move(row));
  }
  return WriteCsv(table);
}

}  // namespace metaleak
