#include "data/encoded_batch.h"

#include <utility>

#include "common/macros.h"

namespace metaleak {

void EncodedBatch::Configure(const std::vector<ColumnKind>& kinds,
                             const std::vector<CodeWidth>& widths) {
  METALEAK_DCHECK(kinds.size() == widths.size());
  if (columns_.size() == kinds.size()) {
    bool same = true;
    for (size_t c = 0; c < kinds.size(); ++c) {
      if (columns_[c].kind != kinds[c] ||
          (kinds[c] == ColumnKind::kCodes &&
           columns_[c].codes.width() != widths[c])) {
        same = false;
        break;
      }
    }
    if (same) return;  // keep the existing arenas
  }
  columns_.assign(kinds.size(), Column{});
  for (size_t c = 0; c < kinds.size(); ++c) {
    columns_[c].kind = kinds[c];
    columns_[c].codes.Reset(widths[c]);
  }
  num_rows_ = 0;
}

void EncodedBatch::Configure(const std::vector<ColumnKind>& kinds) {
  Configure(kinds, std::vector<CodeWidth>(kinds.size(), CodeWidth::kU32));
}

void EncodedBatch::ResetRows(size_t num_rows) {
  num_rows_ = num_rows;
  for (Column& col : columns_) {
    if (col.kind == ColumnKind::kCodes) {
      col.codes.resize(num_rows);
    } else {
      col.reals.resize(num_rows);
    }
  }
}

std::vector<CodeWidth> CodeWidthsForDomains(
    const std::vector<Domain>& domains) {
  std::vector<CodeWidth> widths;
  widths.reserve(domains.size());
  for (const Domain& d : domains) {
    widths.push_back(d.is_categorical()
                         ? CodeWidthForNumCodes(d.values().size() + 1)
                         : CodeWidth::kU32);
  }
  return widths;
}

std::vector<EncodedBatch::ColumnKind> ColumnKindsForDomains(
    const std::vector<Domain>& domains) {
  std::vector<EncodedBatch::ColumnKind> kinds;
  kinds.reserve(domains.size());
  for (const Domain& d : domains) {
    kinds.push_back(d.is_categorical() ? EncodedBatch::ColumnKind::kCodes
                                       : EncodedBatch::ColumnKind::kReals);
  }
  return kinds;
}

bool DomainCodeOf(const std::vector<Value>& domain, const Value& v,
                  uint32_t* code) {
  for (size_t i = 0; i < domain.size(); ++i) {
    if (domain[i] == v) {
      *code = static_cast<uint32_t>(i) + 1;
      return true;
    }
  }
  return false;
}

Result<Relation> MaterializeRelation(const Schema& schema,
                                     const std::vector<Domain>& domains,
                                     const EncodedBatch& batch) {
  if (schema.num_attributes() != batch.num_columns() ||
      domains.size() != batch.num_columns()) {
    return Status::Invalid("batch layout does not match schema/domains");
  }
  const size_t m = batch.num_columns();
  const size_t n = batch.num_rows();

  std::vector<std::vector<Value>> columns(m);
  for (size_t c = 0; c < m; ++c) {
    std::vector<Value>& out = columns[c];
    out.reserve(n);
    if (batch.kind(c) == EncodedBatch::ColumnKind::kCodes) {
      const std::vector<Value>& values = domains[c].values();
      batch.WithCodes(c, [&](const auto* codes) {
        for (size_t r = 0; r < n; ++r) {
          const uint32_t code = codes[r];
          if (code == 0 || code > values.size()) {
            out.push_back(Value::Null());
          } else {
            out.push_back(values[code - 1]);
          }
        }
      });
    } else {
      for (double x : batch.reals(c)) out.push_back(Value::Real(x));
    }
  }

  // Generated values are domain samples, so continuous attributes
  // become doubles regardless of the disclosed physical type.
  std::vector<Attribute> attrs = schema.attributes();
  for (size_t c = 0; c < m; ++c) {
    bool has_double = false;
    bool has_int = false;
    bool has_string = false;
    for (const Value& v : columns[c]) {
      has_double |= v.is_double();
      has_int |= v.is_int();
      has_string |= v.is_string();
    }
    if (has_string) {
      attrs[c].type = DataType::kString;
    } else if (has_double && !has_int) {
      attrs[c].type = DataType::kDouble;
    } else if (has_int && !has_double) {
      attrs[c].type = DataType::kInt64;
    } else if (has_double && has_int) {
      for (Value& v : columns[c]) {
        if (v.is_int()) v = Value::Real(static_cast<double>(v.AsInt()));
      }
      attrs[c].type = DataType::kDouble;
    }
  }

  return Relation::Make(Schema(std::move(attrs)), std::move(columns));
}

}  // namespace metaleak
