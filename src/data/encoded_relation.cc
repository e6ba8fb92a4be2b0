#include "data/encoded_relation.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace metaleak {

namespace {

// FNV-1a style 64-bit mixing for the relation fingerprint.
inline uint64_t MixInto(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

uint64_t EncodedRelation::ComputeFingerprint() const {
  uint64_t fp = MixInto(0x6D657461ull, num_rows_);
  fp = MixInto(fp, columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnDictionary& dict = dicts_[c];
    fp = MixInto(fp, dict.values_.size());
    for (const Value& v : dict.values_) fp = MixInto(fp, v.Hash());
    columns_[c].With([&fp, n = columns_[c].size()](const auto* p) {
      for (size_t r = 0; r < n; ++r) fp = MixInto(fp, p[r]);
    });
  }
  return fp;
}

EncodedRelation EncodedRelation::Encode(const Relation& relation) {
  EncodedRelation out;
  out.schema_ = relation.schema();
  out.num_rows_ = relation.num_rows();
  const size_t m = relation.num_columns();
  out.columns_.resize(m);
  out.dicts_.resize(m);

  for (size_t c = 0; c < m; ++c) {
    const std::vector<Value>& column = relation.column(c);
    ColumnDictionary& dict = out.dicts_[c];

    // Sorted distinct non-null values; Value's total order is strict
    // within a uniformly typed column, so codes are order-preserving.
    std::vector<Value> distinct;
    distinct.reserve(column.size());
    for (const Value& v : column) {
      if (!v.is_null()) distinct.push_back(v);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    dict.values_.reserve(distinct.size() + 1);
    dict.values_.push_back(Value::Null());  // reserved code 0
    for (Value& v : distinct) dict.values_.push_back(std::move(v));
    dict.counts_.assign(dict.values_.size(), 0);

    CodeColumn& codes = out.columns_[c];
    codes.Reset(CodeWidthForNumCodes(dict.values_.size()));
    codes.reserve(column.size());
    const auto begin = dict.values_.begin() + 1;
    const auto end = dict.values_.end();
    for (const Value& v : column) {
      uint32_t code = ColumnDictionary::kNullCode;
      if (!v.is_null()) {
        auto it = std::lower_bound(begin, end, v);
        METALEAK_DCHECK(it != end && *it == v);
        code = static_cast<uint32_t>(it - dict.values_.begin());
      }
      codes.push_back(code);
      ++dict.counts_[code];
    }
    dict.null_count_ = dict.counts_[ColumnDictionary::kNullCode];
  }
  out.fingerprint_ = out.ComputeFingerprint();
  return out;
}

ColumnDictionary ColumnDictionary::FromSortedParts(
    std::vector<Value> values, std::vector<size_t> counts) {
  METALEAK_DCHECK(!values.empty() && values[0].is_null());
  METALEAK_DCHECK(values.size() == counts.size());
  ColumnDictionary dict;
  dict.values_ = std::move(values);
  dict.counts_ = std::move(counts);
  dict.null_count_ = dict.counts_[kNullCode];
  return dict;
}

bool ColumnDictionary::Find(const Value& v, uint32_t* code) const {
  if (v.is_null()) {
    *code = kNullCode;
    return true;
  }
  auto it = std::lower_bound(values_.begin() + 1, values_.end(), v);
  if (it == values_.end() || !(*it == v)) return false;
  *code = static_cast<uint32_t>(it - values_.begin());
  return true;
}

EncodedRelation EncodedRelation::FromParts(
    Schema schema, std::vector<std::vector<uint32_t>> codes,
    std::vector<ColumnDictionary> dicts) {
  METALEAK_DCHECK(codes.size() == dicts.size());
  std::vector<CodeColumn> columns;
  columns.reserve(codes.size());
  for (size_t c = 0; c < codes.size(); ++c) {
    columns.push_back(CodeColumn::FromU32(
        codes[c], CodeWidthForNumCodes(dicts[c].num_codes())));
  }
  return FromParts(std::move(schema), std::move(columns), std::move(dicts));
}

EncodedRelation EncodedRelation::FromParts(Schema schema,
                                           std::vector<CodeColumn> columns,
                                           std::vector<ColumnDictionary> dicts) {
  METALEAK_DCHECK(columns.size() == dicts.size());
  EncodedRelation out;
  out.schema_ = std::move(schema);
  out.num_rows_ = columns.empty() ? 0 : columns[0].size();
  out.columns_ = std::move(columns);
  out.dicts_ = std::move(dicts);

  // Same mixing sequence as Encode, so FromParts of canonical parts is
  // fingerprint-identical to encoding the decoded relation from scratch.
  out.fingerprint_ = out.ComputeFingerprint();
  return out;
}

Result<Relation> EncodedRelation::Decode() const {
  std::vector<std::vector<Value>> columns(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    columns[c].reserve(num_rows_);
    const size_t n = columns_[c].size();
    for (size_t r = 0; r < n; ++r) {
      columns[c].push_back(dicts_[c].decode(columns_[c].at(r)));
    }
  }
  return Relation::Make(schema_, std::move(columns));
}

Result<Domain> EncodedRelation::DomainOf(size_t c) const {
  if (c >= num_columns()) {
    return Status::OutOfRange("attribute index " + std::to_string(c) +
                              " out of range");
  }
  const Attribute& attr = schema_.attribute(c);
  const ColumnDictionary& dict = dicts_[c];
  if (attr.semantic == SemanticType::kCategorical) {
    if (dict.num_distinct() == 0) {
      return Status::Invalid("attribute '" + attr.name +
                             "' has no non-null values");
    }
    return Domain::Categorical(dict.DistinctValues());
  }
  // Continuous: min/max over the numeric dictionary entries. Non-numeric
  // values (if any) sort after numerics in Value order, so the numeric
  // entries form a sorted prefix of codes 1..K — but scanning all K keeps
  // this robust without relying on that.
  bool seen = false;
  double lo = 0.0;
  double hi = 0.0;
  for (uint32_t code = 1; code < dict.num_codes(); ++code) {
    const Value& v = dict.decode(code);
    if (!v.is_numeric()) continue;
    double x = v.AsNumeric();
    if (!seen) {
      lo = hi = x;
      seen = true;
    } else {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (!seen) {
    return Status::Invalid("continuous attribute '" + attr.name +
                           "' has no numeric values");
  }
  return Domain::Continuous(lo, hi);
}

Result<std::vector<Domain>> EncodedRelation::Domains() const {
  std::vector<Domain> out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    METALEAK_ASSIGN_OR_RETURN(Domain d, DomainOf(c));
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<double> ColumnDictionary::NumericByCode() const {
  std::vector<double> out(values_.size(),
                          std::numeric_limits<double>::quiet_NaN());
  for (size_t code = 1; code < values_.size(); ++code) {
    if (values_[code].is_numeric()) out[code] = values_[code].AsNumeric();
  }
  return out;
}

}  // namespace metaleak
