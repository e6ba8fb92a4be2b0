#include "data/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace metaleak {

Result<ColumnStats> ComputeColumnStats(const Relation& relation,
                                       size_t attribute) {
  if (attribute >= relation.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  ColumnStats stats;
  const std::vector<Value>& col = relation.column(attribute);
  stats.count = col.size();
  std::unordered_set<Value> distinct;
  double sum = 0.0;
  size_t numeric = 0;
  bool first = true;
  for (const Value& v : col) {
    if (v.is_null()) {
      ++stats.nulls;
      continue;
    }
    distinct.insert(v);
    if (v.is_numeric()) {
      double x = v.AsNumeric();
      if (first) {
        stats.min = stats.max = x;
        first = false;
      } else {
        stats.min = std::min(stats.min, x);
        stats.max = std::max(stats.max, x);
      }
      sum += x;
      ++numeric;
    }
  }
  stats.distinct = distinct.size();
  if (numeric > 0) {
    stats.mean = sum / static_cast<double>(numeric);
    double acc = 0.0;
    for (const Value& v : col) {
      if (v.is_null() || !v.is_numeric()) continue;
      double d = v.AsNumeric() - stats.mean;
      acc += d * d;
    }
    stats.stddev =
        numeric < 2 ? 0.0
                    : std::sqrt(acc / static_cast<double>(numeric - 1));
  }
  return stats;
}

size_t Histogram::total() const {
  size_t t = 0;
  for (size_t c : counts) t += c;
  return t;
}

size_t Histogram::BucketOf(double x) const {
  if (counts.empty()) return 0;
  if (hi <= lo) return 0;
  double t = (x - lo) / (hi - lo);
  t = std::clamp(t, 0.0, 1.0);
  size_t b = static_cast<size_t>(t * static_cast<double>(counts.size()));
  return std::min(b, counts.size() - 1);
}

double Histogram::Mass(size_t i) const {
  size_t t = total();
  if (t == 0 || i >= counts.size()) return 0.0;
  return static_cast<double>(counts[i]) / static_cast<double>(t);
}

size_t FrequencyTable::total() const {
  size_t t = 0;
  for (size_t c : counts) t += c;
  return t;
}

}  // namespace metaleak
