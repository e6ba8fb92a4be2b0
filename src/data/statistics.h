// Column statistics: counts and moments per column, and the histogram and
// frequency-table shapes of a disclosed value distribution.
//
// The two shapes serve the metadata layer's optional value-distribution
// disclosure (an *extension* of the paper's model — the paper assumes
// distributions stay private, and the distribution-disclosure ablation
// quantifies why that assumption matters). ValueDistribution::FromEncoded
// builds both straight off the dictionary encoding.
#ifndef METALEAK_DATA_STATISTICS_H_
#define METALEAK_DATA_STATISTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "data/value.h"

namespace metaleak {

/// Basic per-column statistics.
struct ColumnStats {
  size_t count = 0;       // rows
  size_t nulls = 0;       // NULL rows
  size_t distinct = 0;    // distinct non-null values
  // Numeric-only moments (0 when the column has no numeric values).
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Computes ColumnStats for one attribute.
Result<ColumnStats> ComputeColumnStats(const Relation& relation,
                                       size_t attribute);

/// Equi-width histogram over a numeric column.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  /// counts[i] covers [lo + i*w, lo + (i+1)*w) with w = (hi-lo)/buckets;
  /// the last bucket is closed at hi.
  std::vector<size_t> counts;

  size_t total() const;
  /// Index of the bucket containing x (clamped to the edges).
  size_t BucketOf(double x) const;
  /// Probability mass of bucket i (0 if the histogram is empty).
  double Mass(size_t i) const;
};

/// Frequency table over a categorical column (non-null values), ordered
/// by Value's total order for determinism.
struct FrequencyTable {
  std::vector<Value> values;
  std::vector<size_t> counts;

  size_t total() const;
};

}  // namespace metaleak

#endif  // METALEAK_DATA_STATISTICS_H_
