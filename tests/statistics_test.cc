// Tests for src/data/statistics and metadata/value_distribution.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "data/datasets/echocardiogram.h"
#include "data/encoded_relation.h"
#include "data/statistics.h"
#include "metadata/value_distribution.h"

namespace metaleak {
namespace {

Relation MakeRelation(std::vector<Attribute> attrs,
                      std::vector<std::vector<Value>> cols) {
  return std::move(Relation::Make(Schema(std::move(attrs)), std::move(cols)))
      .ValueOrDie();
}

Attribute Cat(const char* name) {
  return {name, DataType::kString, SemanticType::kCategorical};
}
Attribute Cont(const char* name) {
  return {name, DataType::kDouble, SemanticType::kContinuous};
}

Relation NumericRelation(std::initializer_list<double> xs) {
  std::vector<Value> col;
  for (double x : xs) col.push_back(Value::Real(x));
  return MakeRelation({Cont("x")}, {col});
}

// The disclosed marginal of attribute 0: a histogram for continuous
// columns, a frequency table for categorical ones.
Result<ValueDistribution> Distribution(const Relation& r,
                                       size_t buckets = 16) {
  return ValueDistribution::FromEncoded(EncodedRelation::Encode(r), 0,
                                        buckets);
}

// --- ColumnStats ---------------------------------------------------------------

TEST(ColumnStatsTest, CountsAndMoments) {
  Relation r = MakeRelation(
      {Cont("x")},
      {{Value::Real(1), Value::Real(3), Value::Null(), Value::Real(1)}});
  auto stats = ComputeColumnStats(r, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->count, 4u);
  EXPECT_EQ(stats->nulls, 1u);
  EXPECT_EQ(stats->distinct, 2u);
  EXPECT_DOUBLE_EQ(stats->min, 1.0);
  EXPECT_DOUBLE_EQ(stats->max, 3.0);
  EXPECT_NEAR(stats->mean, 5.0 / 3.0, 1e-12);
  EXPECT_GT(stats->stddev, 0.0);
}

TEST(ColumnStatsTest, StringColumnHasNoMoments) {
  Relation r = MakeRelation({Cat("c")},
                            {{Value::Str("a"), Value::Str("b")}});
  auto stats = ComputeColumnStats(r, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->distinct, 2u);
  EXPECT_DOUBLE_EQ(stats->mean, 0.0);
}

TEST(ColumnStatsTest, OutOfRangeFails) {
  Relation r = NumericRelation({1.0});
  EXPECT_TRUE(ComputeColumnStats(r, 5).status().IsOutOfRange());
}

// --- Histogram -------------------------------------------------------------------

TEST(HistogramTest, BucketsCoverRange) {
  Relation r = NumericRelation({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto dist = Distribution(r, 5);
  ASSERT_TRUE(dist.ok());
  const Histogram& h = dist->histogram();
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 9.0);
  EXPECT_EQ(h.counts.size(), 5u);
  EXPECT_EQ(h.total(), 10u);
  // The max lands in the last bucket (closed at hi).
  EXPECT_EQ(h.BucketOf(9.0), 4u);
  EXPECT_EQ(h.BucketOf(-100.0), 0u);
  EXPECT_EQ(h.BucketOf(100.0), 4u);
}

TEST(HistogramTest, MassSumsToOne) {
  Relation r = NumericRelation({1, 2, 2, 3, 3, 3});
  auto dist = Distribution(r, 4);
  ASSERT_TRUE(dist.ok());
  const Histogram& h = dist->histogram();
  double total = 0.0;
  for (size_t i = 0; i < h.counts.size(); ++i) total += h.Mass(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HistogramTest, RejectsBadInput) {
  Relation r = NumericRelation({1.0});
  EXPECT_FALSE(Distribution(r, 0).ok());
  // A continuous column with no numeric value has no histogram.
  Relation s = MakeRelation({Cont("x")}, {{Value::Null(), Value::Null()}});
  EXPECT_FALSE(Distribution(s, 4).ok());
}

// --- FrequencyTable / entropy ------------------------------------------------------

TEST(FrequencyTableTest, CountsAndOrder) {
  Relation r = MakeRelation(
      {Cat("c")}, {{Value::Str("b"), Value::Str("a"), Value::Str("b"),
                    Value::Null()}});
  auto dist = Distribution(r);
  ASSERT_TRUE(dist.ok());
  ASSERT_TRUE(dist->is_categorical());
  const FrequencyTable& t = dist->frequency_table();
  ASSERT_EQ(t.values.size(), 2u);
  EXPECT_EQ(t.values[0], Value::Str("a"));  // Value order
  EXPECT_EQ(t.counts[0], 1u);
  EXPECT_EQ(t.counts[1], 2u);
  EXPECT_EQ(t.total(), 3u);
}

TEST(EntropyTest, UniformAndConstant) {
  Relation uniform = MakeRelation(
      {Cat("c")}, {{Value::Str("a"), Value::Str("b"), Value::Str("c"),
                    Value::Str("d")}});
  auto h = Distribution(uniform);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h->EntropyBits(), 2.0, 1e-12);  // log2(4)

  Relation constant =
      MakeRelation({Cat("c")}, {{Value::Str("a"), Value::Str("a")}});
  EXPECT_DOUBLE_EQ(Distribution(constant)->EntropyBits(), 0.0);
}

// --- ValueDistribution ---------------------------------------------------------------

TEST(ValueDistributionTest, CategoricalSamplingFollowsFrequencies) {
  Relation r = MakeRelation(
      {Cat("c")}, {{Value::Str("a"), Value::Str("a"), Value::Str("a"),
                    Value::Str("b")}});
  auto dist = Distribution(r);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->is_categorical());
  EXPECT_NEAR(dist->MassOf(Value::Str("a")), 0.75, 1e-12);
  EXPECT_NEAR(dist->MassOf(Value::Str("z")), 0.0, 1e-12);

  Rng rng(1);
  size_t a_count = 0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    if (dist->Sample(&rng) == Value::Str("a")) ++a_count;
  }
  EXPECT_NEAR(static_cast<double>(a_count) / reps, 0.75, 0.02);
}

TEST(ValueDistributionTest, ContinuousSamplingFollowsHistogram) {
  // Mass concentrated in [0, 1): samples should mostly land there.
  std::vector<Value> col;
  for (int i = 0; i < 90; ++i) col.push_back(Value::Real(0.5));
  for (int i = 0; i < 10; ++i) col.push_back(Value::Real(9.5));
  col.push_back(Value::Real(0.0));
  col.push_back(Value::Real(10.0));
  Relation r = MakeRelation({Cont("x")}, {col});
  auto dist = Distribution(r, 10);
  ASSERT_TRUE(dist.ok());
  EXPECT_FALSE(dist->is_categorical());
  Rng rng(2);
  size_t low = 0;
  const int reps = 10000;
  for (int i = 0; i < reps; ++i) {
    if (dist->Sample(&rng).AsNumeric() < 1.0) ++low;
  }
  EXPECT_GT(static_cast<double>(low) / reps, 0.80);
}

TEST(ValueDistributionTest, RejectsEmptyInputs) {
  EXPECT_FALSE(ValueDistribution::Categorical(FrequencyTable{}).ok());
  EXPECT_FALSE(ValueDistribution::Continuous(Histogram{}).ok());
}

TEST(ValueDistributionTest, EchocardiogramProfiles) {
  Relation r = datasets::Echocardiogram();
  EncodedRelation encoded = EncodedRelation::Encode(r);
  for (size_t c = 0; c < r.num_columns(); ++c) {
    auto dist = ValueDistribution::FromEncoded(encoded, c);
    ASSERT_TRUE(dist.ok()) << "attr " << c;
    Rng rng(c);
    // Samples are valid non-null values.
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(dist->Sample(&rng).is_null());
    }
  }
}

}  // namespace
}  // namespace metaleak
