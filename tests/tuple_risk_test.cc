// Tests for per-tuple reconstruction risk (privacy/tuple_risk).
#include <gtest/gtest.h>

#include <string>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "discovery/discovery_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/tuple_risk.h"

namespace metaleak {
namespace {

TEST(TupleRiskTest, RejectsBadInput) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 0;
  EXPECT_FALSE(AnalyzeTupleRisk(employee, report->metadata, options).ok());
}

TEST(TupleRiskTest, CoversEveryRowOnce) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 50;
  auto risk = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  ASSERT_EQ(risk->tuples.size(), employee.num_rows());
  std::vector<bool> seen(employee.num_rows(), false);
  for (const TupleRisk& t : risk->tuples) {
    EXPECT_FALSE(seen[t.row]);
    seen[t.row] = true;
    EXPECT_GE(t.mean_matched_attributes, 0.0);
    EXPECT_LE(t.mean_matched_attributes,
              static_cast<double>(employee.num_columns()));
    EXPECT_LE(t.max_matched_attributes, employee.num_columns());
    EXPECT_GE(t.half_reconstructed_rate, 0.0);
    EXPECT_LE(t.half_reconstructed_rate, 1.0);
  }
}

TEST(TupleRiskTest, SortedByDescendingRisk) {
  Relation echo = datasets::Echocardiogram();
  auto report = ProfileRelation(echo);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 30;
  auto risk = AnalyzeTupleRisk(echo, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  for (size_t i = 1; i < risk->tuples.size(); ++i) {
    EXPECT_GE(risk->tuples[i - 1].mean_matched_attributes,
              risk->tuples[i].mean_matched_attributes);
  }
}

TEST(TupleRiskTest, EmployeeAllIdentifiable) {
  // Name is a key, so every tuple is identifiable at width 1.
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 20;
  options.identifiability_max_width = 1;
  auto risk = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  for (const TupleRisk& t : risk->tuples) {
    EXPECT_TRUE(t.identifiable);
  }
  EXPECT_EQ(risk->TopIdentifiable(2).size(), 2u);
}

TEST(TupleRiskTest, DeterministicGivenSeed) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 40;
  auto a = AnalyzeTupleRisk(employee, report->metadata, options);
  auto b = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->tuples.size(); ++i) {
    EXPECT_EQ(a->tuples[i].row, b->tuples[i].row);
    EXPECT_DOUBLE_EQ(a->tuples[i].mean_matched_attributes,
                     b->tuples[i].mean_matched_attributes);
  }
}

TEST(TupleRiskTest, SkewedRowIsRiskier) {
  // Two-column relation where one row's values sit in tiny domains and
  // another's in huge ones: the small-domain row must rank higher.
  Schema schema({{"a", DataType::kString, SemanticType::kCategorical},
                 {"b", DataType::kString, SemanticType::kCategorical}});
  RelationBuilder builder(schema);
  // Rows 0..9 share value "common" (domain mass), row 10+ are unique.
  for (int i = 0; i < 10; ++i) {
    builder.AddRow({Value::Str("common"), Value::Str("alsocommon")});
  }
  for (int i = 0; i < 10; ++i) {
    builder.AddRow({Value::Str("rare" + std::to_string(i)),
                    Value::Str("alsorare" + std::to_string(i))});
  }
  Relation real = std::move(builder.Finish()).ValueOrDie();
  DiscoveryOptions discovery;
  discovery.profile_distributions = true;  // adversary samples the skew
  auto report = ProfileRelation(real, discovery);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 300;
  auto risk = AnalyzeTupleRisk(real, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  // The top tuples are all "common" rows (< index 10).
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_LT(risk->tuples[i].row, 10u) << "rank " << i;
  }
}

TEST(TupleRiskTest, RenderingShowsRequestedCount) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 10;
  auto risk = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  std::string text = risk->ToString(2);
  EXPECT_NE(text.find("Highest-risk tuples"), std::string::npos);
  EXPECT_NE(text.find("Identifiable"), std::string::npos);
}

TEST(TupleRiskTest, RejectsPackageTheScanCannotScore) {
  // The counterpart's package discloses both Int 3 and Real 3.0: a real
  // cell 3 would match two synthetic codes, which one translated code
  // cannot express, so EncodedLeakageContext::Build rejects it.
  auto pkg = MetadataPackage::Deserialize(
      "metaleak-metadata v1\nrows\t3\nattr\tk\tint64\tcategorical\n"
      "domain\t0\tcategorical\ti:3|d:3|i:4\n");
  ASSERT_TRUE(pkg.ok()) << pkg.status().ToString();
  Relation real = std::move(Relation::Make(pkg->schema,
                                           {{Value::Int(3), Value::Int(4),
                                             Value::Int(3)}}))
                      .ValueOrDie();
  TupleRiskOptions options;
  options.rounds = 2;
  Status tuples = AnalyzeTupleRisk(real, *pkg, options).status();
  EXPECT_TRUE(tuples.IsInvalid()) << tuples.ToString();
  EXPECT_NE(tuples.message().find("several domain entries cross-type"),
            std::string::npos)
      << tuples.ToString();
}

}  // namespace
}  // namespace metaleak
