// Tests for the shipped datasets: shape, planted dependencies, and the
// properties the evaluation relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/fintech.h"
#include "data/datasets/synthetic.h"
#include "discovery/rfd_discovery.h"
#include "partition/pli_cache.h"
#include "discovery/tane.h"
#include "discovery/validators.h"

namespace metaleak {
namespace {

// --- Employee (paper Table II) -----------------------------------------------

TEST(EmployeeTest, MatchesPaperTable) {
  Relation r = datasets::Employee();
  ASSERT_EQ(r.num_rows(), 4u);
  ASSERT_EQ(r.num_columns(), 4u);
  EXPECT_EQ(r.at(0, 0), Value::Str("Alice"));
  EXPECT_EQ(r.at(1, 2), Value::Str("Customer Service"));
  EXPECT_EQ(r.at(3, 3), Value::Int(35000));
  EXPECT_EQ(r.schema().attribute(1).semantic, SemanticType::kContinuous);
  EXPECT_EQ(r.schema().attribute(2).semantic, SemanticType::kCategorical);
}

TEST(EmployeeTest, PaperFdsHold) {
  Relation r = datasets::Employee();
  PliCache cache(&r);
  // Name -> Age and Name -> Salary (Example 2.1).
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(0), 1));
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(0), 3));
}

// --- Echocardiogram replica ----------------------------------------------------

TEST(EchocardiogramTest, ShapeMatchesUci) {
  Relation r = datasets::Echocardiogram();
  EXPECT_EQ(r.num_rows(), datasets::kEchocardiogramRows);
  EXPECT_EQ(r.num_columns(), datasets::kEchocardiogramAttributes);
}

TEST(EchocardiogramTest, DeterministicPerSeed) {
  EXPECT_EQ(datasets::Echocardiogram(), datasets::Echocardiogram());
  EXPECT_FALSE(datasets::Echocardiogram(1) == datasets::Echocardiogram(2));
}

TEST(EchocardiogramTest, SemanticSplitMatchesPaperTables) {
  // Table III profiles continuous attrs 0,2,4,5,6,7,8,9; Table IV
  // categorical attrs 1,3,11,12.
  Relation r = datasets::Echocardiogram();
  for (size_t c : {0u, 2u, 4u, 5u, 6u, 7u, 8u, 9u}) {
    EXPECT_EQ(r.schema().attribute(c).semantic, SemanticType::kContinuous)
        << "attr " << c;
  }
  for (size_t c : {1u, 3u, 11u, 12u}) {
    EXPECT_EQ(r.schema().attribute(c).semantic, SemanticType::kCategorical)
        << "attr " << c;
  }
}

TEST(EchocardiogramTest, HasMissingValues) {
  Relation r = datasets::Echocardiogram();
  size_t nulls = 0;
  for (size_t c = 0; c < r.num_columns(); ++c) {
    for (const Value& v : r.column(c)) {
      if (v.is_null()) ++nulls;
    }
  }
  EXPECT_GT(nulls, 10u);
}

TEST(EchocardiogramTest, PlantedFdsHold) {
  Relation r = datasets::Echocardiogram();
  PliCache cache(&r);
  auto idx = [&](const char* name) {
    return *r.schema().IndexOf(name);
  };
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(idx("epss")),
                         idx("lvdd")));
  EXPECT_TRUE(ValidateFd(&cache,
                         AttributeSet::Single(idx("wall_motion_score")),
                         idx("wall_motion_index")));
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(idx("survival")),
                         idx("alive_at_1")));
  // group values {1,2} belong to still_alive=0 and {3,4} to 1.
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(idx("group")),
                         idx("still_alive")));
}

TEST(EchocardiogramTest, PlantedNdHolds) {
  Relation r = datasets::Echocardiogram();
  PliCache cache(&r);
  auto idx = [&](const char* name) {
    return *r.schema().IndexOf(name);
  };
  // still_alive ->(<=2) group over a 4-value domain: non-trivial ND.
  EXPECT_LE(ComputeMaxFanout(&cache, idx("still_alive"), idx("group")), 2u);
  size_t distinct_groups = 0;
  {
    std::vector<Value> vals = r.column(idx("group"));
    std::sort(vals.begin(), vals.end());
    distinct_groups = static_cast<size_t>(
        std::unique(vals.begin(), vals.end()) - vals.begin());
  }
  EXPECT_EQ(distinct_groups, 4u);
}

TEST(EchocardiogramTest, PlantedOdsHold) {
  Relation r = datasets::Echocardiogram();
  auto idx = [&](const char* name) {
    return *r.schema().IndexOf(name);
  };
  EncodedRelation encoded = EncodedRelation::Encode(r);
  EXPECT_TRUE(ValidateOd(encoded, idx("epss"), idx("lvdd")));
  EXPECT_TRUE(
      ValidateOd(encoded, idx("wall_motion_score"), idx("wall_motion_index")));
  EXPECT_TRUE(ValidateOd(encoded, idx("survival"), idx("alive_at_1")));
}

TEST(EchocardiogramTest, AllDependencyClassesDiscoverable) {
  // The reason the paper picked this dataset: FDs, ODs and NDs are all
  // discoverable (non-trivially).
  Relation r = datasets::Echocardiogram();
  auto fds = DiscoverFds(r, TaneOptions{.max_lhs_size = 1});
  ASSERT_TRUE(fds.ok());
  size_t nontrivial_fds = 0;
  for (const Dependency& d : fds->dependencies) {
    if (!d.lhs.empty()) ++nontrivial_fds;
  }
  EXPECT_GT(nontrivial_fds, 0u);

  auto ods = DiscoverOds(r);
  ASSERT_TRUE(ods.ok());
  EXPECT_GT(ods->size(), 0u);

  auto nds = DiscoverNds(r);
  ASSERT_TRUE(nds.ok());
  EXPECT_GT(nds->size(), 0u);
}

TEST(EchocardiogramTest, NameColumnIsConstant) {
  Relation r = datasets::Echocardiogram();
  size_t name_idx = *r.schema().IndexOf("name");
  for (const Value& v : r.column(name_idx)) {
    EXPECT_EQ(v, Value::Str("name"));
  }
}

// --- Fintech scenario -------------------------------------------------------------

TEST(FintechTest, PartiesShareIdsPartially) {
  datasets::FintechScenario s = datasets::Fintech();
  EXPECT_GT(s.bank.num_rows(), 100u);
  EXPECT_GT(s.ecommerce.num_rows(), 100u);
  EXPECT_EQ(s.bank.schema().attribute(0).name, "customer_id");
  EXPECT_EQ(s.ecommerce.schema().attribute(0).name, "customer_id");
}

TEST(FintechTest, PlantedStructureHolds) {
  datasets::FintechScenario s = datasets::Fintech();
  PliCache bank_cache(&s.bank);
  size_t income = *s.bank.schema().IndexOf("income");
  size_t band = *s.bank.schema().IndexOf("credit_band");
  EXPECT_TRUE(ValidateFd(&bank_cache, AttributeSet::Single(income), band));

  size_t orders = *s.ecommerce.schema().IndexOf("orders_per_year");
  size_t spend = *s.ecommerce.schema().IndexOf("total_spend");
  PliCache ecom_cache(&s.ecommerce);
  EXPECT_TRUE(ValidateFd(&ecom_cache, AttributeSet::Single(orders), spend));
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(s.ecommerce), orders, spend));
}

TEST(FintechTest, LabelHasBothClasses) {
  datasets::FintechScenario s = datasets::Fintech();
  size_t label = *s.bank.schema().IndexOf("loan_default");
  size_t ones = 0;
  for (const Value& v : s.bank.column(label)) {
    if (v == Value::Int(1)) ++ones;
  }
  EXPECT_GT(ones, 10u);
  EXPECT_LT(ones, s.bank.num_rows() - 10u);
}

// --- Synthetic generator -------------------------------------------------------------

TEST(SyntheticTest, RejectsInvalidConfigs) {
  datasets::SyntheticConfig empty;
  EXPECT_FALSE(datasets::Synthetic(empty).ok());

  datasets::SyntheticConfig bad_source;
  datasets::SyntheticAttribute a;
  a.name = "derived";
  a.kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone;
  a.source = 0;  // references itself
  bad_source.attributes = {a};
  EXPECT_FALSE(datasets::Synthetic(bad_source).ok());
}

TEST(SyntheticTest, PlantsFdAndOd) {
  datasets::SyntheticConfig config;
  config.num_rows = 500;
  datasets::SyntheticAttribute base;
  base.name = "x";
  base.kind = datasets::SyntheticAttribute::Kind::kContinuousBase;
  base.lo = 0;
  base.hi = 100;
  datasets::SyntheticAttribute derived;
  derived.name = "y";
  derived.kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone;
  derived.source = 0;
  derived.domain_size = 0;  // continuous output
  config.attributes = {base, derived};
  auto r = datasets::Synthetic(config);
  ASSERT_TRUE(r.ok());
  PliCache cache(&*r);
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(0), 1));
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(*r), 0, 1));
}

TEST(SyntheticTest, PlantsBoundedFanout) {
  datasets::SyntheticConfig config;
  config.num_rows = 1000;
  datasets::SyntheticAttribute base;
  base.name = "x";
  base.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  base.domain_size = 5;
  datasets::SyntheticAttribute derived;
  derived.name = "y";
  derived.kind = datasets::SyntheticAttribute::Kind::kDerivedBoundedFanout;
  derived.source = 0;
  derived.domain_size = 30;
  derived.fanout = 3;
  config.attributes = {base, derived};
  auto r = datasets::Synthetic(config);
  ASSERT_TRUE(r.ok());
  PliCache cache(&*r);
  EXPECT_LE(ComputeMaxFanout(&cache, 0, 1), 3u);
}

TEST(SyntheticTest, ApproximateViolationRateIsBounded) {
  datasets::SyntheticConfig config;
  config.num_rows = 4000;
  datasets::SyntheticAttribute base;
  base.name = "x";
  base.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  base.domain_size = 6;
  datasets::SyntheticAttribute derived;
  derived.name = "y";
  derived.kind = datasets::SyntheticAttribute::Kind::kDerivedApproximate;
  derived.source = 0;
  derived.domain_size = 6;
  derived.violation_rate = 0.08;
  config.attributes = {base, derived};
  auto r = datasets::Synthetic(config);
  ASSERT_TRUE(r.ok());
  PliCache cache(&*r);
  double g3 = ComputeG3(&cache, AttributeSet::Single(0), 1);
  EXPECT_GT(g3, 0.0);
  EXPECT_LT(g3, 0.12);  // bounded by the violation rate (plus slack)
}

TEST(TrivialControlTest, OnlyKeyBasedStructure) {
  auto r = datasets::TrivialControl(100, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 100u);
  // id is a key.
  PliCache cache(&*r);
  EXPECT_EQ(cache.Get(AttributeSet::Single(0))->num_classes(), 100u);
  // No order dependencies among the noise columns.
  auto ods = DiscoverOds(*r);
  ASSERT_TRUE(ods.ok());
  EXPECT_TRUE(ods->empty());
  // Every single-attribute FD has a key-like LHS (id or a unique noise
  // column) — the paper's "oversimplified mappings".
  auto fds = DiscoverFds(*r, TaneOptions{.max_lhs_size = 1,
                                         .include_constant_columns = false});
  ASSERT_TRUE(fds.ok());
  for (const Dependency& d : fds->dependencies) {
    size_t lhs = d.lhs.ToIndices()[0];
    EXPECT_EQ(cache.Get(AttributeSet::Single(lhs))->num_classes(), 100u)
        << d.ToString(r->schema());
  }
}

TEST(EchocardiogramTest, LoadUciFormatFile) {
  // Synthesize a UCI-format file (no header, "?" for missing) from the
  // replica and load it through the real-data path.
  Relation replica = datasets::Echocardiogram();
  std::string path = ::testing::TempDir() + "/echo_uci.data";
  {
    std::string text;
    for (size_t r = 0; r < replica.num_rows(); ++r) {
      for (size_t c = 0; c < replica.num_columns(); ++c) {
        if (c > 0) text += ',';
        text += replica.at(r, c).ToString();
      }
      text += '\n';
    }
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(text.c_str(), f);
    fclose(f);
  }
  auto loaded = datasets::LoadEchocardiogramFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), replica.num_rows());
  EXPECT_EQ(loaded->num_columns(), replica.num_columns());
  for (size_t c = 0; c < replica.num_columns(); ++c) {
    EXPECT_EQ(loaded->schema().attribute(c).name,
              replica.schema().attribute(c).name);
    EXPECT_EQ(loaded->schema().attribute(c).semantic,
              replica.schema().attribute(c).semantic)
        << "attr " << c;
  }
  // Null positions survive the round trip.
  size_t replica_nulls = 0;
  size_t loaded_nulls = 0;
  for (size_t c = 0; c < replica.num_columns(); ++c) {
    for (size_t r = 0; r < replica.num_rows(); ++r) {
      replica_nulls += replica.at(r, c).is_null() ? 1 : 0;
      loaded_nulls += loaded->at(r, c).is_null() ? 1 : 0;
    }
  }
  EXPECT_EQ(loaded_nulls, replica_nulls);
}

TEST(EchocardiogramTest, LoadRejectsWrongArity) {
  std::string path = ::testing::TempDir() + "/echo_bad.data";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("1,2,3\n4,5,6\n", f);
  fclose(f);
  EXPECT_FALSE(datasets::LoadEchocardiogramFile(path).ok());
  EXPECT_FALSE(datasets::LoadEchocardiogramFile("/no/such/file").ok());
}

TEST(SyntheticTest, UniformHelperShape) {
  auto r = datasets::SyntheticUniform(200, 3, 2, 10, 9);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 200u);
  EXPECT_EQ(r->num_columns(), 5u);
  EXPECT_EQ(r->schema().IndicesOf(SemanticType::kCategorical).size(), 3u);
  EXPECT_EQ(r->schema().IndicesOf(SemanticType::kContinuous).size(), 2u);
}

}  // namespace
}  // namespace metaleak
