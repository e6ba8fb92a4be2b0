// Unit and property tests for src/discovery: validators, TANE,
// pairwise RFD discovery, and the discovery engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "discovery/discovery_engine.h"
#include "discovery/rfd_discovery.h"
#include "discovery/tane.h"
#include "discovery/validators.h"
#include "value_reference.h"

namespace metaleak {
namespace {

Relation MakeRelation(std::vector<Attribute> attrs,
                      std::vector<std::vector<Value>> cols) {
  return std::move(Relation::Make(Schema(std::move(attrs)), std::move(cols)))
      .ValueOrDie();
}

std::vector<Value> Ints(std::initializer_list<int64_t> xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value::Int(x));
  return out;
}

std::vector<Value> Reals(std::initializer_list<double> xs) {
  std::vector<Value> out;
  for (double x : xs) out.push_back(Value::Real(x));
  return out;
}

Attribute Cat(const char* name) {
  return {name, DataType::kInt64, SemanticType::kCategorical};
}
Attribute Cont(const char* name) {
  return {name, DataType::kDouble, SemanticType::kContinuous};
}

// --- Validators -----------------------------------------------------------

TEST(ValidatorsTest, ValidateFd) {
  Relation r = MakeRelation({Cat("x"), Cat("y")},
                            {Ints({1, 1, 2, 2}), Ints({5, 5, 6, 6})});
  PliCache cache(&r);
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(0), 1));
  EXPECT_TRUE(ValidateFd(&cache, AttributeSet::Single(1), 0));

  Relation bad = MakeRelation({Cat("x"), Cat("y")},
                              {Ints({1, 1, 2, 2}), Ints({5, 6, 6, 6})});
  PliCache bad_cache(&bad);
  EXPECT_FALSE(ValidateFd(&bad_cache, AttributeSet::Single(0), 1));
  EXPECT_NEAR(ComputeG3(&bad_cache, AttributeSet::Single(0), 1), 0.25,
              1e-12);
}

TEST(ValidatorsTest, ValidateOdMonotonePasses) {
  Relation r = MakeRelation({Cont("x"), Cont("y")},
                            {Reals({1, 3, 2, 4}), Reals({10, 30, 20, 40})});
  EncodedRelation encoded = EncodedRelation::Encode(r);
  EXPECT_TRUE(ValidateOd(encoded, 0, 1));
  EXPECT_TRUE(ValidateOd(encoded, 1, 0));
}

TEST(ValidatorsTest, ValidateOdRejectsInversion) {
  Relation r = MakeRelation({Cont("x"), Cont("y")},
                            {Reals({1, 2, 3}), Reals({10, 30, 20})});
  EXPECT_FALSE(ValidateOd(EncodedRelation::Encode(r), 0, 1));
}

TEST(ValidatorsTest, ValidateOdTiesRequireEqualRhs) {
  // x has a tie (2, 2) with different y values: OD must fail.
  Relation r = MakeRelation({Cont("x"), Cont("y")},
                            {Reals({1, 2, 2}), Reals({10, 20, 21})});
  EXPECT_FALSE(ValidateOd(EncodedRelation::Encode(r), 0, 1));
  // Equal y on the tie: OD holds.
  Relation ok = MakeRelation({Cont("x"), Cont("y")},
                             {Reals({1, 2, 2}), Reals({10, 20, 20})});
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(ok), 0, 1));
}

TEST(ValidatorsTest, ValidateOdSkipsNulls) {
  Relation r = MakeRelation(
      {Cont("x"), Cont("y")},
      {{Value::Real(1), Value::Null(), Value::Real(3)},
       {Value::Real(10), Value::Real(999), Value::Real(30)}});
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(r), 0, 1));
}

TEST(ValidatorsTest, ValidateOfdRequiresStrictIncrease) {
  // Non-strict plateau: OD yes, OFD no.
  Relation plateau = MakeRelation({Cont("x"), Cont("y")},
                                  {Reals({1, 2, 3}), Reals({10, 10, 20})});
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(plateau), 0, 1));
  EXPECT_FALSE(ValidateOfd(EncodedRelation::Encode(plateau), 0, 1));

  Relation strict = MakeRelation({Cont("x"), Cont("y")},
                                 {Reals({1, 2, 3}), Reals({10, 11, 20})});
  EXPECT_TRUE(ValidateOfd(EncodedRelation::Encode(strict), 0, 1));
}

TEST(ValidatorsTest, ComputeMinimalDeltaExamples) {
  // Points (0,0), (1,10), (5,11): with eps=1 pairs {0,1} and... x-gap
  // between 1 and 5 is 4 > eps, so delta = |10-0| = 10.
  Relation r = MakeRelation({Cont("x"), Cont("y")},
                            {Reals({0, 1, 5}), Reals({0, 10, 11})});
  EncodedRelation encoded = EncodedRelation::Encode(r);
  auto d1 = ComputeMinimalDelta(encoded, 0, 1, 1.0);
  ASSERT_TRUE(d1.ok());
  EXPECT_DOUBLE_EQ(*d1, 10.0);
  // eps=5 adds the (1,5) and (0,5) pairs: delta = |11-0| = 11.
  auto d5 = ComputeMinimalDelta(encoded, 0, 1, 5.0);
  ASSERT_TRUE(d5.ok());
  EXPECT_DOUBLE_EQ(*d5, 11.0);
  // eps=0: only exact x ties pair up; none here.
  auto d0 = ComputeMinimalDelta(encoded, 0, 1, 0.0);
  ASSERT_TRUE(d0.ok());
  EXPECT_DOUBLE_EQ(*d0, 0.0);
}

TEST(ValidatorsTest, ComputeMinimalDeltaRejectsBadInput) {
  Relation r = MakeRelation({Cat("x"), Cont("y")},
                            {Ints({1, 2}), Reals({1, 2})});
  EncodedRelation encoded = EncodedRelation::Encode(r);
  EXPECT_FALSE(ComputeMinimalDelta(encoded, 0, 1, -1.0).ok());
  EXPECT_FALSE(ComputeMinimalDelta(encoded, 5, 1, 1.0).ok());
}

TEST(ValidatorsTest, ComputeMinimalDeltaBruteForceProperty) {
  // Sliding-window implementation equals the O(n^2) definition.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 40;
    std::vector<Value> xs;
    std::vector<Value> ys;
    for (size_t i = 0; i < n; ++i) {
      xs.push_back(Value::Real(rng.UniformDouble(0, 100)));
      ys.push_back(Value::Real(rng.UniformDouble(0, 50)));
    }
    Relation r = MakeRelation({Cont("x"), Cont("y")}, {xs, ys});
    double eps = rng.UniformDouble(0.5, 20.0);
    auto fast = ComputeMinimalDelta(EncodedRelation::Encode(r), 0, 1, eps);
    ASSERT_TRUE(fast.ok());
    auto brute = reference::MinimalDelta(r, {0}, {eps}, 1);
    ASSERT_TRUE(brute.ok());
    EXPECT_EQ(*fast, *brute) << "trial " << trial;
  }
}

TEST(ValidatorsTest, ValidateDependencyDispatches) {
  Relation r = MakeRelation({Cat("x"), Cat("y")},
                            {Ints({1, 1, 2, 2}), Ints({5, 5, 6, 6})});
  EXPECT_TRUE(
      *ValidateDependency(r, Dependency::Fd(AttributeSet::Single(0), 1)));
  EXPECT_TRUE(*ValidateDependency(r, Dependency::Nd(0, 1, 1)));
  EXPECT_TRUE(*ValidateDependency(r, Dependency::Od(0, 1)));
  EXPECT_FALSE(
      ValidateDependency(r, Dependency::Fd(AttributeSet::Single(0), 9)).ok());
}

// --- TANE ---------------------------------------------------------------------

TEST(TaneTest, FindsEmployeeFds) {
  Relation employee = datasets::Employee();
  auto result = DiscoverFds(employee);
  ASSERT_TRUE(result.ok());
  const DependencySet& deps = result->dependencies;
  // Name is a key: Name -> every other attribute.
  EXPECT_TRUE(deps.Contains(Dependency::Fd(AttributeSet::Single(0), 1)));
  EXPECT_TRUE(deps.Contains(Dependency::Fd(AttributeSet::Single(0), 2)));
  EXPECT_TRUE(deps.Contains(Dependency::Fd(AttributeSet::Single(0), 3)));
  // Age does NOT determine salary (Bob/Charlie are both 22).
  EXPECT_FALSE(deps.Contains(Dependency::Fd(AttributeSet::Single(1), 3)));
}

TEST(TaneTest, EmitsOnlyMinimalFds) {
  Relation employee = datasets::Employee();
  auto result = DiscoverFds(employee);
  ASSERT_TRUE(result.ok());
  // Since Name -> Age holds, {Name, Department} -> Age must not appear.
  EXPECT_FALSE(result->dependencies.Contains(
      Dependency::Fd(AttributeSet::Of({0, 2}), 1)));
  // Every reported FD is minimal: no other reported FD with the same RHS
  // has a strictly smaller LHS... and removal of any LHS attribute breaks
  // the FD (checked by validation).
  PliCache cache(&employee);
  for (const Dependency& d : result->dependencies) {
    ASSERT_EQ(d.kind, DependencyKind::kFunctional);
    EXPECT_TRUE(ValidateFd(&cache, d.lhs, d.rhs)) << d.ToString();
    for (size_t a : d.lhs.ToIndices()) {
      AttributeSet smaller = d.lhs.Without(a);
      EXPECT_FALSE(ValidateFd(&cache, smaller, d.rhs))
          << "non-minimal: " << d.ToString();
    }
  }
}

TEST(TaneTest, FindsConstantColumnFd) {
  Relation r = MakeRelation({Cat("x"), Cat("k")},
                            {Ints({1, 2, 3}), Ints({7, 7, 7})});
  auto result = DiscoverFds(r);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->dependencies.Contains(
      Dependency::Fd(AttributeSet(), 1)));

  TaneOptions no_const;
  no_const.include_constant_columns = false;
  auto without = DiscoverFds(r, no_const);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(
      without->dependencies.Contains(Dependency::Fd(AttributeSet(), 1)));
}

TEST(TaneTest, RespectsMaxLhsSize) {
  Relation employee = datasets::Employee();
  TaneOptions options;
  options.max_lhs_size = 1;
  auto result = DiscoverFds(employee, options);
  ASSERT_TRUE(result.ok());
  for (const Dependency& d : result->dependencies) {
    EXPECT_LE(d.lhs.size(), 1u);
  }
}

TEST(TaneTest, AfdModeEmitsApproximateDependencies) {
  // x -> y holds on 9 of 10 rows (g3 = 0.1).
  Relation r = MakeRelation(
      {Cat("x"), Cat("y")},
      {Ints({1, 1, 1, 1, 1, 2, 2, 2, 2, 2}),
       Ints({5, 5, 5, 5, 6, 7, 7, 7, 7, 7})});
  TaneOptions options;
  options.max_g3_error = 0.15;
  auto result = DiscoverFds(r, options);
  ASSERT_TRUE(result.ok());
  bool found_afd = false;
  for (const Dependency& d : result->dependencies) {
    if (d.kind == DependencyKind::kApproximateFunctional && d.rhs == 1 &&
        d.lhs == AttributeSet::Single(0)) {
      found_afd = true;
      EXPECT_NEAR(d.g3_error, 0.1, 1e-12);
    }
  }
  EXPECT_TRUE(found_afd);
}

// Property test: TANE output matches brute-force minimal-FD enumeration
// on small random relations.
class TaneBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaneBruteForceTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const size_t rows = 30;
  const size_t cols = 4;
  std::vector<Attribute> attrs;
  std::vector<std::vector<Value>> data(cols);
  for (size_t c = 0; c < cols; ++c) {
    attrs.push_back(Cat(("a" + std::to_string(c)).c_str()));
    for (size_t r = 0; r < rows; ++r) {
      data[c].push_back(Value::Int(rng.UniformInt(0, 3)));
    }
  }
  Relation rel = MakeRelation(attrs, data);

  TaneOptions options;
  options.max_lhs_size = 3;
  auto tane = DiscoverFds(rel, options);
  ASSERT_TRUE(tane.ok());

  // Brute force: for every RHS and LHS subset (size <= 3, not containing
  // RHS), the FD is minimal iff it holds and no proper subset holds.
  PliCache cache(&rel);
  DependencySet brute;
  for (size_t rhs = 0; rhs < cols; ++rhs) {
    for (uint64_t mask = 0; mask < (1u << cols); ++mask) {
      AttributeSet lhs;
      for (size_t i = 0; i < cols; ++i) {
        if ((mask >> i) & 1) lhs = lhs.With(i);
      }
      if (lhs.Contains(rhs) || lhs.size() > 3) continue;
      if (!ValidateFd(&cache, lhs, rhs)) continue;
      bool minimal = true;
      for (size_t a : lhs.ToIndices()) {
        if (ValidateFd(&cache, lhs.Without(a), rhs)) {
          minimal = false;
          break;
        }
      }
      if (minimal) brute.Add(Dependency::Fd(lhs, rhs));
    }
  }

  EXPECT_EQ(tane->dependencies.size(), brute.size());
  for (const Dependency& d : brute) {
    EXPECT_TRUE(tane->dependencies.Contains(d)) << "missing " << d.ToString();
  }
  for (const Dependency& d : tane->dependencies) {
    EXPECT_TRUE(brute.Contains(d)) << "spurious " << d.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaneBruteForceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

// --- RFD discovery ---------------------------------------------------------------

TEST(RfdDiscoveryTest, FindsPlantedOd) {
  Relation r = MakeRelation({Cont("x"), Cont("y"), Cont("noise")},
                            {Reals({1, 2, 3, 4}), Reals({5, 6, 7, 8}),
                             Reals({9, 2, 7, 1})});
  auto ods = DiscoverOds(r);
  ASSERT_TRUE(ods.ok());
  EXPECT_TRUE(ods->Contains(Dependency::Od(0, 1)));
  EXPECT_TRUE(ods->Contains(Dependency::Od(1, 0)));
  EXPECT_FALSE(ods->Contains(Dependency::Od(0, 2)));
}

TEST(RfdDiscoveryTest, OdSkipsConstantLhs) {
  Relation r = MakeRelation({Cont("k"), Cont("y")},
                            {Reals({1, 1, 1}), Reals({5, 6, 7})});
  auto ods = DiscoverOds(r);
  ASSERT_TRUE(ods.ok());
  EXPECT_FALSE(ods->Contains(Dependency::Od(0, 1)));
}

TEST(RfdDiscoveryTest, FindsPlantedOfd) {
  Relation r = MakeRelation({Cont("x"), Cont("y")},
                            {Reals({1, 2, 3}), Reals({5, 7, 9})});
  auto ofds = DiscoverOfds(r);
  ASSERT_TRUE(ofds.ok());
  EXPECT_TRUE(ofds->Contains(Dependency::Ofd(0, 1)));
}

TEST(RfdDiscoveryTest, FindsPlantedNdWithMinimalFanout) {
  // x=1 -> {10, 11}; x=2 -> {12}; distinct(y) = 3, K = 2.
  Relation r = MakeRelation(
      {Cat("x"), Cat("y")},
      {Ints({1, 1, 1, 2, 2, 1, 2, 1}),
       Ints({10, 11, 10, 12, 12, 11, 12, 10})});
  NdDiscoveryOptions options;
  options.max_fanout_fraction = 0.9;
  options.min_slack = 1;
  auto nds = DiscoverNds(r, options);
  ASSERT_TRUE(nds.ok());
  EXPECT_TRUE(nds->Contains(Dependency::Nd(0, 1, 2)));
}

TEST(RfdDiscoveryTest, NdSkipsTrivialFanout) {
  // Fan-out equals distinct(y): no constraint, must be skipped.
  Relation r = MakeRelation({Cat("x"), Cat("y")},
                            {Ints({1, 1, 1, 1}), Ints({1, 2, 3, 4})});
  auto nds = DiscoverNds(r);
  ASSERT_TRUE(nds.ok());
  EXPECT_TRUE(nds->empty());
}

TEST(RfdDiscoveryTest, FindsPlantedDd) {
  // y = 2x: proximal x implies proximal y.
  std::vector<Value> xs;
  std::vector<Value> ys;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    double x = rng.UniformDouble(0, 100);
    xs.push_back(Value::Real(x));
    ys.push_back(Value::Real(2 * x));
  }
  Relation r = MakeRelation({Cont("x"), Cont("y")}, {xs, ys});
  auto dds = DiscoverDds(r);
  ASSERT_TRUE(dds.ok());
  bool found = false;
  for (const Dependency& d : *dds) {
    if (d.lhs == AttributeSet::Single(0) && d.rhs == 1) {
      found = true;
      // Minimal delta for eps-window w is 2*w (slope 2).
      EXPECT_LE(d.rhs_delta, 2.1 * d.lhs_epsilon);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RfdDiscoveryTest, DdIgnoresCategoricalAttributes) {
  Relation r = MakeRelation({Cat("x"), Cont("y")},
                            {Ints({1, 2, 3}), Reals({1, 2, 3})});
  auto dds = DiscoverDds(r);
  ASSERT_TRUE(dds.ok());
  EXPECT_TRUE(dds->empty());
}

// --- DiscoveryEngine ---------------------------------------------------------------

TEST(DiscoveryEngineTest, ProfileEmployeeProducesFullPackage) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  const MetadataPackage& pkg = report->metadata;
  EXPECT_EQ(pkg.schema, employee.schema());
  EXPECT_EQ(pkg.num_rows, 4u);
  EXPECT_TRUE(pkg.HasAllDomains());
  EXPECT_GT(pkg.dependencies.size(), 0u);
  // One stats entry per enabled class, FD first, each with visited nodes.
  ASSERT_EQ(report->search_stats.size(), 5u);
  EXPECT_EQ(report->search_stats[0].search, "FD/AFD");
  for (const ClassSearchStats& s : report->search_stats) {
    EXPECT_GT(s.stats.nodes_visited, 0u) << s.search;
    EXPECT_GT(s.stats.validator_invocations, 0u) << s.search;
  }
  // The FD search runs on the shared PLI cache; its lookups must show
  // up in the per-search hit/miss deltas.
  EXPECT_GT(report->search_stats[0].stats.pli_cache_hits +
                report->search_stats[0].stats.pli_cache_misses,
            0u);
  EXPECT_GT(report->TotalSearchStats().nodes_visited,
            report->search_stats[0].stats.nodes_visited);
}

TEST(DiscoveryEngineTest, TogglesDisableClasses) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_ods = false;
  options.discover_nds = false;
  options.discover_dds = false;
  options.discover_ofds = false;
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());
  for (const Dependency& d : report->metadata.dependencies) {
    EXPECT_EQ(d.kind, DependencyKind::kFunctional);
  }
}

TEST(DiscoveryEngineTest, EveryReportedDependencyValidates) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_afds = true;
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());
  // Batch form: one encoding + one PLI cache for the whole set.
  auto verdicts =
      ValidateDependencies(employee, report->metadata.dependencies);
  ASSERT_TRUE(verdicts.ok());
  ASSERT_EQ(verdicts->size(), report->metadata.dependencies.size());
  size_t i = 0;
  for (const Dependency& d : report->metadata.dependencies) {
    EXPECT_TRUE((*verdicts)[i++]) << d.ToString(employee.schema());
  }
}

// --- Thread-count determinism ---------------------------------------------

// Runs every discovery class on `relation` and returns the concatenated
// canonical results.
std::vector<Dependency> DiscoverAll(const Relation& relation) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  std::vector<Dependency> out;
  auto append = [&](const Result<DependencySet>& deps) {
    ASSERT_TRUE(deps.ok()) << deps.status().ToString();
    for (const Dependency& d : *deps) out.push_back(d);
  };
  TaneOptions tane_options;
  tane_options.max_g3_error = 0.1;
  auto fds = DiscoverFds(encoded, tane_options);
  EXPECT_TRUE(fds.ok());
  if (fds.ok()) {
    for (const Dependency& d : fds->dependencies) out.push_back(d);
  }
  append(DiscoverOds(encoded));
  append(DiscoverOfds(encoded));
  append(DiscoverNds(encoded));
  append(DiscoverDds(encoded));
  return out;
}

// The satellite regression for the parallel runtime: discovery output on
// the paper's datasets must be identical (same dependencies, same order)
// no matter how many pool threads validated the candidates.
TEST(ParallelDeterminismTest, DiscoveryIdenticalAtOneAndEightThreads) {
  for (const Relation& relation :
       {datasets::Employee(), datasets::Echocardiogram()}) {
    SetGlobalThreadCount(1);
    std::vector<Dependency> serial = DiscoverAll(relation);
    SetGlobalThreadCount(8);
    std::vector<Dependency> parallel = DiscoverAll(relation);
    SetGlobalThreadCount(0);
    EXPECT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "dependency " << i << ": " << serial[i].ToString() << " vs "
          << parallel[i].ToString();
    }
  }
}

}  // namespace
}  // namespace metaleak
