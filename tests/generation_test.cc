// Tests for src/generation: each generator must produce columns that
// satisfy the dependency class that drove them — the core soundness
// property of the adversary model — plus engine-level behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "data/datasets/employee.h"
#include "data/domain.h"
#include "discovery/discovery_engine.h"
#include "discovery/validators.h"
#include "generation/column_generators.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/experiment.h"
#include "privacy/tuple_risk.h"

namespace metaleak {
namespace {

Domain SmallCatDomain() {
  return Domain::Categorical({Value::Str("a"), Value::Str("b"),
                              Value::Str("c"), Value::Str("d"),
                              Value::Str("e")});
}

Attribute Cat(const char* name, DataType type = DataType::kString) {
  return {name, type, SemanticType::kCategorical};
}

Attribute Cont(const char* name) {
  return {name, DataType::kDouble, SemanticType::kContinuous};
}

// A package disclosing `attrs`, their `domains` and `deps`.
MetadataPackage Package(std::vector<Attribute> attrs,
                        std::vector<Domain> domains,
                        std::vector<Dependency> deps = {}) {
  MetadataPackage pkg;
  pkg.schema = Schema(std::move(attrs));
  for (Domain& d : domains) pkg.domains.emplace_back(std::move(d));
  for (const Dependency& d : deps) pkg.dependencies.Add(d);
  return pkg;
}

// `num_rows` rows from the shipped generator.
Relation Generate(const MetadataPackage& pkg, size_t num_rows,
                  uint64_t seed) {
  Rng rng(seed);
  return std::move(GenerateSynthetic(pkg, num_rows, &rng))
      .ValueOrDie()
      .relation;
}

// --- Root generation -----------------------------------------------------------

TEST(ColumnGeneratorsTest, RootStaysInDomain) {
  Domain domain = SmallCatDomain();
  Relation r = Generate(Package({Cat("x")}, {domain}), 500, 1);
  ASSERT_EQ(r.num_rows(), 500u);
  for (const Value& v : r.column(0)) EXPECT_TRUE(domain.Contains(v));
}

TEST(ColumnGeneratorsTest, RootIsRoughlyUniform) {
  Domain domain = SmallCatDomain();
  Relation r = Generate(Package({Cat("x")}, {domain}), 20000, 2);
  std::unordered_map<Value, size_t> counts;
  for (const Value& v : r.column(0)) counts[v]++;
  for (const Value& v : domain.values()) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / 20000.0, 0.2, 0.02);
  }
}

// --- FD generation ----------------------------------------------------------------

TEST(ColumnGeneratorsTest, FdColumnIsFunctionOfLhs) {
  Domain rhs_domain = Domain::Categorical({Value::Int(1), Value::Int(2),
                                           Value::Int(3)});
  Relation r = Generate(
      Package({Cat("x"), Cat("y", DataType::kInt64)},
              {SmallCatDomain(), rhs_domain},
              {Dependency::Fd(AttributeSet::Single(0), 1)}),
      300, 3);
  const std::vector<Value>& lhs = r.column(0);
  const std::vector<Value>& rhs = r.column(1);
  std::unordered_map<Value, Value> mapping;
  for (size_t row = 0; row < lhs.size(); ++row) {
    auto it = mapping.find(lhs[row]);
    if (it == mapping.end()) {
      mapping.emplace(lhs[row], rhs[row]);
    } else {
      EXPECT_EQ(it->second, rhs[row]) << "FD violated at row " << row;
    }
    EXPECT_TRUE(rhs_domain.Contains(rhs[row]));
  }
}

TEST(ColumnGeneratorsTest, FdEmptyLhsIsConstantColumn) {
  Relation r = Generate(Package({Cat("x")}, {SmallCatDomain()},
                                {Dependency::Fd(AttributeSet(), 0)}),
                        50, 4);
  for (const Value& v : r.column(0)) EXPECT_EQ(v, r.at(0, 0));
}

TEST(ColumnGeneratorsTest, FdCompositeLhsMapping) {
  Domain d = Domain::Categorical({Value::Int(0), Value::Int(1)});
  Relation r = Generate(
      Package({Cat("a", DataType::kInt64), Cat("b", DataType::kInt64),
               Cat("y")},
              {d, d, SmallCatDomain()},
              {Dependency::Fd(AttributeSet::Of({0, 1}), 2)}),
      200, 5);
  std::map<std::pair<std::string, std::string>, Value> mapping;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    auto key = std::make_pair(r.at(row, 0).ToString(),
                              r.at(row, 1).ToString());
    auto it = mapping.find(key);
    if (it == mapping.end()) {
      mapping.emplace(key, r.at(row, 2));
    } else {
      EXPECT_EQ(it->second, r.at(row, 2));
    }
  }
}

// --- AFD generation ----------------------------------------------------------------

TEST(ColumnGeneratorsTest, AfdViolationRateNearG3) {
  Domain lhs_domain = Domain::Categorical({Value::Int(0), Value::Int(1)});
  const size_t n = 20000;
  Relation r = Generate(
      Package({Cat("x", DataType::kInt64), Cat("y")},
              {lhs_domain, SmallCatDomain()},
              {Dependency::Afd(AttributeSet::Single(0), 1, 0.2)}),
      n, 6);
  // Majority class per LHS value approximates the mapping; deviations
  // approximate the violation rate: 0.2 redraws, 4/5 of which differ.
  std::unordered_map<Value, std::unordered_map<Value, size_t>> counts;
  for (size_t row = 0; row < n; ++row) counts[r.at(row, 0)][r.at(row, 1)]++;
  size_t majority_total = 0;
  for (auto& [x, ys] : counts) {
    size_t best = 0;
    for (auto& [y, c] : ys) best = std::max(best, c);
    majority_total += best;
  }
  double violation_rate =
      1.0 - static_cast<double>(majority_total) / static_cast<double>(n);
  EXPECT_NEAR(violation_rate, 0.2 * 0.8, 0.02);
}

TEST(ColumnGeneratorsTest, AfdZeroErrorIsExactFd) {
  Relation r = Generate(
      Package({Cat("x"), Cat("y")}, {SmallCatDomain(), SmallCatDomain()},
              {Dependency::Afd(AttributeSet::Single(0), 1, 0.0)}),
      200, 7);
  std::unordered_map<Value, Value> mapping;
  for (size_t row = 0; row < 200; ++row) {
    auto [it, inserted] = mapping.emplace(r.at(row, 0), r.at(row, 1));
    if (!inserted) {
      EXPECT_EQ(it->second, r.at(row, 1));
    }
  }
}

// --- ND generation -----------------------------------------------------------------

TEST(ColumnGeneratorsTest, NdRespectsFanoutBound) {
  Domain lhs_domain = Domain::Categorical({Value::Int(0), Value::Int(1),
                                           Value::Int(2)});
  Domain rhs_domain = Domain::Categorical(
      {Value::Int(10), Value::Int(11), Value::Int(12), Value::Int(13),
       Value::Int(14), Value::Int(15), Value::Int(16), Value::Int(17)});
  const size_t k = 3;
  Relation r = Generate(
      Package({Cat("x", DataType::kInt64), Cat("y", DataType::kInt64)},
              {lhs_domain, rhs_domain}, {Dependency::Nd(0, 1, k)}),
      2000, 8);
  std::unordered_map<Value, std::unordered_set<Value>> fanout;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    fanout[r.at(row, 0)].insert(r.at(row, 1));
    EXPECT_TRUE(rhs_domain.Contains(r.at(row, 1)));
  }
  for (auto& [x, ys] : fanout) EXPECT_LE(ys.size(), k);
}

TEST(ColumnGeneratorsTest, NdPoolIsDistinctForCategoricalDomain) {
  Domain lhs_domain = Domain::Categorical({Value::Int(0)});
  Relation r = Generate(
      Package({Cat("x", DataType::kInt64), Cat("y")},
              {lhs_domain, SmallCatDomain()}, {Dependency::Nd(0, 1, 3)}),
      5000, 9);
  std::unordered_set<Value> seen(r.column(1).begin(), r.column(1).end());
  // Pool drawn without replacement: exactly min(3, 5) values appear.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ColumnGeneratorsTest, NdFanoutLargerThanDomainClamps) {
  Domain lhs_domain = Domain::Categorical({Value::Int(0)});
  Domain rhs_domain = Domain::Categorical({Value::Int(1), Value::Int(2)});
  Relation r = Generate(
      Package({Cat("x", DataType::kInt64), Cat("y", DataType::kInt64)},
              {lhs_domain, rhs_domain}, {Dependency::Nd(0, 1, 10)}),
      100, 10);
  for (const Value& v : r.column(1)) EXPECT_TRUE(rhs_domain.Contains(v));
}

// --- OD / OFD generation --------------------------------------------------------------

TEST(ColumnGeneratorsTest, OdOutputSatisfiesOrderDependency) {
  // Generation and the discovery-side validator must agree on the OD
  // semantics.
  Relation r = Generate(
      Package({Cont("x"), Cont("y")},
              {Domain::Continuous(0, 100), Domain::Continuous(-50, 50)},
              {Dependency::Od(0, 1)}),
      200, 11);
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(r), 0, 1));
}

TEST(ColumnGeneratorsTest, OdWorksOntoCategoricalDomain) {
  Relation r = Generate(
      Package({Cont("x"), Cat("y")},
              {Domain::Continuous(0, 10), SmallCatDomain()},
              {Dependency::Od(0, 1)}),
      100, 12);
  EXPECT_TRUE(ValidateOd(EncodedRelation::Encode(r), 0, 1));
}

TEST(ColumnGeneratorsTest, OfdOutputSatisfiesStrictOrder) {
  Relation r = Generate(
      Package({Cont("x"), Cont("y")},
              {Domain::Continuous(0, 100), Domain::Continuous(0, 1)},
              {Dependency::Ofd(0, 1)}),
      150, 13);
  EXPECT_TRUE(ValidateOfd(EncodedRelation::Encode(r), 0, 1));
}

TEST(ColumnGeneratorsTest, OfdCategoricalUsesDistinctValuesWhenPossible) {
  // 3 distinct LHS values, 5-value RHS domain: strict walk possible.
  Domain lhs_domain = Domain::Categorical({Value::Int(1), Value::Int(2),
                                           Value::Int(3)});
  Relation r = Generate(
      Package({Cat("x", DataType::kInt64), Cat("y")},
              {lhs_domain, SmallCatDomain()}, {Dependency::Ofd(0, 1)}),
      60, 14);
  std::unordered_set<Value> lhs(r.column(0).begin(), r.column(0).end());
  ASSERT_EQ(lhs.size(), 3u);
  EXPECT_TRUE(ValidateOfd(EncodedRelation::Encode(r), 0, 1));
}

// --- DD generation -----------------------------------------------------------------

TEST(ColumnGeneratorsTest, DdChainedStepsStayWithinDelta) {
  const double eps = 5.0;
  const double delta = 3.0;
  Relation r = Generate(
      Package({Cont("x"), Cont("y")},
              {Domain::Continuous(0, 10), Domain::Continuous(0, 100)},
              {Dependency::Dd(0, 1, eps, delta)}),
      300, 15);
  // Consecutive rows in LHS order with gap <= eps differ by <= delta.
  std::vector<size_t> order(300);
  for (size_t i = 0; i < 300; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return r.at(a, 0).AsDouble() < r.at(b, 0).AsDouble();
  });
  for (size_t i = 1; i < order.size(); ++i) {
    double dx =
        r.at(order[i], 0).AsDouble() - r.at(order[i - 1], 0).AsDouble();
    if (dx <= eps) {
      double dy = std::abs(r.at(order[i], 1).AsDouble() -
                           r.at(order[i - 1], 1).AsDouble());
      EXPECT_LE(dy, delta + 1e-9);
    }
  }
}

TEST(ColumnGeneratorsTest, DdRejectsCategoricalTarget) {
  Rng rng(16);
  const std::vector<Domain> domains = {Domain::Continuous(0, 1),
                                       SmallCatDomain()};
  EncodedBatch batch;
  batch.Configure(ColumnKindsForDomains(domains));
  batch.ResetRows(1);
  EXPECT_TRUE(GenerateDdColumnEncoded(0, domains[1], {}, 1, 1, 1, &rng,
                                      &batch, 1)
                  .IsTypeError());
  // The engine draws such a column from its domain instead.
  Relation r = Generate(Package({Cont("x"), Cat("y")}, domains,
                                {Dependency::Dd(0, 1, 1, 1)}),
                        20, 16);
  for (const Value& v : r.column(1)) EXPECT_TRUE(domains[1].Contains(v));
}

// --- GenerationEngine --------------------------------------------------------------

TEST(GenerationEngineTest, RequiresDomains) {
  Relation employee = datasets::Employee();
  MetadataPackage pkg;
  pkg.schema = employee.schema();
  pkg.domains.assign(4, std::nullopt);
  Rng rng(1);
  EXPECT_FALSE(GenerateSynthetic(pkg, 4, &rng).ok());
}

TEST(GenerationEngineTest, ProducesAlignedRelation) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(2);
  auto outcome = GenerateSynthetic(report->metadata, 4, &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->relation.num_rows(), 4u);
  EXPECT_EQ(outcome->relation.num_columns(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(outcome->relation.schema().attribute(c).name,
              employee.schema().attribute(c).name);
  }
}

TEST(GenerationEngineTest, RandomModeUsesNoDependencies) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(3);
  GenerationOptions options;
  options.ignore_dependencies = true;
  auto outcome =
      GenerateSynthetic(report->metadata, 10, &rng, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->plan.num_derived(), 0u);
}

TEST(GenerationEngineTest, GeneratedValuesLieInDisclosedDomains) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(4);
  auto outcome = GenerateSynthetic(report->metadata, 100, &rng);
  ASSERT_TRUE(outcome.ok());
  auto domains = report->metadata.RequireDomains();
  ASSERT_TRUE(domains.ok());
  for (size_t c = 0; c < outcome->relation.num_columns(); ++c) {
    for (size_t r = 0; r < outcome->relation.num_rows(); ++r) {
      EXPECT_TRUE((*domains)[c].Contains(outcome->relation.at(r, c)))
          << "col " << c << " row " << r;
    }
  }
}

TEST(GenerationEngineTest, DeterministicGivenSeed) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng_a(42);
  Rng rng_b(42);
  auto a = GenerateSynthetic(report->metadata, 20, &rng_a);
  auto b = GenerateSynthetic(report->metadata, 20, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->relation, b->relation);
}

// Property: generation restricted to one dependency class produces output
// that *satisfies* every dependency of that class used in the plan.
class GenerationSoundnessTest
    : public ::testing::TestWithParam<DependencyKind> {};

TEST_P(GenerationSoundnessTest, PlanDependenciesHoldOnOutput) {
  Relation employee = datasets::Employee();
  DiscoveryOptions discovery;
  discovery.discover_afds = true;
  auto report = ProfileRelation(employee, discovery);
  ASSERT_TRUE(report.ok());
  Rng rng(77);
  GenerationOptions options;
  options.allowed_kinds = {GetParam()};
  auto outcome =
      GenerateSynthetic(report->metadata, 200, &rng, options);
  ASSERT_TRUE(outcome.ok());
  // Encode the generated relation once; the per-step validations below
  // run against the shared encoding instead of re-encoding each time.
  EncodedRelation generated = EncodedRelation::Encode(outcome->relation);
  for (const GenerationStep& step : outcome->plan.steps()) {
    if (!step.via.has_value()) continue;
    Dependency dep = *step.via;
    EXPECT_EQ(dep.kind, GetParam());
    // DD generation is a chain process: it guarantees consecutive-pair
    // proximity, not the full pairwise property; skip exact validation.
    if (dep.kind == DependencyKind::kDifferential) continue;
    // AFD redraws are Bernoulli: validate against a slack bound instead
    // of the recorded g3.
    if (dep.kind == DependencyKind::kApproximateFunctional) {
      dep.g3_error = std::min(1.0, dep.g3_error * 3 + 0.05);
    }
    auto valid = ValidateDependency(generated, dep);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << dep.ToString(employee.schema());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GenerationSoundnessTest,
    ::testing::Values(DependencyKind::kFunctional,
                      DependencyKind::kApproximateFunctional,
                      DependencyKind::kNumerical, DependencyKind::kOrder,
                      DependencyKind::kOrderedFunctional,
                      DependencyKind::kDifferential));


// --- Packages GenerationContext::Build rejects -------------------------------
//
// A package comes from another party, as MetadataPackage::Deserialize
// text. One the dense-code generator cannot represent is rejected by
// GenerationContext::Build, and every attack entry point returns that
// Invalid, naming the reason.

void ExpectRejectedEverywhere(const MetadataPackage& pkg,
                              const Relation& real,
                              const std::string& reason) {
  auto names_reason = [&](const Status& st) {
    return st.IsInvalid() && st.message().find(reason) != std::string::npos;
  };
  Rng rng(1);
  Status generated = GenerateSynthetic(pkg, real.num_rows(), &rng).status();
  EXPECT_TRUE(names_reason(generated)) << generated.ToString();
  ExperimentConfig config;
  config.rounds = 2;
  Status run = ExperimentEngine(real, pkg)
                   .Run(GenerationMethod::kRandom, config)
                   .status();
  EXPECT_TRUE(names_reason(run)) << run.ToString();
  Status attack = ExperimentEngine(real, pkg)
                      .ReplayRound(GenerationMethod::kFull, 1)
                      .status();
  EXPECT_TRUE(names_reason(attack)) << attack.ToString();
  TupleRiskOptions risk;
  risk.rounds = 2;
  Status tuples = AnalyzeTupleRisk(real, pkg, risk).status();
  EXPECT_TRUE(names_reason(tuples)) << tuples.ToString();
}

MetadataPackage Deserialized(const std::string& text) {
  return std::move(MetadataPackage::Deserialize(
                       "metaleak-metadata v1\nrows\t4\n" + text))
      .ValueOrDie();
}

Relation CategoricalAb() {
  return std::move(Relation::Make(Schema({Cat("c")}),
                                  {{Value::Str("a"), Value::Str("b"),
                                    Value::Str("a"), Value::Str("b")}}))
      .ValueOrDie();
}

Relation ContinuousX() {
  return std::move(Relation::Make(Schema({Cont("x")}),
                                  {{Value::Real(0.1), Value::Real(0.4),
                                    Value::Real(0.6), Value::Real(0.9)}}))
      .ValueOrDie();
}

TEST(GenerationRejectionTest, ContinuousDistributionOverCategoricalDomain) {
  ExpectRejectedEverywhere(
      Deserialized("attr\tc\tstring\tcategorical\n"
                   "domain\t0\tcategorical\ts:a|s:b\n"
                   "dist\t0\tcontinuous\t0\t1\t2,2\n"),
      CategoricalAb(), "continuous distribution over a categorical domain");
}

TEST(GenerationRejectionTest, DistributionSupportOutsideDomain) {
  ExpectRejectedEverywhere(
      Deserialized("attr\tc\tstring\tcategorical\n"
                   "domain\t0\tcategorical\ts:a|s:b\n"
                   "dist\t0\tcategorical\ts:a@2|s:z@2\n"),
      CategoricalAb(), "distribution support does not map into the domain");
}

TEST(GenerationRejectionTest, CategoricalDistributionOverContinuousDomain) {
  ExpectRejectedEverywhere(
      Deserialized("attr\tx\tdouble\tcontinuous\n"
                   "domain\t0\tcontinuous\t0\t1\n"
                   "dist\t0\tcategorical\td:0.5@4\n"),
      ContinuousX(), "categorical distribution over a continuous domain");
}

TEST(GenerationRejectionTest, NanDomainEntry) {
  // The text format cannot carry NaN at all ...
  EXPECT_TRUE(MetadataPackage::Deserialize(
                  "metaleak-metadata v1\nattr\tx\tdouble\tcontinuous\n"
                  "domain\t0\tcategorical\td:nan|d:0.5\n")
                  .status()
                  .IsIoError());
  // ... so a NaN entry can only come from a hand-built package.
  MetadataPackage pkg;
  pkg.schema = Schema({Cont("x")});
  pkg.domains.emplace_back(Domain::Categorical(
      {Value::Real(std::numeric_limits<double>::quiet_NaN()),
       Value::Real(0.5)}));
  ExpectRejectedEverywhere(pkg, ContinuousX(), "NaN in a generation domain");
}

}  // namespace
}  // namespace metaleak
