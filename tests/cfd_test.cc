// Tests for conditional functional dependencies: model, validation,
// discovery, serialization, CFD-aware generation, and the privacy
// conclusion (CFD-informed generation ~= random).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "discovery/cfd_discovery.h"
#include "discovery/discovery_engine.h"
#include "generation/cfd_generator.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/experiment.h"
#include "value_reference.h"

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

// A relation where region="eu" scopes the FD dept -> manager, but the FD
// fails globally (the "us" scope disagrees); and every "us" row has
// currency "usd" (a constant CFD) while "eu" rows vary.
Relation CfdRelation() {
  std::vector<Value> region;
  std::vector<Value> dept;
  std::vector<Value> manager;
  std::vector<Value> currency;
  auto add = [&](const char* r, const char* d, const char* m,
                 const char* c) {
    region.push_back(Value::Str(r));
    dept.push_back(Value::Str(d));
    manager.push_back(Value::Str(m));
    currency.push_back(Value::Str(c));
  };
  for (int i = 0; i < 10; ++i) {
    add("eu", "sales", "anna", i % 2 == 0 ? "eur" : "sek");
    add("eu", "dev", "bert", "eur");
  }
  for (int i = 0; i < 10; ++i) {
    // Same dept maps to different managers in "us": global FD fails.
    add("us", "sales", i % 2 == 0 ? "carl" : "dora", "usd");
  }
  return MakeRelation(
      {Cat("region"), Cat("dept"), Cat("manager"), Cat("currency")},
      {region, dept, manager, currency});
}

// --- Model / validation -----------------------------------------------------

TEST(CfdTest, RenderingUsesSchemaNames) {
  Relation r = CfdRelation();
  ConditionalFd variable = ConditionalFd::Variable(
      0, Value::Str("eu"), AttributeSet::Single(1), 2, 20);
  EXPECT_EQ(variable.ToString(r.schema()),
            "CFD [region=eu] => {dept} -> manager (support=20)");
  ConditionalFd constant = ConditionalFd::Constant(
      0, Value::Str("us"), 3, Value::Str("usd"), 10);
  EXPECT_EQ(constant.ToString(r.schema()),
            "CFD [region=us] => currency = usd (support=10)");
}

TEST(CfdTest, ValidateVariableCfd) {
  Relation r = CfdRelation();
  ConditionalFd holds = ConditionalFd::Variable(
      0, Value::Str("eu"), AttributeSet::Single(1), 2, 20);
  EXPECT_TRUE(*ValidateCfd(r, holds));
  ConditionalFd fails = ConditionalFd::Variable(
      0, Value::Str("us"), AttributeSet::Single(1), 2, 10);
  EXPECT_FALSE(*ValidateCfd(r, fails));
}

TEST(CfdTest, ValidateConstantCfd) {
  Relation r = CfdRelation();
  ConditionalFd holds = ConditionalFd::Constant(
      0, Value::Str("us"), 3, Value::Str("usd"), 10);
  EXPECT_TRUE(*ValidateCfd(r, holds));
  ConditionalFd fails = ConditionalFd::Constant(
      0, Value::Str("eu"), 3, Value::Str("eur"), 20);
  EXPECT_FALSE(*ValidateCfd(r, fails));
}

TEST(CfdTest, ValidateVacuousAndBadInput) {
  Relation r = CfdRelation();
  ConditionalFd vacuous = ConditionalFd::Variable(
      0, Value::Str("asia"), AttributeSet::Single(1), 2, 0);
  EXPECT_TRUE(*ValidateCfd(r, vacuous));
  ConditionalFd bad = ConditionalFd::Variable(
      9, Value::Str("eu"), AttributeSet::Single(1), 2, 0);
  EXPECT_FALSE(ValidateCfd(r, bad).ok());
  ConditionalFd empty_lhs;
  empty_lhs.rhs_is_constant = false;
  EXPECT_FALSE(ValidateCfd(r, empty_lhs).ok());
}

// --- Discovery -----------------------------------------------------------------

TEST(CfdTest, DiscoversPlantedVariableCfd) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions options;
  options.min_support = 5;
  auto cfds = DiscoverCfds(r, options);
  ASSERT_TRUE(cfds.ok());
  ConditionalFd expected = ConditionalFd::Variable(
      0, Value::Str("eu"), AttributeSet::Single(1), 2, 20);
  EXPECT_NE(std::find(cfds->begin(), cfds->end(), expected), cfds->end());
  // The failing us-scope must not appear.
  ConditionalFd wrong = ConditionalFd::Variable(
      0, Value::Str("us"), AttributeSet::Single(1), 2, 10);
  EXPECT_EQ(std::find(cfds->begin(), cfds->end(), wrong), cfds->end());
}

TEST(CfdTest, DiscoversPlantedConstantCfd) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions options;
  options.min_support = 5;
  auto cfds = DiscoverCfds(r, options);
  ASSERT_TRUE(cfds.ok());
  ConditionalFd expected = ConditionalFd::Constant(
      0, Value::Str("us"), 3, Value::Str("usd"), 10);
  EXPECT_NE(std::find(cfds->begin(), cfds->end(), expected), cfds->end());
}

TEST(CfdTest, EveryDiscoveredCfdValidates) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions options;
  options.min_support = 4;
  auto cfds = DiscoverCfds(r, options);
  ASSERT_TRUE(cfds.ok());
  EXPECT_GT(cfds->size(), 0u);
  for (const ConditionalFd& cfd : *cfds) {
    auto valid = ValidateCfd(r, cfd);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << cfd.ToString(r.schema());
    EXPECT_GE(cfd.support, options.min_support);
  }
}

TEST(CfdTest, MinSupportFilters) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions strict;
  strict.min_support = 1000;
  auto cfds = DiscoverCfds(r, strict);
  ASSERT_TRUE(cfds.ok());
  EXPECT_TRUE(cfds->empty());
}

// --- Codes path vs the boxed-Value oracle ------------------------------------

Attribute IntCat(const char* name) {
  return {name, DataType::kInt64, SemanticType::kCategorical};
}

Attribute RealAttr(const char* name) {
  return {name, DataType::kDouble, SemanticType::kContinuous};
}

// NULLs in condition and RHS cells, a condition value seen once ("c"),
// and an int and a real column; "cond" -> "y" fails globally (the NULL
// condition rows disagree on y), so its constant CFDs are reported.
Relation EdgeRelation() {
  const Value null = Value::Null();
  auto s = [](const char* v) { return Value::Str(v); };
  return MakeRelation(
      {Cat("cond"), IntCat("x"), Cat("y"), RealAttr("real")},
      {{s("a"), s("a"), s("b"), null, null, s("c"), s("a"), s("b")},
       {Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(2), null,
        Value::Int(3), Value::Int(1), Value::Int(2)},
       {s("p"), s("p"), null, s("q"), s("r"), s("r"), s("p"), null},
       {Value::Real(1.5), Value::Real(1.5), Value::Real(3.0), Value::Real(3.0),
        null, Value::Real(2.0), Value::Real(1.5), Value::Real(3.0)}});
}

std::vector<Relation> OracleInputs() {
  return {CfdRelation(), EdgeRelation(), datasets::Employee(),
          datasets::Echocardiogram(),
          std::move(datasets::SyntheticUniform(50, 3, 2, 8, 13)).ValueOrDie()};
}

std::vector<CfdDiscoveryOptions> OracleOptions() {
  CfdDiscoveryOptions defaults;
  CfdDiscoveryOptions singletons;  // conditions seen on one row count too
  singletons.min_support = 1;
  CfdDiscoveryOptions keep_global = singletons;
  keep_global.skip_global_fds = false;
  CfdDiscoveryOptions wide;  // near-key condition attributes
  wide.min_support = 2;
  wide.max_condition_distinct = 1000;
  return {defaults, singletons, keep_global, wide};
}

std::vector<std::string> Render(const std::vector<ConditionalFd>& cfds,
                                const Schema& schema) {
  std::vector<std::string> out;
  for (const ConditionalFd& cfd : cfds) out.push_back(cfd.ToString(schema));
  return out;
}

class CfdOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }
};

TEST_P(CfdOracleTest, DiscoveryMatchesInContentAndOrder) {
  for (const Relation& rel : OracleInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (const CfdDiscoveryOptions& options : OracleOptions()) {
      SCOPED_TRACE("min_support " + std::to_string(options.min_support) +
                   " max_condition_distinct " +
                   std::to_string(options.max_condition_distinct));
      const std::vector<ConditionalFd> expected =
          reference::DiscoverCfds(rel, options);
      auto actual = DiscoverCfds(rel, options);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(Render(*actual, rel.schema()),
                Render(expected, rel.schema()));
      EXPECT_TRUE(*actual == expected);

      // The profile runs the same search on its own cache.
      DiscoveryOptions profile_options;
      profile_options.discover_cfds = true;
      profile_options.cfd = options;
      auto profile = ProfileRelation(encoded, profile_options);
      ASSERT_TRUE(profile.ok()) << profile.status().ToString();
      EXPECT_TRUE(profile->metadata.conditional_fds == expected);
    }
  }
}

TEST_P(CfdOracleTest, ValidationMatchesOnEveryCandidate) {
  // Every (condition attribute, RHS) pair with condition values drawn
  // from the column, NULL, an absent string and both numeric types of 3,
  // against constants (a column value, NULL, absent) and 1- and
  // 2-attribute LHS sets.
  for (const Relation& rel : OracleInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    const size_t m = rel.num_columns();
    for (size_t c = 0; c < m; ++c) {
      std::vector<Value> conditions = {Value::Null(), Value::Str("absent"),
                                       Value::Int(3), Value::Real(3.0)};
      for (size_t r = 0; r < std::min<size_t>(rel.num_rows(), 3); ++r) {
        conditions.push_back(rel.at(r, c));
      }
      for (size_t a = 0; a < m; ++a) {
        if (a == c) continue;
        std::vector<ConditionalFd> candidates;
        for (const Value& cv : conditions) {
          for (const Value& constant :
               {rel.at(0, a), Value::Null(), Value::Str("absent")}) {
            candidates.push_back(
                ConditionalFd::Constant(c, cv, a, constant, 0));
          }
          for (size_t x = 0; x < m; ++x) {
            if (x == a) continue;
            candidates.push_back(ConditionalFd::Variable(
                c, cv, AttributeSet::Single(x), a, 0));
            const size_t y = (x + 1) % m;
            if (y != a && y != x) {
              candidates.push_back(ConditionalFd::Variable(
                  c, cv, AttributeSet::Of({x, y}), a, 0));
            }
          }
        }
        for (const ConditionalFd& cfd : candidates) {
          auto expected = reference::ValidateCfd(rel, cfd);
          auto actual = ValidateCfd(encoded, cfd);
          ASSERT_TRUE(expected.ok() && actual.ok())
              << cfd.ToString(rel.schema());
          EXPECT_EQ(*actual, *expected) << cfd.ToString(rel.schema());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CfdOracleTest, ::testing::Values(1, 8));

TEST(CfdTest, MinSupportOneKeepsSingletonConditions) {
  // The condition "c" occurs on one row: a stripped partition drops that
  // cluster, the dictionary count keeps it.
  Relation r = EdgeRelation();
  CfdDiscoveryOptions options;
  options.min_support = 1;
  auto cfds = DiscoverCfds(r, options);
  ASSERT_TRUE(cfds.ok());
  ConditionalFd singleton =
      ConditionalFd::Constant(0, Value::Str("c"), 2, Value::Str("r"), 1);
  EXPECT_NE(std::find(cfds->begin(), cfds->end(), singleton), cfds->end());
  // "b" rows carry NULL y: a NULL constant is never reported.
  for (const ConditionalFd& cfd : *cfds) {
    if (cfd.rhs_is_constant) {
      EXPECT_FALSE(cfd.rhs_value.is_null()) << cfd.ToString(r.schema());
    }
  }
}

TEST(CfdTest, ValidateMatchesCellsAsValueEquality) {
  Relation r = EdgeRelation();
  // A NULL condition matches the NULL cells (rows 3, 4: y = q, r).
  EXPECT_FALSE(*ValidateCfd(
      r, ConditionalFd::Constant(0, Value::Null(), 2, Value::Str("q"), 0)));
  // A NULL constant matches NULL RHS cells ("b" rows carry NULL y).
  EXPECT_TRUE(*ValidateCfd(
      r, ConditionalFd::Constant(0, Value::Str("b"), 2, Value::Null(), 0)));
  // A constant absent from the dictionary matches no cell.
  EXPECT_FALSE(*ValidateCfd(
      r, ConditionalFd::Constant(0, Value::Str("a"), 2, Value::Str("zz"), 0)));
  EXPECT_TRUE(*ValidateCfd(
      r, ConditionalFd::Constant(0, Value::Str("zz"), 2, Value::Str("p"), 0)));
  // Int(3) equals no cell of the real column, so the CFD is vacuous;
  // Real(3.0) selects rows whose y disagrees with the constant.
  EXPECT_TRUE(*ValidateCfd(
      r, ConditionalFd::Constant(3, Value::Int(3), 2, Value::Str("q"), 0)));
  EXPECT_FALSE(*ValidateCfd(
      r, ConditionalFd::Constant(3, Value::Real(3.0), 2, Value::Str("q"), 0)));
}

TEST(CfdTest, ProfilesAnEncodingThatOutlivesItsRelation) {
  // The encoding owns its cells: copied out of Encode of a temporary, it
  // profiles exactly as the relation it came from.
  EncodedRelation encoded = EncodedRelation::Encode(datasets::Employee());
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 2;
  auto from_encoding = ProfileRelation(encoded, options);
  ASSERT_TRUE(from_encoding.ok()) << from_encoding.status().ToString();
  auto from_relation = ProfileRelation(datasets::Employee(), options);
  ASSERT_TRUE(from_relation.ok()) << from_relation.status().ToString();
  EXPECT_EQ(from_encoding->metadata.Serialize(),
            from_relation->metadata.Serialize());
  EXPECT_FALSE(from_encoding->metadata.conditional_fds.empty());
}

// --- Packaging / serialization -----------------------------------------------------

TEST(CfdTest, ProfileAndSerializeRoundTrip) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->metadata.conditional_fds.size(), 0u);

  std::string wire = report->metadata.Serialize();
  auto parsed = MetadataPackage::Deserialize(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->conditional_fds.size(),
            report->metadata.conditional_fds.size());
  for (size_t i = 0; i < parsed->conditional_fds.size(); ++i) {
    EXPECT_EQ(parsed->conditional_fds[i],
              report->metadata.conditional_fds[i]);
  }
}

TEST(CfdTest, RestrictKeepsCfdsOnlyAtRfdLevel) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->metadata.Restrict(DisclosureLevel::kWithFds)
                  .conditional_fds.empty());
  EXPECT_FALSE(report->metadata.Restrict(DisclosureLevel::kWithRfds)
                   .conditional_fds.empty());
}

// --- Generation ---------------------------------------------------------------------

// Random roots drawn from `metadata` into a batch, as the kCfd method
// generates them before its repair pass.
struct RootBatch {
  GenerationContext ctx;
  EncodedBatch batch;

  Relation Materialize() const {
    return std::move(MaterializeRelation(ctx.schema(), ctx.domains(),
                                         batch))
        .ValueOrDie();
  }
};

RootBatch GenerateRoots(const MetadataPackage& metadata, size_t num_rows,
                        Rng* rng) {
  GenerationOptions gen;
  gen.ignore_dependencies = true;
  RootBatch out{
      std::move(GenerationContext::Build(metadata, gen)).ValueOrDie(), {}};
  EXPECT_TRUE(GenerateEncoded(out.ctx, num_rows, rng, &out.batch).ok());
  return out;
}

// Runs the shipped chase over `cfds` on the batch.
Status Repair(RootBatch* roots, const std::vector<ConditionalFd>& cfds,
              Rng* rng) {
  METALEAK_ASSIGN_OR_RETURN(
      EncodedCfdPlan plan,
      BuildEncodedCfdPlan(cfds, roots->ctx.domains(), roots->ctx.kinds()));
  return ApplyCfdsEncoded(plan, &roots->batch, rng);
}

TEST(CfdTest, ApplyCfdsEnforcesEachCfdAppliedAlone) {
  // Guarantee: a single CFD (no rule interaction) is enforced exactly.
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->metadata.conditional_fds.size(), 0u);

  Rng rng(3);
  for (const ConditionalFd& cfd : report->metadata.conditional_fds) {
    RootBatch roots = GenerateRoots(report->metadata, 200, &rng);
    Status repaired = Repair(&roots, {cfd}, &rng);
    ASSERT_TRUE(repaired.ok()) << repaired.ToString();
    auto valid = ValidateCfd(roots.Materialize(), cfd);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << cfd.ToString(r.schema());
  }
}

TEST(CfdTest, ApplyCfdsReducesViolationsUnderInteraction) {
  // Dense mined rule sets can be jointly unsatisfiable on synthetic rows
  // (value co-occurrences that never appear in the real data), so repair
  // is best-effort there — but it must strictly help.
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());

  Rng rng(4);
  RootBatch roots = GenerateRoots(report->metadata, 200, &rng);
  auto count_violations = [&](const Relation& rel) {
    size_t violations = 0;
    for (const ConditionalFd& cfd : report->metadata.conditional_fds) {
      auto valid = ValidateCfd(rel, cfd);
      if (valid.ok() && !*valid) ++violations;
    }
    return violations;
  };
  size_t before = count_violations(roots.Materialize());
  Status repaired =
      Repair(&roots, report->metadata.conditional_fds, &rng);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  size_t after = count_violations(roots.Materialize());
  EXPECT_LT(after, before);
  EXPECT_LT(static_cast<double>(after),
            0.5 * static_cast<double>(
                      report->metadata.conditional_fds.size()));
}

TEST(CfdTest, ApplyCfdsDisjointRulesAllHold) {
  // Rules writing disjoint attributes with disjoint condition columns
  // cannot interact: all must hold after one chase.
  Relation r = CfdRelation();
  auto domains_result =
      ExtractDomains(r);
  ASSERT_TRUE(domains_result.ok());
  std::vector<ConditionalFd> rules = {
      ConditionalFd::Variable(0, Value::Str("eu"), AttributeSet::Single(1),
                              2, 20),
      ConditionalFd::Constant(0, Value::Str("us"), 3, Value::Str("usd"),
                              10),
  };
  Rng rng(5);
  // Random relation over the same schema.
  MetadataPackage pkg;
  pkg.schema = r.schema();
  for (auto& d : *domains_result) pkg.domains.emplace_back(d);
  RootBatch roots = GenerateRoots(pkg, 300, &rng);
  ASSERT_TRUE(Repair(&roots, rules, &rng).ok());
  Relation repaired = roots.Materialize();
  for (const ConditionalFd& cfd : rules) {
    auto valid = ValidateCfd(repaired, cfd);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << cfd.ToString(r.schema());
  }
}

TEST(CfdTest, EncodedChaseMatchesValueReference) {
  // Golden parity: from the same seed, random roots plus the chase on
  // batch codes decode to exactly the relation the boxed-Value reference
  // generator and chase produce — for each mined rule alone and for the
  // whole interacting set.
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  const MetadataPackage& pkg = report->metadata;
  auto domains = pkg.RequireDomains();
  ASSERT_TRUE(domains.ok());
  std::vector<std::vector<ConditionalFd>> rule_sets = {pkg.conditional_fds};
  for (const ConditionalFd& cfd : pkg.conditional_fds) {
    rule_sets.push_back({cfd});
  }
  GenerationOptions gen;
  gen.ignore_dependencies = true;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const std::vector<ConditionalFd>& rules : rule_sets) {
      Rng value_rng(seed);
      auto value = reference::GenerateSyntheticValuePath(pkg, 120,
                                                         &value_rng, gen);
      ASSERT_TRUE(value.ok());
      auto expected =
          reference::ApplyCfds(value->relation, rules, *domains, &value_rng);
      ASSERT_TRUE(expected.ok());

      Rng code_rng(seed);
      RootBatch roots = GenerateRoots(pkg, 120, &code_rng);
      ASSERT_TRUE(Repair(&roots, rules, &code_rng).ok());
      EXPECT_EQ(roots.Materialize(), *expected) << "seed " << seed;
    }
  }
}

// --- Packages BuildEncodedCfdPlan rejects --------------------------------------
//
// Only the kCfd method runs the chase, so ExperimentEngine::Run is the
// entry point that reports these; the package arrives as
// MetadataPackage::Deserialize text.

void ExpectCfdMethodRejected(const std::string& records,
                             const Relation& real,
                             const std::string& reason) {
  auto pkg = MetadataPackage::Deserialize(
      "metaleak-metadata v1\nrows\t2\n" + records);
  ASSERT_TRUE(pkg.ok()) << pkg.status().ToString();
  ExperimentConfig config;
  config.rounds = 2;
  Status run =
      RunMethod(real, *pkg, GenerationMethod::kCfd, config).status();
  EXPECT_TRUE(run.IsInvalid()) << run.ToString();
  EXPECT_NE(run.message().find(reason), std::string::npos)
      << run.ToString();
}

TEST(CfdTest, RejectsMixedTypeDomainUnderRepair) {
  ExpectCfdMethodRejected(
      "attr\tk\tint64\tcategorical\nattr\tc\tstring\tcategorical\n"
      "domain\t0\tcategorical\ti:1|d:2.5\n"
      "domain\t1\tcategorical\ts:a|s:b\n"
      "cfd\t1\ts:a\t\t0\t1\ti:1\t2\n",
      MakeRelation({{"k", DataType::kInt64, SemanticType::kCategorical},
                    Cat("c")},
                   {{Value::Int(1), Value::Int(1)},
                    {Value::Str("a"), Value::Str("b")}}),
      "mixed-type domain under CFD repair");
}

TEST(CfdTest, RejectsConstantOutsideTargetDomain) {
  ExpectCfdMethodRejected(
      "attr\tk\tint64\tcategorical\nattr\tc\tstring\tcategorical\n"
      "domain\t0\tcategorical\ti:1|i:2\n"
      "domain\t1\tcategorical\ts:a|s:b\n"
      "cfd\t1\ts:a\t\t0\t1\ti:9\t2\n",
      MakeRelation({{"k", DataType::kInt64, SemanticType::kCategorical},
                    Cat("c")},
                   {{Value::Int(1), Value::Int(2)},
                    {Value::Str("a"), Value::Str("b")}}),
      "CFD constant not representable in the target domain");
}

TEST(CfdTest, RejectsNonDoubleConstantOnContinuousColumn) {
  ExpectCfdMethodRejected(
      "attr\tx\tdouble\tcontinuous\nattr\tc\tstring\tcategorical\n"
      "domain\t0\tcontinuous\t0\t1\n"
      "domain\t1\tcategorical\ts:a|s:b\n"
      "cfd\t1\ts:a\t\t0\t1\ts:high\t2\n",
      MakeRelation({{"x", DataType::kDouble, SemanticType::kContinuous},
                    Cat("c")},
                   {{Value::Real(0.25), Value::Real(0.75)},
                    {Value::Str("a"), Value::Str("b")}}),
      "non-double CFD constant on a continuous column");
}

TEST(CfdTest, VariableCfdMethodLeaksNoMoreThanRandom) {
  // The paper's FD argument extends to *variable* CFDs: a scoped
  // one-shot mapping keeps the per-row hit probability at 1/|D|.
  // (Constant CFDs are excluded — their pattern constants embed data
  // values and DO leak more; see ConstantCfdLeaksMore.)
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  std::vector<ConditionalFd> variable_only;
  for (const ConditionalFd& cfd : pkg.conditional_fds) {
    if (!cfd.rhs_is_constant) variable_only.push_back(cfd);
  }
  ASSERT_FALSE(variable_only.empty());
  pkg.conditional_fds = variable_only;

  ExperimentConfig config;
  config.rounds = 800;
  auto results = RunExperiment(
      r, pkg, {GenerationMethod::kRandom, GenerationMethod::kCfd},
      config);
  ASSERT_TRUE(results.ok());
  const MethodResult& random = (*results)[0];
  const MethodResult& cfd = (*results)[1];
  for (size_t c = 0; c < r.num_columns(); ++c) {
    if (!cfd.attributes[c].covered) continue;
    double slack =
        4.0 * std::max(1.0, random.attributes[c].stddev_matches);
    EXPECT_LE(cfd.attributes[c].mean_matches,
              random.attributes[c].mean_matches + slack)
        << r.schema().attribute(c).name;
  }
}

TEST(CfdTest, ConstantCfdLeaksMoreOnSkewedData) {
  // A constant CFD ships a real data value inside the metadata. When the
  // constant marks an over-represented value (here "usd" covers 2/3 of
  // the rows), applying it beats the uniform-domain baseline — the same
  // mechanism as distribution disclosure. On balanced data the effect
  // vanishes (the adversary does not know which rows are in scope).
  std::vector<Value> region;
  std::vector<Value> currency;
  for (int i = 0; i < 30; ++i) {
    region.push_back(Value::Str("eu"));
    currency.push_back(Value::Str(i % 2 == 0 ? "eur" : "sek"));
  }
  for (int i = 0; i < 60; ++i) {
    region.push_back(Value::Str("us"));
    currency.push_back(Value::Str("usd"));
  }
  Relation r = MakeRelation({Cat("region"), Cat("currency")},
                            {region, currency});
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  ConditionalFd target = ConditionalFd::Constant(
      0, Value::Str("us"), 1, Value::Str("usd"), 60);
  bool discovered = false;
  for (const ConditionalFd& cfd : pkg.conditional_fds) {
    if (cfd == target) discovered = true;
  }
  EXPECT_TRUE(discovered);
  pkg.conditional_fds = {target};

  ExperimentConfig config;
  config.rounds = 800;
  auto results = RunExperiment(
      r, pkg, {GenerationMethod::kRandom, GenerationMethod::kCfd},
      config);
  ASSERT_TRUE(results.ok());
  // Analytical: baseline = 90/3 = 30; CFD = 0.5*60 + 45/3 = 45.
  EXPECT_NEAR((*results)[0].attributes[1].mean_matches, 30.0, 3.0);
  EXPECT_NEAR((*results)[1].attributes[1].mean_matches, 45.0, 4.0);
  EXPECT_GT((*results)[1].attributes[1].mean_matches,
            (*results)[0].attributes[1].mean_matches + 5.0);
}

TEST(CfdTest, CfdCoverageMarksRhsOnly) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  // Keep a single CFD so coverage is predictable.
  ConditionalFd keep = pkg.conditional_fds.front();
  pkg.conditional_fds = {keep};
  ExperimentConfig config;
  config.rounds = 3;
  auto result = RunMethod(r, pkg, GenerationMethod::kCfd, config);
  ASSERT_TRUE(result.ok());
  for (const MethodAttributeResult& a : result->attributes) {
    EXPECT_EQ(a.covered, a.attribute == keep.rhs) << a.name;
  }
}

}  // namespace
}  // namespace metaleak
