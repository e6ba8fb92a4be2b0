// Golden-parity suite for the dictionary-encoded attack pipeline.
//
// The experiment runner executes every Monte-Carlo round on dense codes
// (generation into an EncodedBatch arena, leakage over translated
// codes). It must be bit-identical to the boxed-Value reference kept in
// tests/value_reference.h: same per-round seeds, same match counts, same
// MSEs, same Welford aggregates, at any thread count. This suite pins
// that claim on the employee and echocardiogram datasets and a planted
// synthetic relation — including the CFD repair pass and disclosed
// value distributions — and exercises the satellite APIs (ForAttribute
// index lookups, recorded round seeds + ReplayRound, synthetic-NULL
// non-match semantics). It also holds the rejection cases: packages and
// relations the dense-code scan cannot score come back as Invalid.
// Runs under TSan in CI alongside csr_agreement_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/experiment.h"
#include "privacy/leakage.h"
#include "value_reference.h"

namespace metaleak {
namespace {

const std::vector<GenerationMethod> kAllMethods = {
    GenerationMethod::kRandom, GenerationMethod::kFd,
    GenerationMethod::kAfd,    GenerationMethod::kNd,
    GenerationMethod::kOd,     GenerationMethod::kDd,
    GenerationMethod::kOfd,    GenerationMethod::kCfd,
};

// Asserts two experiment sweeps are bit-identical: EXPECT_EQ on doubles
// is exact equality, which is the contract (not EXPECT_DOUBLE_EQ's ULP
// tolerance).
void ExpectBitIdentical(const std::vector<MethodResult>& a,
                        const std::vector<MethodResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    SCOPED_TRACE(GenerationMethodToString(a[m].method));
    EXPECT_EQ(a[m].method, b[m].method);
    EXPECT_EQ(a[m].round_seeds, b[m].round_seeds);
    ASSERT_EQ(a[m].attributes.size(), b[m].attributes.size());
    for (size_t c = 0; c < a[m].attributes.size(); ++c) {
      const MethodAttributeResult& x = a[m].attributes[c];
      const MethodAttributeResult& y = b[m].attributes[c];
      SCOPED_TRACE(x.name);
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.covered, y.covered);
      EXPECT_EQ(x.mean_matches, y.mean_matches);
      EXPECT_EQ(x.stddev_matches, y.stddev_matches);
      ASSERT_EQ(x.mean_mse.has_value(), y.mean_mse.has_value());
      if (x.mean_mse.has_value()) {
        EXPECT_EQ(*x.mean_mse, *y.mean_mse);
      }
    }
  }
}

// Runs the full method sweep on the boxed-Value reference and on the
// shipped engine at 1 and 8 threads, and asserts all three sweeps agree
// bit-for-bit.
void CheckGoldenParity(const Relation& relation,
                       const MetadataPackage& metadata, size_t rounds) {
  ExperimentConfig config;
  config.rounds = rounds;
  auto reference =
      reference::RunExperimentValuePath(relation, metadata, kAllMethods,
                                        config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    auto result = RunExperiment(relation, metadata, kAllMethods, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(*reference, *result);
  }
}

TEST(LeakageCodepathTest, GoldenParityEmployee) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_cfds = true;  // exercise the encoded CFD repair pass
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());
  CheckGoldenParity(employee, report->metadata, 24);
}

TEST(LeakageCodepathTest, GoldenParityEchocardiogram) {
  Relation echo = datasets::Echocardiogram();
  auto report = ProfileRelation(echo);
  ASSERT_TRUE(report.ok());
  CheckGoldenParity(echo, report->metadata, 16);
}

TEST(LeakageCodepathTest, GoldenParityPlantedSynthetic) {
  datasets::SyntheticConfig config;
  config.num_rows = 400;
  config.seed = 7;
  config.attributes = {
      {.name = "a",
       .kind = datasets::SyntheticAttribute::Kind::kCategoricalBase,
       .domain_size = 16},
      {.name = "b",
       .kind = datasets::SyntheticAttribute::Kind::kContinuousBase,
       .lo = 0.0,
       .hi = 1000.0},
      {.name = "c",
       .kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone,
       .source = 1},
      {.name = "d",
       .kind = datasets::SyntheticAttribute::Kind::kDerivedBoundedFanout,
       .domain_size = 24,
       .source = 0,
       .fanout = 3},
      {.name = "e",
       .kind = datasets::SyntheticAttribute::Kind::kDerivedApproximate,
       .domain_size = 12,
       .source = 0,
       .violation_rate = 0.1},
  };
  auto relation = datasets::Synthetic(config);
  ASSERT_TRUE(relation.ok());
  DiscoveryOptions options;
  options.discover_afds = true;
  options.discover_cfds = true;
  // Disclosed distributions exercise the code-mapped samplers.
  options.profile_distributions = true;
  auto report = ProfileRelation(*relation, options);
  ASSERT_TRUE(report.ok());
  CheckGoldenParity(*relation, report->metadata, 12);
}

// --- Synthetic-NULL non-match semantics --------------------------------------

TEST(LeakageCodepathTest, SyntheticNullNeverMatches) {
  Schema schema({{"x", DataType::kString, SemanticType::kCategorical}});
  // Real column: a, NULL, b, a.
  auto real = Relation::Make(
      schema, {{Value::Str("a"), Value::Null(), Value::Str("b"),
                Value::Str("a")}});
  ASSERT_TRUE(real.ok());
  // Synthetic column: a, NULL, NULL, NULL — one true match; the NULL
  // guesses (rows 1-3) must not count, even against a real NULL.
  auto syn = Relation::Make(
      schema,
      {{Value::Str("a"), Value::Null(), Value::Null(), Value::Null()}});
  ASSERT_TRUE(syn.ok());
  auto matches = CountCategoricalMatches(*real, *syn, 0);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, 1u);
}

TEST(LeakageCodepathTest, CodePathAgreesOnRealNulls) {
  // A relation with NULL holes: the encoded translation maps NULL to the
  // no-match sentinel, so the engine must report the reference's counts
  // and rows_compared excludes the NULLs.
  Schema schema({{"cat", DataType::kString, SemanticType::kCategorical},
                 {"num", DataType::kDouble, SemanticType::kContinuous}});
  auto real = Relation::Make(
      schema, {{Value::Str("a"), Value::Null(), Value::Str("b"),
                Value::Str("c"), Value::Null()},
               {Value::Real(1.0), Value::Real(2.0), Value::Null(),
                Value::Real(4.0), Value::Real(5.0)}});
  ASSERT_TRUE(real.ok());
  auto report = ProfileRelation(*real);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 32;
  auto code = RunMethod(*real, report->metadata, GenerationMethod::kRandom,
                        config);
  auto value = reference::RunMethodValuePath(
      *real, report->metadata, GenerationMethod::kRandom, config);
  ASSERT_TRUE(code.ok() && value.ok());
  ASSERT_FALSE(code->round_seeds.empty());
  const uint64_t first_round_seed = code->round_seeds[0];
  std::vector<MethodResult> code_sweep, value_sweep;
  code_sweep.push_back(std::move(*code));
  value_sweep.push_back(std::move(*value));
  ExpectBitIdentical(code_sweep, value_sweep);

  // rows_compared (via a single replayed round) skips the real NULLs.
  ExperimentConfig replay_config;
  auto round = ExperimentEngine(*real, report->metadata)
                   .ReplayRound(GenerationMethod::kRandom,
                                first_round_seed, replay_config);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->attributes[0].rows_compared, 3u);
  EXPECT_EQ(round->attributes[1].rows_compared, 4u);
}

// --- ForAttribute index lookups ----------------------------------------------

TEST(LeakageCodepathTest, ReportForAttributeUsesIndex) {
  LeakageReport report;
  for (size_t c = 0; c < 4; ++c) {
    AttributeLeakage a;
    a.attribute = c;
    a.matches = 10 + c;
    report.attributes.push_back(a);
  }
  auto hit = report.ForAttribute(2);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->matches, 12u);
  EXPECT_FALSE(report.ForAttribute(4).ok());

  // Hand-assembled (non-index-aligned) reports still resolve by scan.
  LeakageReport shuffled;
  AttributeLeakage only;
  only.attribute = 7;
  only.matches = 99;
  shuffled.attributes.push_back(only);
  auto scanned = shuffled.ForAttribute(7);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->matches, 99u);
}

TEST(LeakageCodepathTest, MethodResultForAttributeUsesIndex) {
  MethodResult result;
  for (size_t c = 0; c < 3; ++c) {
    MethodAttributeResult a;
    a.attribute = c;
    a.mean_matches = static_cast<double>(c) + 0.5;
    result.attributes.push_back(a);
  }
  auto hit = result.ForAttribute(1);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->mean_matches, 1.5);
  EXPECT_FALSE(result.ForAttribute(3).ok());
}

// --- Recorded round seeds + replay -------------------------------------------

TEST(LeakageCodepathTest, ReplayRoundReconstructsRecordedAggregates) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);

  ExperimentConfig config;
  config.rounds = 16;
  auto result = engine.Run(GenerationMethod::kFd, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->round_seeds.size(), config.rounds);

  // Replaying every recorded round and folding the per-round numbers
  // through the same Welford accumulator reproduces the recorded
  // aggregates bit-for-bit — so round_seeds[k] really is round k.
  const size_t m = result->attributes.size();
  std::vector<WelfordAccumulator> match_acc(m);
  std::vector<WelfordAccumulator> mse_acc(m);
  for (uint64_t seed : result->round_seeds) {
    auto round = engine.ReplayRound(GenerationMethod::kFd, seed, config);
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round->attributes.size(), m);
    for (size_t c = 0; c < m; ++c) {
      match_acc[c].Add(static_cast<double>(round->attributes[c].matches));
      if (round->attributes[c].mse.has_value()) {
        mse_acc[c].Add(*round->attributes[c].mse);
      }
    }
  }
  for (size_t c = 0; c < m; ++c) {
    SCOPED_TRACE(result->attributes[c].name);
    EXPECT_EQ(match_acc[c].mean(), result->attributes[c].mean_matches);
    EXPECT_EQ(match_acc[c].stddev(), result->attributes[c].stddev_matches);
    if (result->attributes[c].mean_mse.has_value()) {
      EXPECT_EQ(mse_acc[c].mean(), *result->attributes[c].mean_mse);
    }
  }
}

TEST(LeakageCodepathTest, ReplayRoundPathsAgree) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);

  ExperimentConfig config;
  config.rounds = 4;
  auto result = engine.Run(GenerationMethod::kOd, config);
  ASSERT_TRUE(result.ok());

  for (uint64_t seed : result->round_seeds) {
    auto code = engine.ReplayRound(GenerationMethod::kOd, seed, config);
    auto value = reference::ReplayRoundValuePath(
        employee, report->metadata, GenerationMethod::kOd, seed, config);
    ASSERT_TRUE(code.ok() && value.ok());
    ASSERT_EQ(code->attributes.size(), value->attributes.size());
    for (size_t c = 0; c < code->attributes.size(); ++c) {
      EXPECT_EQ(code->attributes[c].matches, value->attributes[c].matches);
      EXPECT_EQ(code->attributes[c].rows_compared,
                value->attributes[c].rows_compared);
      ASSERT_EQ(code->attributes[c].mse.has_value(),
                value->attributes[c].mse.has_value());
      if (code->attributes[c].mse.has_value()) {
        EXPECT_EQ(*code->attributes[c].mse, *value->attributes[c].mse);
      }
    }
  }
}

// --- Relations and domains the dense-code scan cannot score ------------------

bool NamesReason(const Status& st, const std::string& reason) {
  return st.IsInvalid() && st.message().find(reason) != std::string::npos;
}

TEST(LeakageCodepathTest, RejectsCrossTypeDomainMatch) {
  // Int 3 and Real 3.0 both disclosed: the real cell 3 matches two
  // synthetic codes, which one translated code cannot express.
  auto pkg = MetadataPackage::Deserialize(
      "metaleak-metadata v1\nrows\t4\nattr\tk\tint64\tcategorical\n"
      "domain\t0\tcategorical\ti:3|d:3|i:4\n");
  ASSERT_TRUE(pkg.ok()) << pkg.status().ToString();
  Relation real = std::move(Relation::Make(pkg->schema,
                                           {{Value::Int(3), Value::Int(4),
                                             Value::Int(3), Value::Int(4)}}))
                      .ValueOrDie();
  const std::string reason =
      "real value matches several domain entries cross-type";
  ExperimentConfig config;
  config.rounds = 2;
  ExperimentEngine engine(real, *pkg);
  Status run = engine.Run(GenerationMethod::kRandom, config).status();
  EXPECT_TRUE(NamesReason(run, reason)) << run.ToString();
  Status replay =
      engine.ReplayRound(GenerationMethod::kRandom, 1, config).status();
  EXPECT_TRUE(NamesReason(replay, reason)) << replay.ToString();
}

TEST(LeakageCodepathTest, RejectsNanInContinuousRealColumn) {
  // NaN is the scan's skip marker, so a NaN cell in a continuous real
  // column could not be scored. No Relation holds a NaN cell (the CSV
  // loader reads "nan" as NULL and Relation::Make rejects one), so the
  // case is built from encoded parts and run through the engine's
  // encoding constructor.
  auto pkg = MetadataPackage::Deserialize(
      "metaleak-metadata v1\nrows\t3\nattr\tx\tdouble\tcontinuous\n"
      "domain\t0\tcontinuous\t0\t1\n");
  ASSERT_TRUE(pkg.ok()) << pkg.status().ToString();
  std::vector<ColumnDictionary> dicts;
  dicts.push_back(ColumnDictionary::FromSortedParts(
      {Value::Null(), Value::Real(0.25),
       Value::Real(std::numeric_limits<double>::quiet_NaN())},
      {0, 2, 1}));
  EncodedRelation encoded = EncodedRelation::FromParts(
      pkg->schema, {{1, 2, 1}}, std::move(dicts));
  const std::string reason = "NaN value in a continuous real column";
  ExperimentConfig config;
  config.rounds = 2;
  Status run = ExperimentEngine(encoded, *pkg)
                   .Run(GenerationMethod::kRandom, config)
                   .status();
  EXPECT_TRUE(NamesReason(run, reason)) << run.ToString();
}

TEST(LeakageCodepathTest, RejectsNanInContinuousAttributeDomain) {
  // GenerationContext::Build rejects NaN domain entries before any scan
  // is built; EncodedLeakageContext::Build checks on its own for callers
  // that bind it directly.
  Schema schema({{"x", DataType::kDouble, SemanticType::kContinuous}});
  Relation real = std::move(Relation::Make(
                                schema, {{Value::Real(0.5), Value::Real(1.5)}}))
                      .ValueOrDie();
  EncodedRelation encoded = EncodedRelation::Encode(real);
  const std::vector<Domain> domains = {Domain::Categorical(
      {Value::Real(std::numeric_limits<double>::quiet_NaN()),
       Value::Real(0.5)})};
  Status built =
      EncodedLeakageContext::Build(encoded, schema, domains).status();
  EXPECT_TRUE(NamesReason(built, "NaN value in a generation domain"))
      << built.ToString();
}

}  // namespace
}  // namespace metaleak
