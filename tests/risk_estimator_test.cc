// Risk estimator layer tests.
//
// Pins the tentpole contract of the estimator refactor: (1) the
// Def 2.2/2.3 results streamed through MatchRateEstimator are
// bit-identical to the boxed-Value reference on every method, at 1 and
// 8 threads, and regardless of which registry runs alongside; (2) the info-theoretic estimator reproduces
// closed-form entropy / conditional-entropy / mutual-information
// answers on planted fixtures; (3) the NN-linkage adversary scores
// known-answer batches exactly; (4) the measure columns flow through
// replay and the profile diff. Runs under TSan in CI next to the
// leakage_codepath suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/math_util.h"
#include "data/datasets/employee.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "metadata/metadata_package.h"
#include "metadata/value_distribution.h"
#include "privacy/experiment.h"
#include "privacy/leakage_delta.h"
#include "privacy/risk_estimator.h"
#include "value_reference.h"

namespace metaleak {
namespace {

const std::vector<GenerationMethod> kAllMethods = {
    GenerationMethod::kRandom, GenerationMethod::kFd,
    GenerationMethod::kAfd,    GenerationMethod::kNd,
    GenerationMethod::kOd,     GenerationMethod::kDd,
    GenerationMethod::kOfd,    GenerationMethod::kCfd,
};

// EXPECT_EQ on doubles is exact equality — the bit-identity contract.
void ExpectLegacyFieldsIdentical(const std::vector<MethodResult>& a,
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

// --- Golden parity: MatchRateEstimator == boxed-Value reference --------------

TEST(RiskEstimatorTest, MatchRateGoldenParityAcrossPathsThreadsRegistries) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_cfds = true;  // exercise the encoded CFD repair pass
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 12;
  std::vector<std::vector<MethodResult>> sweeps;
  auto reference = reference::RunExperimentValuePath(
      employee, report->metadata, kAllMethods, config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  sweeps.push_back(std::move(*reference));
  for (const RiskEstimatorRegistry* registry :
       {&RiskEstimatorRegistry::Default(), &RiskEstimatorRegistry::All()}) {
    for (size_t threads : {1u, 8u}) {
      config.estimators = registry;
      config.threads = threads;
      auto result =
          RunExperiment(employee, report->metadata, kAllMethods, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sweeps.push_back(std::move(*result));
    }
  }
  // The reference and all 4 engine sweeps (2 registries x 2 thread
  // counts) agree on the legacy Def 2.2/2.3 fields bit for bit.
  for (size_t i = 1; i < sweeps.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectLegacyFieldsIdentical(sweeps[0], sweeps[i]);
  }
  // And inside every sweep, the match-rate measure columns ARE the
  // legacy fields — one assembly of the same Welford fold.
  for (const std::vector<MethodResult>& sweep : sweeps) {
    for (const MethodResult& result : sweep) {
      SCOPED_TRACE(GenerationMethodToString(result.method));
      ASSERT_GE(result.measures.size(), 2u);
      const RiskMeasureStats& matches =
          result.measures[MatchRateEstimator::kMatchesIndex];
      const RiskMeasureStats& mse =
          result.measures[MatchRateEstimator::kMseIndex];
      EXPECT_EQ(matches.estimator, "match_rate");
      EXPECT_EQ(matches.measure, "matches");
      EXPECT_TRUE(matches.active);
      ASSERT_EQ(matches.mean.size(), result.attributes.size());
      for (size_t c = 0; c < result.attributes.size(); ++c) {
        EXPECT_EQ(matches.mean[c], result.attributes[c].mean_matches);
        EXPECT_EQ(matches.stddev[c], result.attributes[c].stddev_matches);
        EXPECT_EQ(matches.rounds[c], config.rounds);
        ASSERT_EQ(mse.rounds[c] > 0,
                  result.attributes[c].mean_mse.has_value());
        if (mse.rounds[c] > 0) {
          EXPECT_EQ(mse.mean[c], *result.attributes[c].mean_mse);
        }
      }
    }
  }
}

TEST(RiskEstimatorTest, EveryRegisteredEstimatorActive) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 4;
  config.estimators = &RiskEstimatorRegistry::All();
  auto run = RunMethod(employee, report->metadata, GenerationMethod::kFd,
                       config);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->measures.size(),
            RiskEstimatorRegistry::All().total_measures());
  for (const RiskMeasureStats& ms : run->measures) {
    SCOPED_TRACE(ms.estimator + "/" + ms.measure);
    EXPECT_TRUE(ms.active);
  }
}

TEST(RiskEstimatorTest, RegistryMustLeadWithMatchRate) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  RiskEstimatorRegistry bad({&InfoTheoreticEstimator::Instance()});
  ExperimentConfig config;
  config.rounds = 1;
  config.estimators = &bad;
  auto result =
      RunMethod(employee, report->metadata, GenerationMethod::kRandom, config);
  EXPECT_FALSE(result.ok());
}

// --- Closed-form fixtures ----------------------------------------------------

// One categorical column: 8 values, 2 rows each -> H = 3 bits exactly.
Relation UniformEight() {
  Schema schema({{"x", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> col;
  for (int v = 0; v < 8; ++v) {
    col.push_back(Value::Int(v));
    col.push_back(Value::Int(v));
  }
  return std::move(Relation::Make(schema, {std::move(col)})).ValueOrDie();
}

MetadataPackage PackageFor(const Relation& relation) {
  MetadataPackage metadata;
  metadata.schema = relation.schema();
  metadata.num_rows = relation.num_rows();
  auto domains = ExtractDomains(relation);
  for (Domain& d : *domains) metadata.domains.push_back(std::move(d));
  return metadata;
}

TEST(RiskEstimatorTest, EntropyMatchesClosedFormAndValueDistribution) {
  Relation relation = UniformEight();
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  MetadataPackage metadata = PackageFor(relation);

  auto measures = ComputeProfileMeasures(encoded, metadata);
  ASSERT_TRUE(measures.ok());
  ASSERT_EQ(measures->size(), 2u);
  EXPECT_EQ((*measures)[0].measure, "entropy_bits");
  ASSERT_EQ((*measures)[0].cells.size(), 1u);
  ASSERT_TRUE((*measures)[0].cells[0].present);
  EXPECT_DOUBLE_EQ((*measures)[0].cells[0].value, 3.0);
  // No disclosed dependency covers x: no conditional-entropy bound.
  EXPECT_EQ((*measures)[1].measure, "cond_entropy_bits");
  EXPECT_FALSE((*measures)[1].cells[0].present);

  // Satellite: the disclosed-distribution accessor shares the same
  // ShannonEntropyBits definition, so the numbers agree exactly.
  auto dist = ValueDistribution::FromEncoded(encoded, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(dist->EntropyBits(), 3.0);
  EXPECT_EQ(dist->EntropyBits(), (*measures)[0].cells[0].value);
}

TEST(RiskEstimatorTest, ConditionalEntropyClosedForm) {
  // a has 2 values; b = 2*a + coin with balanced counts:
  // H(b) = 2 bits, H(b | a) = 1 bit. c = f(a): H(c | a) = 0.
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kInt64, SemanticType::kCategorical},
                 {"c", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> a, b, c;
  for (int i = 0; i < 8; ++i) {
    const int av = i / 4;        // 0,0,0,0,1,1,1,1
    const int coin = i % 2;      // alternating
    a.push_back(Value::Int(av));
    b.push_back(Value::Int(2 * av + coin));
    c.push_back(Value::Int(10 + av));
  }
  auto relation = Relation::Make(
      schema, {std::move(a), std::move(b), std::move(c)});
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  MetadataPackage metadata = PackageFor(*relation);
  Dependency a_to_b;
  a_to_b.lhs = AttributeSet::Single(0);
  a_to_b.rhs = 1;
  metadata.dependencies.Add(a_to_b);
  Dependency a_to_c;
  a_to_c.lhs = AttributeSet::Single(0);
  a_to_c.rhs = 2;
  metadata.dependencies.Add(a_to_c);

  auto measures = ComputeProfileMeasures(encoded, metadata);
  ASSERT_TRUE(measures.ok());
  const RiskProfileMeasure& cond = (*measures)[1];
  ASSERT_EQ(cond.cells.size(), 3u);
  EXPECT_FALSE(cond.cells[0].present);  // nothing determines a
  ASSERT_TRUE(cond.cells[1].present);
  EXPECT_NEAR(cond.cells[1].value, 1.0, 1e-12);
  ASSERT_TRUE(cond.cells[2].present);
  EXPECT_NEAR(cond.cells[2].value, 0.0, 1e-12);
}

// Builds a one-code-column batch whose row r carries the domain code of
// `values[r]` (codes are 1 + index into the sorted domain).
EncodedBatch BatchOfCodes(const Domain& domain,
                          const std::vector<Value>& values) {
  EncodedBatch batch;
  batch.Configure({EncodedBatch::ColumnKind::kCodes},
                  CodeWidthsForDomains({domain}));
  batch.ResetRows(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    uint32_t code = 0;
    for (size_t i = 0; i < domain.values().size(); ++i) {
      if (domain.values()[i] == values[r]) {
        code = static_cast<uint32_t>(i + 1);
        break;
      }
    }
    batch.set_code(0, r, code);  // 0 (= NULL) only if the value is foreign
  }
  return batch;
}

TEST(RiskEstimatorTest, MutualInformationIdentityAndIndependence) {
  Relation relation = UniformEight();
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  MetadataPackage metadata = PackageFor(relation);

  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &relation.schema();
  std::vector<Domain> domains = {*metadata.domains[0]};
  ctx.domains = &domains;
  ctx.metadata = &metadata;
  auto bound = InfoTheoreticEstimator::Instance().Bind(ctx);
  ASSERT_TRUE(bound.ok());

  const size_t m = 1;
  std::vector<RiskMeasureCell> cells(3 * m);

  // Generated == real, row for row: MI(X; X) = H(X) = 3 bits.
  EncodedBatch copy = BatchOfCodes(domains[0], relation.column(0));
  ASSERT_TRUE((*bound)->Evaluate(copy, cells.data()).ok());
  ASSERT_TRUE(cells[InfoTheoreticEstimator::kMiIndex].present);
  EXPECT_NEAR(cells[InfoTheoreticEstimator::kMiIndex].value, 3.0, 1e-9);
  ASSERT_TRUE(cells[InfoTheoreticEstimator::kEntropyIndex].present);
  EXPECT_DOUBLE_EQ(cells[InfoTheoreticEstimator::kEntropyIndex].value, 3.0);

  // Generated constant: MI(X; const) = 0 exactly.
  std::vector<Value> constant(relation.num_rows(), Value::Int(3));
  EncodedBatch flat = BatchOfCodes(domains[0], constant);
  ASSERT_TRUE((*bound)->Evaluate(flat, cells.data()).ok());
  EXPECT_NEAR(cells[InfoTheoreticEstimator::kMiIndex].value, 0.0, 1e-12);
}

TEST(RiskEstimatorTest, NnLinkageKnownAnswers) {
  Schema schema({{"num", DataType::kDouble, SemanticType::kContinuous},
                 {"cat", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> num, cat;
  const size_t n = 10;
  for (size_t r = 0; r < n; ++r) {
    num.push_back(Value::Real(static_cast<double>(r) * 10.0));
    cat.push_back(Value::Int(static_cast<int64_t>(r % 2)));
  }
  auto relation = Relation::Make(schema, {std::move(num), std::move(cat)});
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  MetadataPackage metadata = PackageFor(*relation);

  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &relation->schema();
  std::vector<Domain> domains = {*metadata.domains[0], *metadata.domains[1]};
  ctx.domains = &domains;
  ctx.metadata = &metadata;
  ctx.leakage.absolute_epsilon = 0.5;
  auto bound = NnLinkageEstimator::Instance().Bind(ctx);
  ASSERT_TRUE(bound.ok());

  const size_t m = 2;
  std::vector<RiskMeasureCell> cells(2 * m);
  EncodedBatch batch;
  batch.Configure(ColumnKindsForDomains(domains),
                  CodeWidthsForDomains(domains));
  batch.ResetRows(n);

  // Generated == real: every epsilon ball hits and every aligned draw
  // ties the nearest neighbor.
  for (size_t r = 0; r < n; ++r) {
    batch.reals(0)[r] = static_cast<double>(r) * 10.0;
    batch.set_code(1, r, 1 + static_cast<uint32_t>(r % 2));
  }
  ASSERT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
  const RiskMeasureCell& eps0 =
      cells[NnLinkageEstimator::kEpsMatchesIndex * m + 0];
  const RiskMeasureCell& top0 =
      cells[NnLinkageEstimator::kTop1HitsIndex * m + 0];
  ASSERT_TRUE(eps0.present && top0.present);
  EXPECT_DOUBLE_EQ(eps0.value, static_cast<double>(n));
  EXPECT_DOUBLE_EQ(top0.value, static_cast<double>(n));
  // Categorical attribute: the adversary does not apply.
  EXPECT_FALSE(cells[NnLinkageEstimator::kEpsMatchesIndex * m + 1].present);
  EXPECT_FALSE(cells[NnLinkageEstimator::kTop1HitsIndex * m + 1].present);

  // Generated shifted far outside every epsilon ball: zero links, and
  // only row 0's aligned draw still ties the (distant) nearest
  // neighbor.
  for (size_t r = 0; r < n; ++r) {
    batch.reals(0)[r] = static_cast<double>(r) * 10.0 + 1000.0;
  }
  ASSERT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
  EXPECT_DOUBLE_EQ(eps0.value, 0.0);
  EXPECT_DOUBLE_EQ(top0.value, 1.0);
}

// --- Replay and profile diff -------------------------------------------------

TEST(RiskEstimatorTest, ReplayRoundMeasuresReconstructsAggregates) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);

  ExperimentConfig config;
  config.rounds = 8;
  config.estimators = &RiskEstimatorRegistry::All();
  auto result = engine.Run(GenerationMethod::kFd, config);
  ASSERT_TRUE(result.ok());
  const size_t m = result->attributes.size();
  const size_t total = result->measures.size();

  std::vector<std::vector<WelfordAccumulator>> acc(
      total, std::vector<WelfordAccumulator>(m));
  for (uint64_t seed : result->round_seeds) {
    auto round = engine.ReplayRoundMeasures(GenerationMethod::kFd, seed,
                                            config);
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round->size(), total);
    for (size_t j = 0; j < total; ++j) {
      EXPECT_EQ((*round)[j].estimator, result->measures[j].estimator);
      EXPECT_EQ((*round)[j].measure, result->measures[j].measure);
      ASSERT_EQ((*round)[j].cells.size(), m);
      for (size_t c = 0; c < m; ++c) {
        if ((*round)[j].cells[c].present) {
          acc[j][c].Add((*round)[j].cells[c].value);
        }
      }
    }
  }
  for (size_t j = 0; j < total; ++j) {
    SCOPED_TRACE(result->measures[j].estimator + "/" +
                 result->measures[j].measure);
    for (size_t c = 0; c < m; ++c) {
      EXPECT_EQ(acc[j][c].count(), result->measures[j].rounds[c]);
      if (acc[j][c].count() > 0) {
        EXPECT_EQ(acc[j][c].mean(), result->measures[j].mean[c]);
        EXPECT_EQ(acc[j][c].stddev(), result->measures[j].stddev[c]);
      }
    }
  }
}

TEST(RiskEstimatorTest, ProfileDiffTracksMeasureDrift) {
  Relation before_rel = UniformEight();
  // After: collapse the column to 2 values — entropy drops 3 -> 1.
  Schema schema = before_rel.schema();
  std::vector<Value> col;
  for (int i = 0; i < 16; ++i) col.push_back(Value::Int(i % 2));
  auto after_rel = Relation::Make(schema, {std::move(col)});
  ASSERT_TRUE(after_rel.ok());

  EncodedRelation before_enc = EncodedRelation::Encode(before_rel);
  EncodedRelation after_enc = EncodedRelation::Encode(*after_rel);
  MetadataPackage before_meta = PackageFor(before_rel);
  MetadataPackage after_meta = PackageFor(*after_rel);

  LeakageOptions leakage;
  auto before = ComputeLeakageProfile(before_enc, before_meta, leakage);
  auto after = ComputeLeakageProfile(after_enc, after_meta, leakage);
  ASSERT_TRUE(before.ok() && after.ok());
  ASSERT_EQ(before->risk_measures.size(), 2u);

  auto delta = DiffLeakageProfiles(*before, *after);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->empty());
  bool entropy_drifted = false;
  for (const MeasureDrift& drift : delta->measure_drifts) {
    if (drift.measure == "entropy_bits" && drift.attribute == 0) {
      entropy_drifted = true;
      EXPECT_DOUBLE_EQ(drift.before.value, 3.0);
      EXPECT_DOUBLE_EQ(drift.after.value, 1.0);
    }
  }
  EXPECT_TRUE(entropy_drifted);
  const std::string text = delta->ToString(before->schema);
  EXPECT_NE(text.find("entropy_bits"), std::string::npos);

  // Identical profiles produce no measure drift.
  auto self = DiffLeakageProfiles(*before, *before);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->measure_drifts.empty());
}

TEST(RiskEstimatorTest, RegistryShapes) {
  EXPECT_EQ(RiskEstimatorRegistry::Default().estimators().size(), 1u);
  EXPECT_EQ(RiskEstimatorRegistry::Default().total_measures(), 2u);
  EXPECT_EQ(RiskEstimatorRegistry::All().estimators().size(), 3u);
  EXPECT_EQ(RiskEstimatorRegistry::All().total_measures(), 7u);
  EXPECT_EQ(RiskEstimatorRegistry::All().estimators()[0]->name(),
            "match_rate");
}

}  // namespace
}  // namespace metaleak
