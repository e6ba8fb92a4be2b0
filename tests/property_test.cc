// Cross-module property tests: brute-force oracles and invariant sweeps
// over randomized inputs (all seeded and deterministic).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "discovery/discovery_engine.h"
#include "discovery/rfd_discovery.h"
#include "discovery/validators.h"
#include "generation/generation_engine.h"
#include "metadata/dependency_graph.h"
#include "privacy/experiment.h"
#include "privacy/identifiability.h"
#include "privacy/leakage.h"
#include "value_reference.h"

namespace metaleak {
namespace {

Relation RandomRelation(Rng* rng, size_t rows, size_t cats, size_t conts,
                        size_t domain) {
  return std::move(datasets::SyntheticUniform(rows, cats, conts, domain,
                                              rng->engine()()))
      .ValueOrDie();
}

// --- OD/OFD/DD validators vs. the O(n^2) definitional oracles -------------

class OrderValidatorOracleTest : public ::testing::TestWithParam<uint64_t> {
};

// A column over a 4-value domain of `type` (so ties and both verdicts
// occur) with about one NULL in six cells.
std::vector<Value> RandomOrderColumn(Rng* rng, DataType type, size_t rows) {
  std::vector<Value> out;
  for (size_t r = 0; r < rows; ++r) {
    const int64_t k = rng->UniformInt(0, 3);
    if (rng->UniformIndex(6) == 0) {
      out.push_back(Value::Null());
    } else if (type == DataType::kInt64) {
      out.push_back(Value::Int(k));
    } else if (type == DataType::kDouble) {
      out.push_back(Value::Real(0.5 * static_cast<double>(k)));
    } else {
      out.push_back(Value::Str(std::string(1, static_cast<char>('a' + k))));
    }
  }
  return out;
}

TEST_P(OrderValidatorOracleTest, MatchesDefinition) {
  Rng rng(GetParam());
  // Every single-attribute and 2-attribute LHS over int, double and string
  // columns with NULLs: the single form is the sorted-pair kernel, the
  // 2-attribute form the lexicographic tuple scan (OD/OFD) and the
  // conjunctive eps-window (DD) of the AttributeSet overloads. Small
  // relations, plus two of 150 rows so the DD pair scan splits into
  // chunks.
  Schema schema({{"i", DataType::kInt64, SemanticType::kContinuous},
                 {"d", DataType::kDouble, SemanticType::kContinuous},
                 {"s", DataType::kString, SemanticType::kCategorical},
                 {"j", DataType::kInt64, SemanticType::kContinuous}});
  const std::vector<double> eps_choices = {0.0, 0.5, 1.0, 2.0};
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = trial < 18 ? 4 + rng.UniformIndex(8) : 150;
    std::vector<std::vector<Value>> cols;
    for (const Attribute& a : schema.attributes()) {
      cols.push_back(RandomOrderColumn(&rng, a.type, rows));
    }
    Relation r = std::move(Relation::Make(schema, cols)).ValueOrDie();
    EncodedRelation encoded = EncodedRelation::Encode(r);
    const std::vector<double> eps = {
        eps_choices[rng.UniformIndex(eps_choices.size())],
        eps_choices[rng.UniformIndex(eps_choices.size())]};
    // The AttributeSet overloads take the single-attribute path when
    // |lhs| == 1, so one check covers both forms.
    auto check = [&](const std::vector<size_t>& lhs, size_t y) {
      const AttributeSet set = AttributeSet::Of(lhs);
      SCOPED_TRACE(set.ToString() + " -> " + std::to_string(y));
      EXPECT_EQ(ValidateOd(encoded, set, y),
                reference::OrderHolds(r, lhs, y, /*strict=*/false));
      EXPECT_EQ(ValidateOfd(encoded, set, y),
                reference::OrderHolds(r, lhs, y, /*strict=*/true));
      const std::vector<double> window(eps.begin(), eps.begin() + lhs.size());
      auto delta = ComputeMinimalDelta(encoded, set, window, y);
      auto oracle = reference::MinimalDelta(r, lhs, window, y);
      EXPECT_EQ(delta.ok(), oracle.ok());
      if (delta.ok() && oracle.ok()) {
        EXPECT_EQ(*delta, *oracle);
      }
    };
    for (size_t threads : {1, 8}) {
      SetGlobalThreadCount(threads);
      SCOPED_TRACE("trial " + std::to_string(trial) + " threads " +
                   std::to_string(threads));
      for (size_t y = 0; y < r.num_columns(); ++y) {
        for (size_t a = 0; a < r.num_columns(); ++a) {
          if (a == y) continue;
          check({a}, y);
          for (size_t b = a + 1; b < r.num_columns(); ++b) {
            if (b != y) check({a, b}, y);
          }
        }
      }
    }
    SetGlobalThreadCount(0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderValidatorOracleTest,
                         ::testing::Values(3, 5, 7, 11, 13, 17));

// --- UniqueRows vs. brute force ---------------------------------------------

class UniqueRowsOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniqueRowsOracleTest, MatchesBruteForce) {
  Rng rng(GetParam());
  Relation r = RandomRelation(&rng, 40, 3, 0, 4);
  for (uint64_t mask = 1; mask < 8; ++mask) {
    AttributeSet attrs;
    for (size_t i = 0; i < 3; ++i) {
      if ((mask >> i) & 1) attrs = attrs.With(i);
    }
    auto fast = UniqueRows(r, attrs);
    ASSERT_TRUE(fast.ok());
    for (size_t i = 0; i < r.num_rows(); ++i) {
      size_t same = 0;
      for (size_t j = 0; j < r.num_rows(); ++j) {
        bool equal = true;
        for (size_t a : attrs.ToIndices()) {
          if (!(r.at(i, a) == r.at(j, a))) {
            equal = false;
            break;
          }
        }
        if (equal) ++same;
      }
      EXPECT_EQ((*fast)[i], same == 1)
          << "row " << i << " attrs " << attrs.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniqueRowsOracleTest,
                         ::testing::Values(21, 22, 23, 24));

// --- Leakage metric invariants -------------------------------------------------

class LeakageInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeakageInvariantTest, ContinuousMatchesMonotoneInEpsilon) {
  Rng rng(GetParam());
  Relation real = RandomRelation(&rng, 60, 0, 2, 8);
  Relation syn = RandomRelation(&rng, 60, 0, 2, 8);
  size_t prev = 0;
  for (double eps : {0.0, 1.0, 5.0, 20.0, 200.0}) {
    auto matches = CountContinuousMatches(real, syn, 0, eps);
    ASSERT_TRUE(matches.ok());
    EXPECT_GE(*matches, prev);
    prev = *matches;
  }
  // eps covering the whole range matches every comparable row.
  EXPECT_EQ(prev, 60u);
}

TEST_P(LeakageInvariantTest, MseIsSymmetricAndNonNegative) {
  Rng rng(GetParam());
  Relation a = RandomRelation(&rng, 50, 0, 1, 8);
  Relation b = RandomRelation(&rng, 50, 0, 1, 8);
  auto ab = AttributeMse(a, b, 0);
  auto ba = AttributeMse(b, a, 0);
  ASSERT_TRUE(ab.ok() && ba.ok());
  EXPECT_DOUBLE_EQ(*ab, *ba);
  EXPECT_GE(*ab, 0.0);
  auto aa = AttributeMse(a, a, 0);
  ASSERT_TRUE(aa.ok());
  EXPECT_DOUBLE_EQ(*aa, 0.0);
}

TEST_P(LeakageInvariantTest, MatchesBoundedByRows) {
  Rng rng(GetParam());
  Relation real = RandomRelation(&rng, 30, 2, 0, 3);
  Relation syn = RandomRelation(&rng, 30, 2, 0, 3);
  for (size_t c = 0; c < 2; ++c) {
    auto matches = CountCategoricalMatches(real, syn, c);
    ASSERT_TRUE(matches.ok());
    EXPECT_LE(*matches, 30u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeakageInvariantTest,
                         ::testing::Values(31, 32, 33, 34, 35));

// --- Dependency graph invariants over random dependency sets --------------------

class GraphInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphInvariantTest, PlanIsAlwaysExecutable) {
  Rng rng(GetParam());
  const size_t m = 6;
  DependencySet deps;
  // Random soup of dependencies, including cycles and self-loops.
  for (int i = 0; i < 15; ++i) {
    size_t lhs = rng.UniformIndex(m);
    size_t rhs = rng.UniformIndex(m);
    switch (rng.UniformIndex(4)) {
      case 0:
        deps.Add(Dependency::Fd(AttributeSet::Single(lhs), rhs));
        break;
      case 1:
        deps.Add(Dependency::Od(lhs, rhs));
        break;
      case 2:
        deps.Add(Dependency::Nd(lhs, rhs, 1 + rng.UniformIndex(4)));
        break;
      default:
        deps.Add(Dependency::Fd(
            AttributeSet::Single(lhs).With(rng.UniformIndex(m)), rhs));
        break;
    }
  }
  DependencyGraph g = DependencyGraph::Build(m, deps);
  ASSERT_EQ(g.size(), m);
  // Every step's LHS attributes appear strictly earlier in the plan.
  AttributeSet placed;
  for (const GenerationStep& step : g.steps()) {
    if (step.via.has_value()) {
      EXPECT_TRUE(placed.ContainsAll(step.via->lhs))
          << "attribute " << step.attribute;
      EXPECT_EQ(step.via->rhs, step.attribute);
      EXPECT_FALSE(step.via->lhs.Contains(step.attribute));
    }
    placed = placed.With(step.attribute);
  }
  EXPECT_EQ(placed.size(), m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphInvariantTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48));

// --- End-to-end generation sweep: plans execute and respect domains ---------------

class GenerationSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenerationSweepTest, ProfileGenerateMeasureNeverFails) {
  Rng rng(GetParam());
  datasets::SyntheticConfig config;
  config.num_rows = 80;
  config.seed = rng.engine()();
  // Base categorical, base continuous, a monotone derivation, a bounded
  // fan-out derivation — a little of everything.
  datasets::SyntheticAttribute a;
  a.name = "a";
  a.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  a.domain_size = 2 + rng.UniformIndex(8);
  datasets::SyntheticAttribute b;
  b.name = "b";
  b.kind = datasets::SyntheticAttribute::Kind::kContinuousBase;
  b.lo = 0;
  b.hi = 10 + static_cast<double>(rng.UniformIndex(100));
  datasets::SyntheticAttribute c;
  c.name = "c";
  c.kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone;
  c.source = 1;
  c.domain_size = 0;
  datasets::SyntheticAttribute d;
  d.name = "d";
  d.kind = datasets::SyntheticAttribute::Kind::kDerivedBoundedFanout;
  d.source = 0;
  d.domain_size = 12;
  d.fanout = 1 + rng.UniformIndex(4);
  config.attributes = {a, b, c, d};

  auto rel = datasets::Synthetic(config);
  ASSERT_TRUE(rel.ok());
  DiscoveryOptions discovery;
  discovery.discover_afds = true;
  auto report = ProfileRelation(*rel, discovery);
  ASSERT_TRUE(report.ok());

  for (GenerationMethod method :
       {GenerationMethod::kRandom, GenerationMethod::kFd,
        GenerationMethod::kOd, GenerationMethod::kNd,
        GenerationMethod::kDd, GenerationMethod::kOfd,
        GenerationMethod::kAfd}) {
    ExperimentConfig econfig;
    econfig.rounds = 3;
    econfig.seed = GetParam();
    auto result = RunMethod(*rel, report->metadata, method, econfig);
    ASSERT_TRUE(result.ok())
        << GenerationMethodToString(method) << ": "
        << result.status().ToString();
    for (const MethodAttributeResult& attr : result->attributes) {
      EXPECT_LE(attr.mean_matches, static_cast<double>(rel->num_rows()));
      EXPECT_GE(attr.mean_matches, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenerationSweepTest,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

// --- Serialization robustness: corrupted wire input never crashes ------------------

TEST(WireRobustnessTest, TruncatedAndMutatedInputsFailGracefully) {
  Relation rel =
      std::move(datasets::SyntheticUniform(30, 2, 2, 5, 99)).ValueOrDie();
  DiscoveryOptions options;
  options.profile_distributions = true;
  auto report = ProfileRelation(rel, options);
  ASSERT_TRUE(report.ok());
  std::string wire = report->metadata.Serialize();

  // Truncations at every prefix length (step 7 to keep it fast): parse
  // must either succeed or fail with a Status — never crash.
  for (size_t len = 0; len < wire.size(); len += 7) {
    auto parsed = MetadataPackage::Deserialize(wire.substr(0, len));
    (void)parsed;
  }
  // Single-character mutations on a sample of positions.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = wire;
    size_t pos = rng.UniformIndex(mutated.size());
    mutated[pos] = static_cast<char>('!' + rng.UniformIndex(90));
    auto parsed = MetadataPackage::Deserialize(mutated);
    if (parsed.ok()) {
      // If it still parses, it must re-serialize without crashing.
      (void)parsed->Serialize();
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace metaleak
