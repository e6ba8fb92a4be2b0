// Tests for the dictionary-encoding layer (EncodedRelation) and for the
// profile primitives built on top of it: PLI construction, OD/OFD
// validation, the minimal DD delta and the value distributions must match
// their definitions, computed on boxed Values by tests/value_reference,
// at 1 and 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/tane.h"
#include "discovery/validators.h"
#include "metadata/value_distribution.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"
#include "privacy/identifiability.h"
#include "value_reference.h"

namespace metaleak {
namespace {

Schema TestSchema() {
  return Schema({
      {"id", DataType::kInt64, SemanticType::kCategorical},
      {"score", DataType::kDouble, SemanticType::kContinuous},
      {"label", DataType::kString, SemanticType::kCategorical},
  });
}

Relation TestRelation() {
  return std::move(Relation::Make(
                       TestSchema(),
                       {{Value::Int(3), Value::Int(1), Value::Int(3),
                         Value::Null(), Value::Int(2)},
                        {Value::Real(0.5), Value::Null(), Value::Real(0.5),
                         Value::Real(-1.0), Value::Real(2.25)},
                        {Value::Str("b"), Value::Str("a"), Value::Str("b"),
                         Value::Null(), Value::Str("a")}}))
      .ValueOrDie();
}

Relation Synthetic50(uint64_t seed) {
  return std::move(datasets::SyntheticUniform(50, 3, 2, 8, seed))
      .ValueOrDie();
}

// Canonical cluster form, as reference::StrippedPartition returns it:
// rows ascending within a cluster (as stored), clusters sorted.
std::vector<std::vector<size_t>> Canonical(const PositionListIndex& pli) {
  std::vector<std::vector<size_t>> out = pli.ToNestedClusters();
  std::sort(out.begin(), out.end());
  return out;
}

// The four agreement inputs: NULLs and all three types, the two paper
// datasets, and a random relation.
std::vector<Relation> AgreementInputs() {
  return {TestRelation(), datasets::Employee(), datasets::Echocardiogram(),
          Synthetic50(13)};
}

// Runs `body` at 1 and then at 8 pool threads.
template <typename Body>
void AtOneAndEightThreads(Body body) {
  for (size_t threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetGlobalThreadCount(threads);
    body();
  }
  SetGlobalThreadCount(0);
}

std::vector<std::string> DependencyStrings(const DependencySet& deps,
                                           const Schema& schema) {
  std::vector<std::string> out;
  for (const Dependency& d : deps) out.push_back(d.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

// --- Encoding basics ---------------------------------------------------------

TEST(EncodedRelationTest, RoundTripDecodeEqualsOriginal) {
  for (const Relation& rel :
       {TestRelation(), datasets::Employee(), datasets::Echocardiogram(),
        Synthetic50(7)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    auto decoded = encoded.Decode();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, rel);
  }
}

TEST(EncodedRelationTest, NullGetsTheReservedCode) {
  Relation rel = TestRelation();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  // Row 3 of "id" and "label" is NULL; row 1 of "score" is NULL.
  EXPECT_EQ(encoded.code_at(3, 0), ColumnDictionary::kNullCode);
  EXPECT_EQ(encoded.code_at(1, 1), ColumnDictionary::kNullCode);
  EXPECT_TRUE(encoded.is_null(3, 2));
  EXPECT_FALSE(encoded.is_null(0, 0));

  const ColumnDictionary& id = encoded.dictionary(0);
  EXPECT_TRUE(id.has_null());
  EXPECT_EQ(id.null_count(), 1u);
  EXPECT_TRUE(id.decode(ColumnDictionary::kNullCode).is_null());
  EXPECT_EQ(id.count(ColumnDictionary::kNullCode), 1u);

  // The NULL slot exists even for columns without NULLs, so code 0 never
  // aliases a real value.
  Relation no_nulls = std::move(Relation::Make(
                                    TestSchema(),
                                    {{Value::Int(1), Value::Int(1)},
                                     {Value::Real(0.0), Value::Real(1.0)},
                                     {Value::Str("x"), Value::Str("y")}}))
                          .ValueOrDie();
  EncodedRelation e2 = EncodedRelation::Encode(no_nulls);
  EXPECT_FALSE(e2.dictionary(0).has_null());
  EXPECT_EQ(e2.dictionary(0).count(ColumnDictionary::kNullCode), 0u);
  EXPECT_EQ(e2.dictionary(0).num_codes(), 2u);  // NULL slot + value 1
  EXPECT_EQ(e2.dictionary(0).num_distinct(), 1u);
}

TEST(EncodedRelationTest, AllNullColumnHasOnlyTheNullCode) {
  Relation rel = std::move(Relation::Make(
                               TestSchema(),
                               {{Value::Null(), Value::Null()},
                                {Value::Null(), Value::Null()},
                                {Value::Null(), Value::Null()}}))
                     .ValueOrDie();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(encoded.dictionary(c).num_distinct(), 0u);
    EXPECT_EQ(encoded.dictionary(c).null_count(), 2u);
    for (uint32_t code : encoded.column(c).ToU32()) {
      EXPECT_EQ(code, ColumnDictionary::kNullCode);
    }
  }
  auto decoded = encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rel);
}

TEST(EncodedRelationTest, CodesAreOrderPreservingOnNumericColumns) {
  Relation rel = Synthetic50(21);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      for (size_t s = 0; s < rel.num_rows(); ++s) {
        const Value& a = rel.at(r, c);
        const Value& b = rel.at(s, c);
        if (a.is_null() || b.is_null()) continue;
        uint32_t ca = encoded.code_at(r, c);
        uint32_t cb = encoded.code_at(s, c);
        EXPECT_EQ(a < b, ca < cb);
        EXPECT_EQ(a == b, ca == cb);
      }
    }
  }
}

TEST(EncodedRelationTest, DictionaryMatchesFrequencyTable) {
  for (const Relation& rel : AgreementInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      FrequencyTable table = reference::FrequencyTableOf(rel, c);
      const ColumnDictionary& dict = encoded.dictionary(c);
      ASSERT_EQ(table.values.size(), dict.num_distinct());
      EXPECT_EQ(table.values, dict.DistinctValues());
      for (uint32_t code = 1; code < dict.num_codes(); ++code) {
        EXPECT_EQ(table.counts[code - 1], dict.count(code));
      }
    }
  }
}

TEST(EncodedRelationTest, DomainsMatchExtractDomain) {
  for (const Relation& rel :
       {datasets::Employee(), datasets::Echocardiogram(), Synthetic50(3)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      auto expected = ExtractDomain(rel, c);
      auto actual = encoded.DomainOf(c);
      ASSERT_EQ(expected.ok(), actual.ok());
      if (expected.ok()) {
        EXPECT_EQ(*expected, *actual);
      }
    }
  }
}

TEST(EncodedRelationTest, FingerprintIsStableAndContentSensitive) {
  Relation a = Synthetic50(5);
  Relation b = Synthetic50(5);
  Relation c = Synthetic50(6);
  EXPECT_EQ(EncodedRelation::Encode(a).Fingerprint(),
            EncodedRelation::Encode(b).Fingerprint());
  EXPECT_NE(EncodedRelation::Encode(a).Fingerprint(),
            EncodedRelation::Encode(c).Fingerprint());
}

TEST(EncodedRelationTest, DistributionsMatchValuePath) {
  for (const Relation& rel : AgreementInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      auto code_path = ValueDistribution::FromEncoded(encoded, c, 8);
      auto expected = reference::DistributionOf(rel, c, 8);
      ASSERT_EQ(code_path.ok(), expected.ok()) << "attr " << c;
      if (expected.ok()) {
        EXPECT_TRUE(*code_path == *expected) << "attr " << c;
      }
    }
  }
}

// --- Code path vs the definitions --------------------------------------------

TEST(EncodingAgreementTest, SingleColumnPlisAgree) {
  for (const Relation& rel : AgreementInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    AtOneAndEightThreads([&] {
      for (size_t c = 0; c < rel.num_columns(); ++c) {
        PositionListIndex code_path = PositionListIndex::FromCodes(
            encoded.column(c).ToU32(), encoded.dictionary(c).num_codes());
        EXPECT_EQ(Canonical(code_path),
                  reference::StrippedPartition(rel, {c}));
        EXPECT_EQ(code_path.num_rows(), rel.num_rows());
      }
    });
  }
}

TEST(EncodingAgreementTest, MultiColumnPlisAgree) {
  for (const Relation& rel : AgreementInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    AtOneAndEightThreads([&] {
      for (size_t a = 0; a < rel.num_columns(); ++a) {
        for (size_t b = a + 1; b < rel.num_columns(); ++b) {
          EXPECT_EQ(Canonical(PositionListIndex::FromEncoded(encoded, {a, b})),
                    reference::StrippedPartition(rel, {a, b}))
              << a << "," << b;
        }
      }
    });
  }
}

TEST(EncodingAgreementTest, OdAndOfdValidationAgrees) {
  for (const Relation& rel : AgreementInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    AtOneAndEightThreads([&] {
      for (size_t x = 0; x < rel.num_columns(); ++x) {
        for (size_t y = 0; y < rel.num_columns(); ++y) {
          if (x == y) continue;
          EXPECT_EQ(ValidateOd(encoded, x, y),
                    reference::OrderHolds(rel, {x}, y, /*strict=*/false))
              << "OD " << x << " -> " << y;
          EXPECT_EQ(ValidateOfd(encoded, x, y),
                    reference::OrderHolds(rel, {x}, y, /*strict=*/true))
              << "OFD " << x << " -> " << y;
        }
      }
    });
  }
}

TEST(EncodingAgreementTest, MinimalDeltaAgrees) {
  for (const Relation& rel : AgreementInputs()) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    AtOneAndEightThreads([&] {
      for (size_t x = 0; x < rel.num_columns(); ++x) {
        for (size_t y = 0; y < rel.num_columns(); ++y) {
          if (x == y) continue;
          auto code_path = ComputeMinimalDelta(encoded, x, y, 2.0);
          auto expected = reference::MinimalDelta(rel, {x}, {2.0}, y);
          ASSERT_EQ(code_path.ok(), expected.ok()) << x << " -> " << y;
          if (expected.ok()) {
            EXPECT_EQ(*code_path, *expected) << x << " -> " << y;
          }
        }
      }
    });
  }
}

TEST(EncodingAgreementTest, DiscoveryOutputIsIdentical) {
  for (const Relation& rel :
       {datasets::Employee(), datasets::Echocardiogram(),
        Synthetic50(23)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    DiscoveryOptions options;
    options.discover_afds = true;
    auto from_relation = ProfileRelation(rel, options);
    auto from_encoded = ProfileRelation(encoded, options);
    ASSERT_TRUE(from_relation.ok());
    ASSERT_TRUE(from_encoded.ok());
    EXPECT_EQ(DependencyStrings(from_relation->metadata.dependencies,
                                rel.schema()),
              DependencyStrings(from_encoded->metadata.dependencies,
                                rel.schema()));
    EXPECT_EQ(from_relation->metadata.domains.size(),
              from_encoded->metadata.domains.size());
    ASSERT_EQ(from_relation->search_stats.size(),
              from_encoded->search_stats.size());
    for (size_t i = 0; i < from_relation->search_stats.size(); ++i) {
      EXPECT_EQ(from_relation->search_stats[i].search,
                from_encoded->search_stats[i].search);
      EXPECT_EQ(from_relation->search_stats[i].stats.nodes_visited,
                from_encoded->search_stats[i].stats.nodes_visited);
      EXPECT_EQ(
          from_relation->search_stats[i].stats.validator_invocations,
          from_encoded->search_stats[i].stats.validator_invocations);
    }
  }
}

TEST(EncodingAgreementTest, UniqueRowsAgreesWithRelationOverload) {
  Relation rel = datasets::Employee();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    auto value_path = UniqueRows(rel, AttributeSet::Single(c));
    auto code_path = UniqueRows(encoded, AttributeSet::Single(c));
    ASSERT_TRUE(value_path.ok());
    ASSERT_TRUE(code_path.ok());
    EXPECT_EQ(*value_path, *code_path);
  }
}

// --- PliCache keying ---------------------------------------------------------

TEST(PliCacheKeyTest, KeyedByFingerprintAndAttributeSet) {
  Relation rel = Synthetic50(29);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  PliCache cache(&encoded);
  EXPECT_EQ(cache.fingerprint(), encoded.Fingerprint());
  const PositionListIndex* a = cache.Get(AttributeSet::Of({0, 1}));
  const PositionListIndex* b = cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_EQ(a, b);  // cached, not rebuilt

  // A cache built from the raw relation owns an equivalent encoding.
  PliCache from_relation(&rel);
  EXPECT_EQ(from_relation.fingerprint(), encoded.Fingerprint());
  EXPECT_EQ(Canonical(*from_relation.Get(AttributeSet::Of({0, 1}))),
            Canonical(*a));
}

}  // namespace
}  // namespace metaleak
