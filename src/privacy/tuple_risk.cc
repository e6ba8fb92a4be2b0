#include "privacy/tuple_risk.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "generation/generation_engine.h"
#include "privacy/identifiability.h"

namespace metaleak {

std::vector<size_t> TupleRiskReport::TopIdentifiable(size_t count) const {
  std::vector<size_t> out;
  for (const TupleRisk& t : tuples) {
    if (out.size() >= count) break;
    if (t.identifiable) out.push_back(t.row);
  }
  return out;
}

std::string TupleRiskReport::ToString(size_t count) const {
  TablePrinter printer("Highest-risk tuples");
  printer.SetHeader({"Row", "Mean matched attrs", "Max in a round",
                     ">=50% reconstructed", "Identifiable (Def 2.1)"});
  for (size_t i = 0; i < std::min(count, tuples.size()); ++i) {
    const TupleRisk& t = tuples[i];
    printer.AddRow({std::to_string(t.row),
                    FormatDouble(t.mean_matched_attributes, 3),
                    std::to_string(t.max_matched_attributes),
                    FormatDouble(100.0 * t.half_reconstructed_rate, 1) +
                        "%",
                    t.identifiable ? "yes" : "no"});
  }
  return printer.ToString();
}

Result<TupleRiskReport> AnalyzeTupleRisk(const Relation& real,
                                         const MetadataPackage& metadata,
                                         const TupleRiskOptions& options) {
  return AnalyzeTupleRisk(EncodedRelation::Encode(real), metadata, options);
}

Result<TupleRiskReport> AnalyzeTupleRisk(const EncodedRelation& encoded,
                                         const MetadataPackage& metadata,
                                         const TupleRiskOptions& options) {
  if (options.rounds == 0) {
    return Status::Invalid("tuple risk analysis needs at least one round");
  }
  const size_t n = encoded.num_rows();
  const size_t m = encoded.num_columns();
  if (n == 0 || m == 0) {
    return Status::Invalid("cannot analyze an empty relation");
  }

  // Non-null attribute counts per row (the "half reconstructed" base),
  // read column-major off the dense code vectors: code 0 is the reserved
  // NULL slot, so no Value is materialized.
  static_assert(ColumnDictionary::kNullCode == 0,
                "AccumulateNonNull counts codes != 0");
  std::vector<uint32_t> non_null(n, 0);
  for (size_t c = 0; c < m; ++c) {
    AccumulateNonNullCodes(ActiveSimdLevel(), encoded.column_view(c),
                           non_null.data());
  }

  std::vector<double> total_matched(n, 0.0);
  std::vector<size_t> max_matched(n, 0);
  std::vector<size_t> half_rounds(n, 0);

  // Resolve the generation plan and the per-cell leakage tables once,
  // then score every round as a scan over dense codes and doubles — no
  // Relation is materialized.
  METALEAK_ASSIGN_OR_RETURN(GenerationContext gen_ctx,
                            GenerationContext::Build(metadata));
  METALEAK_ASSIGN_OR_RETURN(
      EncodedLeakageContext leak_ctx,
      EncodedLeakageContext::Build(encoded, gen_ctx.schema(),
                                   gen_ctx.domains(), options.leakage));
  std::vector<EncodedLeakageContext::AttributeView> views;
  views.reserve(m);
  for (size_t c = 0; c < m; ++c) views.push_back(leak_ctx.ViewAttribute(c));

  Rng rng(options.seed);
  EncodedBatch batch;
  for (size_t round = 0; round < options.rounds; ++round) {
    Rng round_rng = rng.Fork();
    METALEAK_RETURN_NOT_OK(GenerateEncoded(gen_ctx, n, &round_rng, &batch));
    // Column-major scoring through the SIMD accumulation kernels: each
    // chunk counts matched attributes per row one column at a time
    // (exact integer counts, so the result is identical to the
    // row-major cell loop), then finalizes its rows' accumulators.
    const SimdLevel level = ActiveSimdLevel();
    ParallelForChunks(0, n, 1024, [&](size_t lo, size_t hi) {
      const size_t len = hi - lo;
      std::vector<uint32_t> matched(len, 0);
      for (size_t c = 0; c < m; ++c) {
        const EncodedLeakageContext::AttributeView& v = views[c];
        if (v.semantic == SemanticType::kCategorical) {
          if (v.kind == EncodedBatch::ColumnKind::kCodes) {
            AccumulateEqualCodes(level, v.real_codes.Slice(lo, len),
                                 batch.code_view(c).Slice(lo, len),
                                 matched.data());
          } else {
            // NaN real entries (NULL / non-numeric) never compare equal.
            AccumulateEqualF64(level, v.real_numeric + lo,
                               batch.reals(c).data() + lo, len,
                               matched.data());
          }
        } else if (v.kind == EncodedBatch::ColumnKind::kCodes) {
          AccumulateEpsilonMatchCodes(level, v.real_numeric + lo,
                                      batch.code_view(c).Slice(lo, len),
                                      v.code_numeric, v.epsilon,
                                      matched.data());
        } else {
          AccumulateEpsilonMatch(level, v.real_numeric + lo,
                                 batch.reals(c).data() + lo, len,
                                 v.epsilon, matched.data());
        }
      }
      for (size_t i = 0; i < len; ++i) {
        const size_t r = lo + i;
        const size_t row_matched = matched[i];
        total_matched[r] += static_cast<double>(row_matched);
        max_matched[r] = std::max(max_matched[r], row_matched);
        if (non_null[r] > 0 && 2 * row_matched >= non_null[r]) {
          ++half_rounds[r];
        }
      }
    });
  }

  // Per-row identifiability at the configured width: the shared parallel
  // subset sweep (uniqueness is monotone in the subset, so width-k
  // subsets cover all narrower ones).
  METALEAK_ASSIGN_OR_RETURN(
      std::vector<bool> identifiable,
      IdentifiableRows(encoded, options.identifiability_max_width));

  TupleRiskReport report;
  report.tuples.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    TupleRisk t;
    t.row = r;
    t.mean_matched_attributes =
        total_matched[r] / static_cast<double>(options.rounds);
    t.max_matched_attributes = max_matched[r];
    t.half_reconstructed_rate =
        static_cast<double>(half_rounds[r]) /
        static_cast<double>(options.rounds);
    t.identifiable = identifiable[r];
    report.tuples.push_back(t);
  }
  std::stable_sort(report.tuples.begin(), report.tuples.end(),
                   [](const TupleRisk& a, const TupleRisk& b) {
                     return a.mean_matched_attributes >
                            b.mean_matched_attributes;
                   });
  return report;
}

}  // namespace metaleak
