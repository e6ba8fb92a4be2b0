// GenerationEngine: builds a full synthetic relation R_syn from a
// MetadataPackage, following the dependency graph (Section V).
//
// GenerationContext resolves a package once (plan, domains, batch
// layout, distribution samplers); GenerateEncoded then writes dense
// domain codes / raw doubles into a reusable EncodedBatch arena, and
// only the Relation-returning GenerateSynthetic decodes at the adapter
// boundary. A package this path cannot represent bit for bit is
// rejected by GenerationContext::Build with Status::Invalid; there is
// no second generation path.
#ifndef METALEAK_GENERATION_GENERATION_ENGINE_H_
#define METALEAK_GENERATION_GENERATION_ENGINE_H_

#include <optional>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/encoded_batch.h"
#include "data/relation.h"
#include "metadata/dependency_graph.h"
#include "metadata/metadata_package.h"

namespace metaleak {

struct GenerationOptions {
  /// Restrict which dependency classes may drive generation; empty = all
  /// disclosed classes. The evaluation uses singleton lists to isolate a
  /// class (Tables III/IV columns: Rand / FD / OD / ND).
  std::vector<DependencyKind> allowed_kinds;
  /// Force pure random generation even if dependencies are disclosed.
  bool ignore_dependencies = false;
  /// When the package discloses value distributions (the
  /// kWithDistributions extension level), sample root attributes from
  /// them instead of uniformly from the domain. The paper's model keeps
  /// this off by assumption; the A6 ablation turns it on.
  bool use_distributions = true;
};

/// Result of one generation run.
struct GenerationOutcome {
  Relation relation;
  /// The plan used (root vs. dependency edge per attribute).
  DependencyGraph plan;
};

class GenerationContext;
Status GenerateEncoded(const GenerationContext& ctx, size_t num_rows,
                       Rng* rng, EncodedBatch* batch);

/// Everything the per-round generation loop needs, resolved once per
/// (metadata, options) pair: the generation plan, the domains, the batch
/// column layout, per-code numeric tables for DD, and code-mapped
/// distribution samplers.
class GenerationContext {
 public:
  /// Resolves plan + domains. Invalid when a domain is missing, when a
  /// categorical domain holds NaN, or when a disclosed distribution does
  /// not fit its attribute's domain (continuous over categorical,
  /// categorical over continuous, or support outside the domain).
  static Result<GenerationContext> Build(const MetadataPackage& metadata,
                                         const GenerationOptions& options =
                                             {});

  const Schema& schema() const { return schema_; }
  const std::vector<Domain>& domains() const { return domains_; }
  const DependencyGraph& plan() const { return *plan_; }
  const std::vector<EncodedBatch::ColumnKind>& kinds() const {
    return kinds_;
  }
  const std::vector<CodeWidth>& widths() const { return widths_; }
  size_t num_attributes() const { return domains_.size(); }

  /// Per-code numeric view of a code-stored column's domain: entry 0
  /// (NULL) and non-numeric entries are 0.0 (the DD walk's
  /// `is_numeric() ? AsNumeric() : 0.0` convention). Empty for
  /// real-stored columns.
  const std::vector<double>& code_numeric(size_t c) const {
    return code_numeric_[c];
  }

 private:
  friend Status GenerateEncoded(const GenerationContext&, size_t, Rng*,
                                EncodedBatch*);

  // Replays ValueDistribution::Sample draw-for-draw, emitting codes
  // (categorical frequency table whose support maps into the domain) or
  // raw doubles (histogram).
  struct DistSampler {
    bool categorical = false;
    std::vector<size_t> counts;  // frequency counts / bucket masses
    size_t total = 0;
    std::vector<uint32_t> codes;  // frequency index -> domain code
    double lo = 0.0;              // histogram range
    double hi = 0.0;

    uint32_t SampleCode(Rng* rng) const;
    double SampleReal(Rng* rng) const;
  };

  Schema schema_;
  std::vector<Domain> domains_;
  std::optional<DependencyGraph> plan_;
  std::vector<EncodedBatch::ColumnKind> kinds_;
  std::vector<CodeWidth> widths_;  // batch code-column widths, per attr
  std::vector<std::vector<size_t>> step_lhs_;  // aligned with plan steps
  std::vector<std::optional<DistSampler>> dist_;     // per attribute
  std::vector<std::vector<double>> code_numeric_;    // per attribute
};

/// Runs the encoded generators over the context's plan, filling `batch`
/// (re-configured and resized in place; a thread that owns its batch
/// allocates only on the first round).
Status GenerateEncoded(const GenerationContext& ctx, size_t num_rows,
                       Rng* rng, EncodedBatch* batch);

/// Generates `num_rows` synthetic tuples from disclosed metadata. Requires
/// the package to disclose every attribute domain (the adversary cannot
/// sample values otherwise); returns the Invalid of
/// GenerationContext::Build for missing domains and for packages it
/// rejects.
Result<GenerationOutcome> GenerateSynthetic(const MetadataPackage& metadata,
                                            size_t num_rows, Rng* rng,
                                            const GenerationOptions& options =
                                                {});

}  // namespace metaleak

#endif  // METALEAK_GENERATION_GENERATION_ENGINE_H_
