#include "vfl/attack.h"

#include <utility>

#include "common/random.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"

namespace metaleak {

Result<LeakageReport> SimulateReconstruction(
    const MetadataPackage& received, const Relation& real_aligned,
    uint64_t seed, const GenerationOptions& options) {
  // Generate straight into a dense batch and score it against the
  // encoded real relation, skipping the per-round Relation.
  METALEAK_ASSIGN_OR_RETURN(GenerationContext ctx,
                            GenerationContext::Build(received, options));
  EncodedRelation encoded = EncodedRelation::Encode(real_aligned);
  METALEAK_ASSIGN_OR_RETURN(
      EncodedLeakageContext leak,
      EncodedLeakageContext::Build(encoded, ctx.schema(), ctx.domains()));
  Rng rng(seed);
  EncodedBatch batch;
  METALEAK_RETURN_NOT_OK(
      GenerateEncoded(ctx, real_aligned.num_rows(), &rng, &batch));
  return leak.EvaluateReport(batch);
}

Result<std::vector<AttackResult>> SweepDisclosureLevels(
    const MetadataPackage& full_metadata, const Relation& real_aligned,
    uint64_t seed) {
  std::vector<AttackResult> out;
  const DisclosureLevel levels[] = {
      DisclosureLevel::kNames,
      DisclosureLevel::kNamesAndDomains,
      DisclosureLevel::kWithFds,
      DisclosureLevel::kWithRfds,
  };
  for (DisclosureLevel level : levels) {
    AttackResult result;
    result.level = level;
    MetadataPackage restricted = full_metadata.Restrict(level);
    if (!restricted.HasAllDomains()) {
      // Names alone give the adversary nothing to sample from.
      result.reconstructed = false;
      out.push_back(std::move(result));
      continue;
    }
    METALEAK_ASSIGN_OR_RETURN(
        result.leakage,
        SimulateReconstruction(restricted, real_aligned, seed));
    result.reconstructed = true;
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace metaleak
