#include "generation/generation_engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/macros.h"
#include "generation/column_generators.h"

namespace metaleak {

namespace {

bool IsNan(const Value& v) {
  return v.is_double() && std::isnan(v.AsDouble());
}

// Invalid naming `reason` and the attribute it was found on.
Status Reject(const char* reason, const Schema& schema, size_t attribute) {
  return Status::Invalid(std::string(reason) + " (attribute '" +
                         schema.attribute(attribute).name + "')");
}

}  // namespace

uint32_t GenerationContext::DistSampler::SampleCode(Rng* rng) const {
  // Mirrors ValueDistribution::Sample (categorical branch) draw-for-draw.
  size_t target = rng->UniformIndex(total);
  size_t acc = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    acc += counts[i];
    if (target < acc) return codes[i];
  }
  return codes.back();
}

double GenerationContext::DistSampler::SampleReal(Rng* rng) const {
  // Mirrors ValueDistribution::Sample (continuous branch) draw-for-draw.
  size_t target = rng->UniformIndex(total);
  size_t acc = 0;
  size_t bucket = counts.size() - 1;
  for (size_t i = 0; i < counts.size(); ++i) {
    acc += counts[i];
    if (target < acc) {
      bucket = i;
      break;
    }
  }
  double width = (hi - lo) / static_cast<double>(counts.size());
  double bucket_lo = lo + width * static_cast<double>(bucket);
  return rng->UniformDouble(bucket_lo, bucket_lo + width);
}

Result<GenerationContext> GenerationContext::Build(
    const MetadataPackage& metadata, const GenerationOptions& options) {
  GenerationContext ctx;
  METALEAK_ASSIGN_OR_RETURN(ctx.domains_, metadata.RequireDomains());
  ctx.schema_ = metadata.schema;
  const size_t m = metadata.schema.num_attributes();
  // NaN breaks Value's strict weak order, so a categorical domain
  // holding it could keep duplicate entries and cannot map values to one
  // code.
  for (size_t c = 0; c < m; ++c) {
    const std::vector<Value>& values = ctx.domains_[c].values();
    if (std::any_of(values.begin(), values.end(), IsNan)) {
      return Reject("NaN in a generation domain", ctx.schema_, c);
    }
  }

  DependencySet usable;
  if (!options.ignore_dependencies) {
    usable = metadata.dependencies;
  }
  ctx.plan_ = DependencyGraph::Build(m, usable, options.allowed_kinds);
  ctx.kinds_ = ColumnKindsForDomains(ctx.domains_);
  ctx.widths_ = CodeWidthsForDomains(ctx.domains_);

  ctx.code_numeric_.resize(m);
  for (size_t c = 0; c < m; ++c) {
    if (ctx.kinds_[c] != EncodedBatch::ColumnKind::kCodes) continue;
    const std::vector<Value>& vals = ctx.domains_[c].values();
    std::vector<double>& table = ctx.code_numeric_[c];
    table.assign(vals.size() + 1, 0.0);
    for (size_t i = 0; i < vals.size(); ++i) {
      if (vals[i].is_numeric()) table[i + 1] = vals[i].AsNumeric();
    }
  }

  ctx.dist_.resize(m);
  ctx.step_lhs_.reserve(ctx.plan_->steps().size());
  for (const GenerationStep& step : ctx.plan_->steps()) {
    if (step.via.has_value()) {
      ctx.step_lhs_.push_back(step.via->lhs.ToIndices());
      continue;
    }
    ctx.step_lhs_.emplace_back();
    const size_t target = step.attribute;
    const bool has_distribution =
        options.use_distributions &&
        target < metadata.distributions.size() &&
        metadata.distributions[target].has_value();
    if (!has_distribution) continue;
    const ValueDistribution& dist = *metadata.distributions[target];
    DistSampler sampler;
    if (ctx.kinds_[target] == EncodedBatch::ColumnKind::kCodes) {
      if (!dist.is_categorical()) {
        return Reject("continuous distribution over a categorical domain",
                      ctx.schema_, target);
      }
      const FrequencyTable& freq = dist.frequency_table();
      sampler.categorical = true;
      sampler.counts = freq.counts;
      sampler.total = freq.total();
      sampler.codes.reserve(freq.values.size());
      for (const Value& v : freq.values) {
        uint32_t code = 0;
        if (!DomainCodeOf(ctx.domains_[target].values(), v, &code)) {
          return Reject("distribution support does not map into the domain",
                        ctx.schema_, target);
        }
        sampler.codes.push_back(code);
      }
    } else {
      if (dist.is_categorical()) {
        return Reject("categorical distribution over a continuous domain",
                      ctx.schema_, target);
      }
      const Histogram& hist = dist.histogram();
      sampler.categorical = false;
      sampler.counts = hist.counts;
      sampler.total = hist.total();
      sampler.lo = hist.lo;
      sampler.hi = hist.hi;
    }
    ctx.dist_[target] = std::move(sampler);
  }
  return ctx;
}

Status GenerateEncoded(const GenerationContext& ctx, size_t num_rows,
                       Rng* rng, EncodedBatch* batch) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  batch->Configure(ctx.kinds_, ctx.widths_);
  batch->ResetRows(num_rows);

  const std::vector<GenerationStep>& steps = ctx.plan_->steps();
  for (size_t s = 0; s < steps.size(); ++s) {
    const GenerationStep& step = steps[s];
    const size_t target = step.attribute;
    const Domain& domain = ctx.domains_[target];
    if (!step.via.has_value()) {
      if (ctx.dist_[target].has_value()) {
        const GenerationContext::DistSampler& sampler = *ctx.dist_[target];
        if (sampler.categorical) {
          batch->WithMutableCodes(target, [&](auto* out) {
            for (size_t r = 0; r < num_rows; ++r) {
              out[r] = sampler.SampleCode(rng);
            }
          });
        } else {
          std::vector<double>& out = batch->reals(target);
          for (size_t r = 0; r < num_rows; ++r) {
            out[r] = sampler.SampleReal(rng);
          }
        }
      } else {
        GenerateRootColumnEncoded(domain, num_rows, rng, batch, target);
      }
      continue;
    }
    const Dependency& dep = *step.via;
    const std::vector<size_t>& lhs = ctx.step_lhs_[s];
    switch (dep.kind) {
      case DependencyKind::kFunctional:
        GenerateFdColumnEncoded(lhs, domain, num_rows, rng, batch, target);
        break;
      case DependencyKind::kApproximateFunctional:
        GenerateAfdColumnEncoded(lhs, domain, num_rows, dep.g3_error, rng,
                                 batch, target);
        break;
      case DependencyKind::kNumerical:
        GenerateNdColumnEncoded(lhs[0], domain, num_rows, dep.max_fanout,
                                rng, batch, target);
        break;
      case DependencyKind::kOrder:
        GenerateOdColumnEncoded(lhs[0], domain, num_rows, rng, batch,
                                target);
        break;
      case DependencyKind::kOrderedFunctional:
        GenerateOfdColumnEncoded(lhs[0], domain, num_rows, rng, batch,
                                 target);
        break;
      case DependencyKind::kDifferential: {
        Status st = GenerateDdColumnEncoded(
            lhs[0], domain, ctx.code_numeric_[lhs[0]], num_rows,
            dep.lhs_epsilon, dep.rhs_delta, rng, batch, target);
        if (!st.ok()) {
          // A DD onto a categorical RHS cannot drive generation; draw
          // the column from its domain instead.
          GenerateRootColumnEncoded(domain, num_rows, rng, batch, target);
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<GenerationOutcome> GenerateSynthetic(
    const MetadataPackage& metadata, size_t num_rows, Rng* rng,
    const GenerationOptions& options) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  METALEAK_ASSIGN_OR_RETURN(GenerationContext ctx,
                            GenerationContext::Build(metadata, options));
  thread_local EncodedBatch batch;
  METALEAK_RETURN_NOT_OK(GenerateEncoded(ctx, num_rows, rng, &batch));
  METALEAK_ASSIGN_OR_RETURN(
      Relation rel, MaterializeRelation(ctx.schema(), ctx.domains(), batch));
  return GenerationOutcome{std::move(rel), ctx.plan()};
}

}  // namespace metaleak
