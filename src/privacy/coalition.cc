#include "privacy/coalition.h"

#include <utility>

namespace metaleak {

Result<CoalitionLeakageSummary> EvaluateCoalitionLeakage(
    const MetadataPackage& joint, const Relation& victim_union,
    const ExperimentConfig& config) {
  if (!joint.HasAllDomains()) {
    return Status::Invalid(
        "coalition view lacks domains; reconstruction is impossible");
  }
  ExperimentEngine engine(victim_union, joint);
  // Coalition scoring runs every shipped estimator unless the caller
  // pinned a registry. Estimators draw no randomness, so the match/MSE
  // statistics (and the topology parity gates built on them) are
  // unchanged by the wider registry.
  ExperimentConfig run_config = config;
  if (run_config.estimators == nullptr) {
    run_config.estimators = &RiskEstimatorRegistry::All();
  }
  METALEAK_ASSIGN_OR_RETURN(MethodResult result,
                            engine.Run(GenerationMethod::kFull, run_config));

  CoalitionLeakageSummary summary;
  summary.rounds = config.rounds;
  double cat_matches = 0.0, cat_rows = 0.0;
  double cont_matches = 0.0, cont_rows = 0.0;
  double mse_sum = 0.0;
  size_t mse_count = 0;
  for (const MethodAttributeResult& a : result.attributes) {
    const double rows = static_cast<double>(a.rows_compared);
    if (a.semantic == SemanticType::kCategorical) {
      cat_matches += a.mean_matches;
      cat_rows += rows;
    } else {
      cont_matches += a.mean_matches;
      cont_rows += rows;
      if (a.mean_mse.has_value()) {
        mse_sum += *a.mean_mse;
        ++mse_count;
      }
    }
  }
  summary.categorical_match_rate =
      cat_rows > 0.0 ? cat_matches / cat_rows : 0.0;
  summary.continuous_match_rate =
      cont_rows > 0.0 ? cont_matches / cont_rows : 0.0;
  const double all_rows = cat_rows + cont_rows;
  summary.overall_match_rate =
      all_rows > 0.0 ? (cat_matches + cont_matches) / all_rows : 0.0;
  if (mse_count > 0) {
    summary.mean_mse = mse_sum / static_cast<double>(mse_count);
  }
  Result<RiskMeasureStats> mi = result.ForMeasure(
      InfoTheoreticEstimator::Instance().name(), "mi_bits");
  if (mi.ok()) {
    double mi_sum = 0.0;
    size_t mi_count = 0;
    for (size_t c = 0; c < mi->mean.size(); ++c) {
      if (mi->rounds[c] > 0) {
        mi_sum += mi->mean[c];
        ++mi_count;
      }
    }
    if (mi_count > 0) {
      summary.mean_mi_bits = mi_sum / static_cast<double>(mi_count);
    }
  }
  summary.result = std::move(result);
  return summary;
}

Result<LeakageReport> ReplayCoalitionRound(const MetadataPackage& joint,
                                           const Relation& victim_union,
                                           uint64_t round_seed,
                                           const ExperimentConfig& config) {
  if (!joint.HasAllDomains()) {
    return Status::Invalid(
        "coalition view lacks domains; reconstruction is impossible");
  }
  ExperimentEngine engine(victim_union, joint);
  return engine.ReplayRound(GenerationMethod::kFull, round_seed, config);
}

}  // namespace metaleak
