#include "vfl/topology.h"

#include <algorithm>
#include <utility>

namespace metaleak {

namespace {

bool ContainsIndex(const std::vector<size_t>& sorted, size_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

std::vector<size_t> SortedUnique(std::vector<size_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

// Aggregate Def 2.2/2.3 rate of one single-shot report: matches over
// compared rows across every attribute.
double ReportMatchRate(const LeakageReport& report) {
  double matches = 0.0, rows = 0.0;
  for (const AttributeLeakage& a : report.attributes) {
    matches += static_cast<double>(a.matches);
    rows += static_cast<double>(a.rows_compared);
  }
  return rows > 0.0 ? matches / rows : 0.0;
}

std::optional<double> ReportMeanMse(const LeakageReport& report) {
  double sum = 0.0;
  size_t count = 0;
  for (const AttributeLeakage& a : report.attributes) {
    if (a.mse.has_value()) {
      sum += *a.mse;
      ++count;
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

// Folds a full-package Monte-Carlo run into the coalition summary.
CoalitionLeakageSummary SummarizeCoalitionRounds(MethodResult result) {
  CoalitionLeakageSummary summary;
  summary.rounds = result.round_seeds.size();
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

}  // namespace

size_t FederationTopology::AddParty(Party party) {
  parties_.push_back(std::move(party));
  return parties_.size() - 1;
}

Status FederationTopology::AddEdge(size_t from, size_t to,
                                   MetadataPolicy policy) {
  if (from >= parties_.size() || to >= parties_.size()) {
    return Status::Invalid("edge endpoint out of range");
  }
  if (from == to) {
    return Status::Invalid("a party does not disclose metadata to itself");
  }
  edges_.push_back(TopologyEdge{from, to, std::move(policy)});
  return Status::OK();
}

Result<TopologyAlignment> FederationTopology::Align(
    const TopologyOptions& options) const {
  if (parties_.size() < 2) {
    return Status::Invalid("a federation needs at least two parties");
  }
  if (options.label_party >= parties_.size()) {
    return Status::Invalid("label_party out of range");
  }

  TopologyAlignment out;

  // 1) Multi-party PSI alignment on hashed identifier tokens.
  std::vector<std::vector<PsiToken>> streams;
  streams.reserve(parties_.size());
  for (const Party& party : parties_) {
    METALEAK_ASSIGN_OR_RETURN(std::vector<PsiToken> tokens,
                              party.PsiTokens(options.psi_salt));
    streams.push_back(std::move(tokens));
  }
  METALEAK_ASSIGN_OR_RETURN(out.psi, IntersectAllTokens(streams));
  if (out.psi.size() == 0) {
    return Status::Invalid("PSI intersection is empty");
  }

  // 2) Aligned vertical slices.
  out.aligned.reserve(parties_.size());
  for (size_t p = 0; p < parties_.size(); ++p) {
    METALEAK_ASSIGN_OR_RETURN(Relation slice,
                              parties_[p].AlignedFeatures(out.psi.rows[p]));
    out.aligned.push_back(std::move(slice));
  }

  // 3) Labels from the label party's slice; its training features drop
  //    the label column.
  const Relation& label_slice = out.aligned[options.label_party];
  METALEAK_ASSIGN_OR_RETURN(
      size_t label_col,
      label_slice.schema().RequireIndex(options.label_attribute));
  out.labels.reserve(label_slice.num_rows());
  for (size_t r = 0; r < label_slice.num_rows(); ++r) {
    const Value& v = label_slice.at(r, label_col);
    out.labels.push_back(
        !v.is_null() && v.is_numeric() && v.AsNumeric() >= 0.5 ? 1 : 0);
  }
  std::vector<size_t> feature_cols;
  for (size_t c = 0; c < label_slice.num_columns(); ++c) {
    if (c != label_col) feature_cols.push_back(c);
  }
  out.label_features = label_slice.Project(feature_cols);

  // 4) One full-level profile per disclosing party; every edge policy
  //    restricts this single package.
  out.profiles.assign(parties_.size(), std::nullopt);
  for (const TopologyEdge& edge : edges_) {
    if (out.profiles[edge.from].has_value()) continue;
    METALEAK_ASSIGN_OR_RETURN(
        MetadataPackage profile,
        parties_[edge.from].ShareMetadata(
            DisclosureLevel::kWithDistributions, options.discovery));
    out.profiles[edge.from] = std::move(profile);
  }
  return out;
}

Result<UtilityOutcome> FederationTopology::EvaluateUtilityImpl(
    const TopologyAlignment& alignment, const TopologyOptions& options,
    const std::vector<size_t>& override_parties,
    const MetadataPolicy* override_policy) const {
  const std::vector<size_t> overridden = SortedUnique(override_parties);

  UtilityOutcome out;
  // Transformed slices are materialized first so the pointer list handed
  // to the trainer stays stable.
  std::vector<Relation> transformed;
  std::vector<size_t> participants;
  transformed.reserve(parties_.size());
  for (size_t p = 0; p < parties_.size(); ++p) {
    if (p == options.label_party) {
      participants.push_back(p);
      transformed.push_back(alignment.label_features);
      continue;
    }
    const MetadataPolicy* policy = nullptr;
    if (override_policy != nullptr && ContainsIndex(overridden, p)) {
      policy = override_policy;
    } else {
      for (const TopologyEdge& edge : edges_) {
        if (edge.from == p && edge.to == options.label_party) {
          policy = &edge.policy;
          break;
        }
      }
    }
    // No disclosure channel to the label holder (or one below
    // names+domains) keeps the party out of joint training.
    if (policy == nullptr || !policy->AllowsTraining()) continue;
    METALEAK_ASSIGN_OR_RETURN(Relation slice,
                              policy->ApplyToSlice(alignment.aligned[p]));
    participants.push_back(p);
    transformed.push_back(std::move(slice));
  }

  std::vector<const Relation*> slices;
  slices.reserve(transformed.size());
  for (const Relation& slice : transformed) slices.push_back(&slice);

  METALEAK_ASSIGN_OR_RETURN(
      VflModelN joint,
      TrainVerticalLogisticRegressionN(slices, alignment.labels,
                                       options.train));
  METALEAK_ASSIGN_OR_RETURN(out.joint_accuracy,
                            AccuracyN(joint, slices, alignment.labels));

  out.participants = std::move(participants);
  return out;
}

Result<UtilityOutcome> FederationTopology::EvaluateUtility(
    const TopologyAlignment& alignment,
    const TopologyOptions& options) const {
  return EvaluateUtilityImpl(alignment, options, {}, nullptr);
}

Result<UtilityOutcome> FederationTopology::EvaluateUtility(
    const TopologyAlignment& alignment, const TopologyOptions& options,
    const std::vector<size_t>& override_parties,
    const MetadataPolicy& override_policy) const {
  return EvaluateUtilityImpl(alignment, options, override_parties,
                             &override_policy);
}

Result<double> FederationTopology::LabelPartyOnlyAccuracy(
    const TopologyAlignment& alignment,
    const TopologyOptions& options) const {
  // The trainer wants row-aligned slices, so the counterpart is a single
  // constant column that encodes to nothing informative.
  Schema const_schema(
      {{"__const", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<std::vector<Value>> const_col(1);
  const_col[0].assign(alignment.label_features.num_rows(), Value::Int(0));
  METALEAK_ASSIGN_OR_RETURN(
      Relation const_b, Relation::Make(const_schema, std::move(const_col)));
  std::vector<const Relation*> solo_slices = {&alignment.label_features,
                                              &const_b};
  METALEAK_ASSIGN_OR_RETURN(
      VflModelN solo,
      TrainVerticalLogisticRegressionN(solo_slices, alignment.labels,
                                       options.train));
  return AccuracyN(solo, solo_slices, alignment.labels);
}

Result<CoalitionOutcome> FederationTopology::EvaluateCoalition(
    const TopologyAlignment& alignment, const CoalitionSpec& spec,
    const TopologyOptions& options) const {
  if (spec.attackers.empty()) {
    return Status::Invalid("coalition needs at least one attacker");
  }
  const std::vector<size_t> attackers = SortedUnique(spec.attackers);
  for (size_t a : attackers) {
    if (a >= parties_.size()) {
      return Status::Invalid("attacker index out of range");
    }
  }

  // Victims: explicit, or every non-attacker that disclosed to a
  // coalition member.
  std::vector<size_t> victims;
  if (!spec.victims.empty()) {
    victims = SortedUnique(spec.victims);
    for (size_t v : victims) {
      if (v >= parties_.size()) {
        return Status::Invalid("victim index out of range");
      }
      if (ContainsIndex(attackers, v)) {
        return Status::Invalid("a coalition member cannot be its own victim");
      }
    }
  } else {
    for (const TopologyEdge& edge : edges_) {
      if (ContainsIndex(attackers, edge.to) &&
          !ContainsIndex(attackers, edge.from)) {
        victims.push_back(edge.from);
      }
    }
    victims = SortedUnique(victims);
    if (victims.empty()) {
      return Status::Invalid("the coalition received no metadata");
    }
  }

  // One merged package per victim: every edge from the victim into the
  // coalition contributes its (possibly overridden) policy view of the
  // victim's single full-level profile.
  std::vector<MetadataPackage> victim_packages;
  victim_packages.reserve(victims.size());
  for (size_t v : victims) {
    std::vector<MetadataPackage> views;
    for (const TopologyEdge& edge : edges_) {
      if (edge.from != v || !ContainsIndex(attackers, edge.to)) continue;
      const MetadataPolicy& policy = spec.policy_override.has_value()
                                         ? *spec.policy_override
                                         : edge.policy;
      if (!alignment.profiles[v].has_value()) {
        return Status::Invalid("party " + parties_[v].name() +
                               " was not profiled at alignment time");
      }
      METALEAK_ASSIGN_OR_RETURN(MetadataPackage view,
                                policy.Apply(*alignment.profiles[v]));
      views.push_back(std::move(view));
    }
    if (views.empty()) {
      return Status::Invalid("the coalition received no metadata from " +
                             parties_[v].name());
    }
    std::vector<const MetadataPackage*> view_ptrs;
    view_ptrs.reserve(views.size());
    for (const MetadataPackage& view : views) view_ptrs.push_back(&view);
    METALEAK_ASSIGN_OR_RETURN(MetadataPackage merged,
                              UnionPackageViews(view_ptrs));
    victim_packages.push_back(std::move(merged));
  }

  CoalitionOutcome outcome;
  outcome.attackers = attackers;
  outcome.victims = victims;

  if (victims.size() == 1) {
    // The single-victim case keeps the package and the slice exactly as
    // received — this is the path the Figure-1 golden test pins down.
    outcome.joint = std::move(victim_packages[0]);
    outcome.victim_union = alignment.aligned[victims[0]];
  } else {
    // Attribute names may repeat across victims (two banks both holding
    // "income"); prefix with the party name only when they do, so the
    // common disjoint case stays untouched.
    bool collision = false;
    {
      std::vector<std::string> names;
      for (const MetadataPackage& pkg : victim_packages) {
        for (const Attribute& a : pkg.schema.attributes()) {
          names.push_back(a.name);
        }
      }
      std::sort(names.begin(), names.end());
      collision =
          std::adjacent_find(names.begin(), names.end()) != names.end();
    }

    std::vector<Attribute> union_attrs;
    std::vector<std::vector<Value>> union_columns;
    for (size_t i = 0; i < victims.size(); ++i) {
      const size_t v = victims[i];
      const Relation& slice = alignment.aligned[v];
      std::vector<Attribute> attrs = victim_packages[i].schema.attributes();
      if (collision) {
        for (Attribute& a : attrs) {
          a.name = parties_[v].name() + "." + a.name;
        }
        victim_packages[i].schema = Schema(attrs);
      }
      for (size_t c = 0; c < slice.num_columns(); ++c) {
        union_attrs.push_back(attrs[c]);
        union_columns.push_back(slice.column(c));
      }
    }
    std::vector<const MetadataPackage*> part_ptrs;
    part_ptrs.reserve(victim_packages.size());
    for (const MetadataPackage& pkg : victim_packages) {
      part_ptrs.push_back(&pkg);
    }
    METALEAK_ASSIGN_OR_RETURN(outcome.joint,
                              ConcatDisjointPackages(part_ptrs));
    METALEAK_ASSIGN_OR_RETURN(
        outcome.victim_union,
        Relation::Make(Schema(std::move(union_attrs)),
                       std::move(union_columns)));
  }

  if (!outcome.joint.HasAllDomains()) {
    // Names alone give the coalition nothing to sample from.
    outcome.reconstructed = false;
    return outcome;
  }
  // One encoding of the victim union and one engine serve the single shot
  // and the Monte-Carlo rounds alike.
  ExperimentEngine engine(outcome.victim_union, outcome.joint);
  ExperimentConfig config;
  config.rounds = options.attack_rounds;
  config.seed = options.experiment_seed;
  config.leakage = options.leakage;
  config.threads = options.threads;
  METALEAK_ASSIGN_OR_RETURN(
      outcome.leakage,
      engine.ReplayRound(GenerationMethod::kFull, options.attack_seed,
                         config));
  outcome.reconstructed = true;

  if (options.attack_rounds > 1) {
    // The rounds score every shipped estimator. Estimators draw no
    // randomness, so the wider registry leaves the match/MSE statistics
    // as the default registry would give them.
    config.estimators = &RiskEstimatorRegistry::All();
    METALEAK_ASSIGN_OR_RETURN(MethodResult result,
                              engine.Run(GenerationMethod::kFull, config));
    outcome.monte_carlo = SummarizeCoalitionRounds(std::move(result));
  }
  return outcome;
}

Result<std::vector<ParetoPoint>> SweepPolicyPareto(
    const FederationTopology& topology, const TopologyOptions& options,
    const CoalitionSpec& coalition,
    const std::vector<MetadataPolicy>& policies) {
  METALEAK_ASSIGN_OR_RETURN(TopologyAlignment alignment,
                            topology.Align(options));
  std::vector<ParetoPoint> points;
  points.reserve(policies.size());
  for (const MetadataPolicy& policy : policies) {
    CoalitionSpec spec = coalition;
    spec.policy_override = policy;
    METALEAK_ASSIGN_OR_RETURN(
        CoalitionOutcome attack,
        topology.EvaluateCoalition(alignment, spec, options));
    METALEAK_ASSIGN_OR_RETURN(
        UtilityOutcome utility,
        topology.EvaluateUtility(alignment, options, attack.victims,
                                 policy));
    ParetoPoint point;
    point.policy_name = policy.name;
    point.joint_accuracy = utility.joint_accuracy;
    point.reconstructed = attack.reconstructed;
    if (attack.reconstructed) {
      if (attack.monte_carlo.has_value()) {
        point.leakage_rate = attack.monte_carlo->overall_match_rate;
        point.mean_mse = attack.monte_carlo->mean_mse;
        point.mi_leakage_bits = attack.monte_carlo->mean_mi_bits;
      } else {
        point.leakage_rate = ReportMatchRate(attack.leakage);
        point.mean_mse = ReportMeanMse(attack.leakage);
      }
    }
    points.push_back(std::move(point));
  }
  MarkParetoFrontier(&points);
  return points;
}

void MarkParetoFrontier(std::vector<ParetoPoint>* points) {
  for (size_t i = 0; i < points->size(); ++i) {
    ParetoPoint& p = (*points)[i];
    p.on_frontier = true;
    for (size_t j = 0; j < points->size() && p.on_frontier; ++j) {
      if (j == i) continue;
      const ParetoPoint& q = (*points)[j];
      const double p_mi = p.mi_leakage_bits.value_or(0.0);
      const double q_mi = q.mi_leakage_bits.value_or(0.0);
      const bool weakly_better = q.joint_accuracy >= p.joint_accuracy &&
                                 q.leakage_rate <= p.leakage_rate &&
                                 q_mi <= p_mi;
      const bool strictly_better = q.joint_accuracy > p.joint_accuracy ||
                                   q.leakage_rate < p.leakage_rate ||
                                   q_mi < p_mi;
      if (weakly_better && strictly_better) p.on_frontier = false;
    }
  }
}

}  // namespace metaleak
