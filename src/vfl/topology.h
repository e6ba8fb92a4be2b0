// FederationTopology: the paper's two-party exchange generalized to an
// N-party scenario graph.
//
// Nodes are Party objects; directed edges are metadata disclosures, each
// governed by a MetadataPolicy (disclosure level + dependency filter +
// defense transforms). On top of the graph:
//
//   * Align()              — multi-party PSI over all N key columns, the
//                            aligned vertical slices, label extraction,
//                            and one full-level metadata profile per
//                            disclosing party (per-edge policies restrict
//                            that one profile, so a party is profiled
//                            once no matter how many edges it has).
//   * EvaluateUtility()    — N-party vertical LR accuracy of the
//                            federation. A party participates when its
//                            edge to the label holder discloses at least
//                            names+domains; its slice enters training
//                            through the edge policy's data-side
//                            transforms (the utility cost of a defense).
//   * LabelPartyOnlyAccuracy() — the no-federation baseline: the label
//                            holder's features alone.
//   * EvaluateCoalition()  — a set of curious parties pools every
//                            package it received about the victims into
//                            one joint MetadataPackage (union per victim
//                            across edges, disjoint concat across
//                            victims) and reconstructs the union of the
//                            victim slices: single-shot leakage plus an
//                            optional streamed Monte-Carlo summary, both
//                            from one ExperimentEngine.
//   * SweepPolicyPareto()  — re-runs utility + coalition leakage under a
//                            list of candidate policies and marks the
//                            non-dominated (accuracy up, leakage down)
//                            frontier.
//
// The paper's Figure-1 exchange is the 2-node case: one edge from the
// discloser to the label holder, swept over disclosure levels with
// CoalitionSpec::policy_override. A golden snapshot in
// tests/topology_test.cc pins that case bit for bit.
#ifndef METALEAK_VFL_TOPOLOGY_H_
#define METALEAK_VFL_TOPOLOGY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "discovery/discovery_engine.h"
#include "metadata/metadata_package.h"
#include "metadata/metadata_policy.h"
#include "privacy/experiment.h"
#include "privacy/leakage.h"
#include "vfl/logistic_regression.h"
#include "vfl/party.h"
#include "vfl/psi.h"

namespace metaleak {

struct TopologyEdge {
  size_t from = 0;  // discloser
  size_t to = 0;    // receiver
  MetadataPolicy policy;
};

struct TopologyOptions {
  /// Which party holds the 0/1 training label, and in which attribute.
  size_t label_party = 0;
  std::string label_attribute = "loan_default";
  uint64_t psi_salt = 0xA11CE;
  uint64_t attack_seed = 99;
  VflTrainOptions train;
  /// Profiling options for each discloser's full-level package.
  DiscoveryOptions discovery;
  /// Monte-Carlo rounds per coalition evaluation; <= 1 keeps only the
  /// single-shot reconstruction at attack_seed.
  size_t attack_rounds = 1;
  /// Threads + seed for the Monte-Carlo rounds (ExperimentEngine).
  size_t threads = 1;
  uint64_t experiment_seed = 20240001;
  /// Def 2.2/2.3 scoring for the single shot and the Monte-Carlo rounds.
  LeakageOptions leakage;
};

/// An attacker set plus the victims it targets.
struct CoalitionSpec {
  std::vector<size_t> attackers;
  /// Empty = every non-attacker that disclosed to a coalition member.
  std::vector<size_t> victims;
  /// When set, replaces the per-edge policies on every package the
  /// coalition received (the disclosure-level sweep and the Pareto sweep
  /// drive this).
  std::optional<MetadataPolicy> policy_override;
};

/// Everything Align() resolves once per topology run.
struct TopologyAlignment {
  MultiPsiResult psi;
  /// Per party: the key-free slice restricted to the aligned rows.
  std::vector<Relation> aligned;
  std::vector<int> labels;
  /// The label party's aligned slice minus the label column.
  Relation label_features;
  /// Per party: full-level metadata profile (kWithDistributions), present
  /// for parties with at least one outgoing edge.
  std::vector<std::optional<MetadataPackage>> profiles;

  size_t intersection_size() const { return psi.size(); }
};

struct UtilityOutcome {
  double joint_accuracy = 0.0;
  /// Parties whose slices entered joint training (includes label party).
  std::vector<size_t> participants;
};

/// Monte-Carlo Def 2.2/2.3 evaluation of a coalition's joint view
/// against the union of victim slices. The rounds stream through
/// ExperimentEngine's encoded path with per-round seeds, so the summary is
/// identical for any thread count and any recorded round replays in
/// isolation (ExperimentEngine::ReplayRound on kFull).
struct CoalitionLeakageSummary {
  size_t rounds = 0;
  /// Per-attribute streamed means under the full-package method,
  /// including the recorded per-round seeds for replay.
  MethodResult result;
  /// Aggregate Def 2.2/2.3 rates: mean matches summed over the attribute
  /// group divided by the group's compared-row total (0 when the group is
  /// empty).
  double overall_match_rate = 0.0;
  double categorical_match_rate = 0.0;
  double continuous_match_rate = 0.0;
  /// Mean of the per-attribute mean MSEs (continuous attributes only).
  std::optional<double> mean_mse;
  /// Mean over attributes of the info-theoretic estimator's mean
  /// real-vs-generated mutual information (bits). Unset when the
  /// registry omitted the estimator.
  std::optional<double> mean_mi_bits;
};

struct CoalitionOutcome {
  std::vector<size_t> attackers;
  std::vector<size_t> victims;
  /// The coalition's merged view of all victim slices.
  MetadataPackage joint;
  /// Column-concatenation of the victim slices (names disambiguated with
  /// a "party." prefix only when they collide across victims).
  Relation victim_union;
  bool reconstructed = false;
  /// Single-shot reconstruction at TopologyOptions::attack_seed, scored
  /// under TopologyOptions::leakage with the default estimator registry.
  LeakageReport leakage;
  /// Streamed Monte-Carlo summary over every shipped estimator; present
  /// when attack_rounds > 1.
  std::optional<CoalitionLeakageSummary> monte_carlo;
};

class FederationTopology {
 public:
  /// Returns the party's index in the topology.
  size_t AddParty(Party party);

  Status AddEdge(size_t from, size_t to, MetadataPolicy policy);

  size_t num_parties() const { return parties_.size(); }
  const Party& party(size_t i) const { return parties_[i]; }
  const std::vector<TopologyEdge>& edges() const { return edges_; }

  /// PSI + slices + labels + profiles. Fails when the intersection is
  /// empty or the label attribute is missing.
  Result<TopologyAlignment> Align(const TopologyOptions& options) const;

  /// Joint N-party accuracy.
  Result<UtilityOutcome> EvaluateUtility(const TopologyAlignment& alignment,
                                         const TopologyOptions& options) const;

  /// Same, but with `override_policy` governing the training
  /// participation of every party in `override_parties` instead of its
  /// edge to the label holder (the Pareto sweep couples the attacked
  /// policy to its utility cost this way).
  Result<UtilityOutcome> EvaluateUtility(
      const TopologyAlignment& alignment, const TopologyOptions& options,
      const std::vector<size_t>& override_parties,
      const MetadataPolicy& override_policy) const;

  /// Accuracy of the label party trained on its own features alone — the
  /// "no federation" baseline the joint accuracy is compared against.
  Result<double> LabelPartyOnlyAccuracy(const TopologyAlignment& alignment,
                                        const TopologyOptions& options) const;

  /// Coalition reconstruction of the victims' slices from the pooled
  /// received metadata.
  Result<CoalitionOutcome> EvaluateCoalition(
      const TopologyAlignment& alignment, const CoalitionSpec& spec,
      const TopologyOptions& options) const;

 private:
  Result<UtilityOutcome> EvaluateUtilityImpl(
      const TopologyAlignment& alignment, const TopologyOptions& options,
      const std::vector<size_t>& override_parties,
      const MetadataPolicy* override_policy) const;

  std::vector<Party> parties_;
  std::vector<TopologyEdge> edges_;
};

/// One policy point of the utility-vs-leakage trade-off.
struct ParetoPoint {
  std::string policy_name;
  double joint_accuracy = 0.0;
  bool reconstructed = false;
  /// Mean Def 2.2/2.3 match rate over all victim attributes (Monte-Carlo
  /// mean when attack_rounds > 1, single-shot otherwise); 0 when the
  /// policy prevents reconstruction entirely.
  double leakage_rate = 0.0;
  std::optional<double> mean_mse;
  /// Mean over victim attributes of the info-theoretic estimator's
  /// real-vs-generated mutual information (bits); present only when the
  /// point ran Monte-Carlo rounds (attack_rounds > 1) on the encoded
  /// path. Treated as 0 bits by the frontier when absent.
  std::optional<double> mi_leakage_bits;
  /// True when no other point has >= accuracy, <= leakage and
  /// <= MI-leakage with at least one strict.
  bool on_frontier = false;
};

/// Evaluates every policy as the override for `coalition`'s received
/// packages (and as the victims' training policy on the utility side),
/// then marks the Pareto frontier.
Result<std::vector<ParetoPoint>> SweepPolicyPareto(
    const FederationTopology& topology, const TopologyOptions& options,
    const CoalitionSpec& coalition,
    const std::vector<MetadataPolicy>& policies);

/// Marks `on_frontier` on the non-dominated points (accuracy maximized,
/// match-rate leakage and MI leakage minimized — absent MI counts as 0
/// bits). Ties survive: only strict domination removes a point.
void MarkParetoFrontier(std::vector<ParetoPoint>* points);

}  // namespace metaleak

#endif  // METALEAK_VFL_TOPOLOGY_H_
