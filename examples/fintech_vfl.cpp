// The paper's Figure 1 scenario end to end: a bank and an e-commerce
// company run vertical federated learning on a shared customer
// population — PSI alignment, metadata exchange, joint training — and we
// measure what the metadata alone lets the bank reconstruct.
//
// The second half generalizes to an N-party federation: bank + telco +
// insurer, with a colluding bank+telco pair and a defended insurer edge,
// swept over candidate policies into a utility-vs-leakage Pareto table.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/datasets/fintech.h"
#include "privacy/experiment.h"
#include "vfl/psi.h"
#include "vfl/topology.h"

using namespace metaleak;  // Example code; library code never does this.

int main() {
  // Two parties observe overlapping customers, disjoint features.
  datasets::FintechOptions data_options;
  data_options.population = 800;
  datasets::FintechScenario data = datasets::Fintech(data_options);
  Party bank("bank", data.bank, "customer_id");
  Party ecommerce("ecommerce", data.ecommerce, "customer_id");

  std::printf("Party A (bank):       %zu customers x %zu attributes\n",
              bank.data().num_rows(), bank.data().num_columns());
  std::printf("Party B (e-commerce): %zu customers x %zu attributes\n\n",
              ecommerce.data().num_rows(), ecommerce.data().num_columns());

  // What does party B actually put on the wire at full disclosure?
  Result<MetadataPackage> shared =
      ecommerce.ShareMetadata(DisclosureLevel::kWithRfds);
  if (!shared.ok()) {
    std::fprintf(stderr, "metadata exchange failed: %s\n",
                 shared.status().ToString().c_str());
    return 1;
  }
  std::printf("== Metadata party B sends to party A ==\n%s\n",
              shared->Serialize().c_str());

  // Full pipeline: PSI -> exchange -> train -> attack, as a 2-node
  // federation: the e-commerce company discloses to the bank, which holds
  // the label.
  FederationTopology pair;
  const size_t bank_node = pair.AddParty(bank);
  const size_t ecommerce_node = pair.AddParty(ecommerce);
  if (!pair.AddEdge(ecommerce_node, bank_node,
                    MetadataPolicy::AtLevel(DisclosureLevel::kWithRfds))
           .ok()) {
    std::fprintf(stderr, "topology construction failed\n");
    return 1;
  }
  TopologyOptions options;
  options.label_party = bank_node;
  options.train.epochs = 250;
  Result<TopologyAlignment> pair_alignment = pair.Align(options);
  if (!pair_alignment.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 pair_alignment.status().ToString().c_str());
    return 1;
  }
  Result<UtilityOutcome> utility =
      pair.EvaluateUtility(*pair_alignment, options);
  Result<double> bank_only =
      pair.LabelPartyOnlyAccuracy(*pair_alignment, options);
  if (!utility.ok() || !bank_only.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 (utility.ok() ? bank_only.status() : utility.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  std::printf("== Pipeline results ==\n");
  std::printf("PSI aligned %zu customers without exchanging raw ids.\n",
              pair_alignment->intersection_size());
  std::printf("Bank-only accuracy: %s; joint VFL accuracy: %s.\n\n",
              FormatDouble(*bank_only, 4).c_str(),
              FormatDouble(utility->joint_accuracy, 4).c_str());

  // The bank attacks B's slice once per disclosure level: the edge's
  // policy is overridden level by level.
  TablePrinter table("Bank's reconstruction of B's slice, per disclosure");
  table.SetHeader({"Level", "Attribute", "Match rate", "MSE"});
  for (DisclosureLevel level :
       {DisclosureLevel::kNames, DisclosureLevel::kNamesAndDomains,
        DisclosureLevel::kWithFds, DisclosureLevel::kWithRfds}) {
    CoalitionSpec spec;
    spec.attackers = {bank_node};
    spec.policy_override = MetadataPolicy::AtLevel(level);
    Result<CoalitionOutcome> attack =
        pair.EvaluateCoalition(*pair_alignment, spec, options);
    if (!attack.ok()) {
      std::fprintf(stderr, "attack failed: %s\n",
                   attack.status().ToString().c_str());
      return 1;
    }
    if (!attack->reconstructed) {
      table.AddRow({DisclosureLevelToString(level), "(not reconstructable)",
                    "-", "-"});
      continue;
    }
    for (const AttributeLeakage& a : attack->leakage.attributes) {
      table.AddRow({DisclosureLevelToString(level), a.name,
                    FormatDouble(a.match_rate, 4),
                    a.mse.has_value() ? FormatDouble(*a.mse, 1) : "-"});
    }
  }
  table.Print();

  // The single-shot sweep above is one generation draw per level. The
  // bank's real attack averages over many rounds: align B's features
  // once, hand relation + metadata to the streaming ExperimentEngine
  // (rounds run on the encoded code path, per-round stats folded into
  // Welford accumulators — no per-round Relation), and read the
  // per-attribute means.
  Result<std::vector<PsiToken>> tokens_a = bank.PsiTokens(/*salt=*/11);
  Result<std::vector<PsiToken>> tokens_b = ecommerce.PsiTokens(11);
  if (!tokens_a.ok() || !tokens_b.ok()) return 1;
  Result<MultiPsiResult> psi = IntersectAllTokens({*tokens_a, *tokens_b});
  if (!psi.ok()) return 1;
  Result<Relation> aligned_b = ecommerce.AlignedFeatures(psi->rows[1]);
  if (!aligned_b.ok()) return 1;

  ExperimentConfig config;
  config.rounds = 300;
  config.threads = 0;  // use all cores
  ExperimentEngine engine(*aligned_b, *shared);
  Result<std::vector<MethodResult>> monte_carlo = engine.RunAll(
      {GenerationMethod::kRandom, GenerationMethod::kFd}, config);
  if (!monte_carlo.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 monte_carlo.status().ToString().c_str());
    return 1;
  }
  TablePrinter rounds_table(
      "Monte-Carlo attack on B's slice (300 rounds, full disclosure)");
  rounds_table.SetHeader(
      {"Method", "Attribute", "Mean matches", "Stddev", "Mean MSE"});
  for (const MethodResult& method : *monte_carlo) {
    for (const MethodAttributeResult& a : method.attributes) {
      if (!a.covered) continue;
      rounds_table.AddRow(
          {GenerationMethodToString(method.method), a.name,
           FormatDouble(a.mean_matches, 2),
           FormatDouble(a.stddev_matches, 2),
           a.mean_mse.has_value() ? FormatDouble(*a.mean_mse, 1) : "-"});
    }
  }
  rounds_table.Print();

  std::printf(
      "\nTakeaway: domains enable reconstruction; FDs/RFDs on top do not\n"
      "increase it — so share names and dependencies, withhold domains\n"
      "when possible (paper Section VI).\n\n");

  // === N-party federation: bank + telco + insurer =======================
  //
  // The bank holds the label. Telco discloses to the bank at full level;
  // the insurer defends its edge with domain generalization. Bank and
  // telco collude: they pool the packages the insurer sent them.
  datasets::FintechFederationOptions fed_options;
  fed_options.population = 800;
  datasets::FintechFederationScenario fed =
      datasets::FintechFederation(fed_options);

  FederationTopology topo;
  size_t bank_idx = topo.AddParty(Party("bank", fed.bank, "customer_id"));
  size_t telco_idx = topo.AddParty(Party("telco", fed.telco, "customer_id"));
  size_t insurer_idx =
      topo.AddParty(Party("insurer", fed.insurer, "customer_id"));

  MetadataPolicy defended = MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "generalized");
  defended.transforms = {MetadataTransform::GeneralizeDomains(
      /*widen_fraction=*/1.0, /*pad_values=*/16, /*quantize_buckets=*/6)};

  if (!topo.AddEdge(telco_idx, bank_idx, MetadataPolicy::FullDisclosure())
           .ok() ||
      !topo.AddEdge(insurer_idx, bank_idx, defended).ok() ||
      !topo.AddEdge(insurer_idx, telco_idx, defended).ok()) {
    std::fprintf(stderr, "topology construction failed\n");
    return 1;
  }

  TopologyOptions topo_options;
  topo_options.label_party = bank_idx;
  topo_options.train.epochs = 120;
  topo_options.attack_rounds = 50;

  Result<TopologyAlignment> alignment = topo.Align(topo_options);
  if (!alignment.ok()) {
    std::fprintf(stderr, "alignment failed: %s\n",
                 alignment.status().ToString().c_str());
    return 1;
  }
  std::printf("== 3-party federation (bank + telco + insurer) ==\n");
  std::printf("PSI aligned %zu customers across all three parties.\n",
              alignment->intersection_size());

  // The colluding pair merges both defended packages it received from the
  // insurer and attacks the insurer's slice.
  CoalitionSpec coalition;
  coalition.attackers = {bank_idx, telco_idx};
  Result<CoalitionOutcome> attack =
      topo.EvaluateCoalition(*alignment, coalition, topo_options);
  if (!attack.ok()) {
    std::fprintf(stderr, "coalition failed: %s\n",
                 attack.status().ToString().c_str());
    return 1;
  }
  std::printf("bank+telco coalition vs insurer (defended edges): ");
  if (attack->monte_carlo.has_value()) {
    std::printf("match rate %s over %zu rounds\n\n",
                FormatDouble(attack->monte_carlo->overall_match_rate, 4)
                    .c_str(),
                attack->monte_carlo->rounds);
  } else {
    std::printf("reconstructed=%s\n\n",
                attack->reconstructed ? "yes" : "no");
  }

  // Sweep candidate policies for the insurer's edges: how much utility
  // does each defense cost, and how much leakage does it remove?
  std::vector<MetadataPolicy> policies;
  policies.push_back(MetadataPolicy::FullDisclosure());
  policies.push_back(MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "domains-only"));
  policies.push_back(defended);
  policies.push_back(
      MetadataPolicy::AtLevel(DisclosureLevel::kNames, "names-only"));

  Result<std::vector<ParetoPoint>> pareto =
      SweepPolicyPareto(topo, topo_options, coalition, policies);
  if (!pareto.ok()) {
    std::fprintf(stderr, "pareto sweep failed: %s\n",
                 pareto.status().ToString().c_str());
    return 1;
  }
  TablePrinter pareto_table(
      "Insurer's policy trade-off vs the bank+telco coalition");
  pareto_table.SetHeader(
      {"Policy", "Joint accuracy", "Leakage rate", "Frontier"});
  for (const ParetoPoint& p : *pareto) {
    pareto_table.AddRow({p.policy_name, FormatDouble(p.joint_accuracy, 4),
                         p.reconstructed ? FormatDouble(p.leakage_rate, 4)
                                         : "0 (no recon)",
                         p.on_frontier ? "*" : ""});
  }
  pareto_table.Print();
  std::printf(
      "\nTakeaway: defenses trace a frontier — domain generalization cuts\n"
      "coalition leakage at a small accuracy cost; names-only removes the\n"
      "leakage entirely but forfeits the insurer's training signal.\n");
  return 0;
}
