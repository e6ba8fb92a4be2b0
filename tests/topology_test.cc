// Tests for src/vfl/topology.h: multi-party PSI, the N-party trainer, the
// federation topology, coalition adversaries and the policy Pareto sweep.
//
// The golden snapshot here pins the paper's Figure-1 exchange, run as a
// 2-node topology, bit for bit at 1 and 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/parallel.h"
#include "common/string_util.h"
#include "data/datasets/fintech.h"
#include "privacy/experiment.h"
#include "vfl/logistic_regression.h"
#include "vfl/party.h"
#include "vfl/psi.h"
#include "vfl/topology.h"

namespace metaleak {
namespace {

std::vector<Value> Ids(std::initializer_list<int64_t> xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value::Int(x));
  return out;
}

void ExpectReportsBitIdentical(const LeakageReport& a,
                               const LeakageReport& b) {
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (size_t i = 0; i < a.attributes.size(); ++i) {
    const AttributeLeakage& x = a.attributes[i];
    const AttributeLeakage& y = b.attributes[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.rows_compared, y.rows_compared);
    EXPECT_EQ(x.matches, y.matches);
    EXPECT_EQ(x.match_rate, y.match_rate);  // exact double equality
    EXPECT_EQ(x.mse.has_value(), y.mse.has_value());
    if (x.mse.has_value() && y.mse.has_value()) {
      EXPECT_EQ(*x.mse, *y.mse);
    }
  }
}

// --- Multi-party PSI ----------------------------------------------------------

TEST(MultiPsiTest, ThreePartyIntersection) {
  auto a = DerivePsiTokens(Ids({1, 2, 3, 4, 5}), 42);
  auto b = DerivePsiTokens(Ids({9, 3, 5, 1}), 42);
  auto c = DerivePsiTokens(Ids({5, 1, 7}), 42);
  auto psi = IntersectAllTokens({a, b, c});
  ASSERT_TRUE(psi.ok());
  EXPECT_EQ(psi->num_parties(), 3u);
  ASSERT_EQ(psi->size(), 2u);  // {1, 5}
  std::vector<Value> ids_a = Ids({1, 2, 3, 4, 5});
  std::vector<Value> ids_b = Ids({9, 3, 5, 1});
  std::vector<Value> ids_c = Ids({5, 1, 7});
  for (size_t i = 0; i < psi->size(); ++i) {
    EXPECT_EQ(ids_a[psi->rows[0][i]], ids_b[psi->rows[1][i]]);
    EXPECT_EQ(ids_b[psi->rows[1][i]], ids_c[psi->rows[2][i]]);
  }
}

TEST(MultiPsiTest, CanonicalOrderAcrossPartyPermutation) {
  auto a = DerivePsiTokens(Ids({3, 1, 2}), 5);
  auto b = DerivePsiTokens(Ids({2, 3, 1}), 5);
  auto c = DerivePsiTokens(Ids({1, 2, 3}), 5);
  auto abc = IntersectAllTokens({a, b, c});
  auto cba = IntersectAllTokens({c, b, a});
  ASSERT_TRUE(abc.ok() && cba.ok());
  ASSERT_EQ(abc->size(), 3u);
  // Same canonical (token-ascending) entity order regardless of which
  // party comes first.
  EXPECT_EQ(abc->rows[0], cba->rows[2]);
  EXPECT_EQ(abc->rows[2], cba->rows[0]);
}

TEST(MultiPsiTest, DuplicatesKeepFirstOccurrence) {
  auto a = DerivePsiTokens(Ids({7, 7, 8}), 42);
  auto b = DerivePsiTokens(Ids({7, 9, 7}), 42);
  auto c = DerivePsiTokens(Ids({6, 7}), 42);
  auto psi = IntersectAllTokens({a, b, c});
  ASSERT_TRUE(psi.ok());
  ASSERT_EQ(psi->size(), 1u);
  EXPECT_EQ(psi->rows[0][0], 0u);
  EXPECT_EQ(psi->rows[1][0], 0u);
  EXPECT_EQ(psi->rows[2][0], 1u);
}

// --- Figure-1 golden snapshot ----------------------------------------------
//
// The paper's Figure-1 exchange as a 2-node federation: datasets::Fintech()
// with the e-commerce company disclosing to the bank (the label holder),
// 60 training epochs, one single-shot attack per disclosure level, and the
// full level's Monte-Carlo summary at 6 rounds. The PSI, accuracy and
// per-level lines were captured from the two-party pipeline this topology
// replaced (itself held bitwise to the original orchestration), the "mc"
// lines from the topology of the same commit. Doubles print as %a, so
// equal lines mean equal bits. One line per value: `kind|key|fields`.
constexpr const char* kGoldenFigureOne = R"GOLDEN(
psi|397
accuracy|joint|0x1.79dfc21880f7ap-1
accuracy|bank_only|0x1.70d8aa3c9d571p-1
level|names|not_reconstructed
level|names+domains|reconstructed
leak|names+domains|orders_per_year|8|397|0x1.4a27fad76014ap-6|0x1.27ffd82b7d07p+10
leak|names+domains|total_spend|6|397|0x1.ef3bf843101efp-7|0x1.358f131330677p+20
leak|names+domains|favorite_category|79|397|0x1.978959a1da998p-3|-
leak|names+domains|returns_rate|12|397|0x1.ef3bf843101efp-6|0x1.8b2e3b4483185p-6
level|names+domains+FDs|reconstructed
leak|names+domains+FDs|orders_per_year|6|397|0x1.ef3bf843101efp-7|0x1.20243a0c5b9ecp+10
leak|names+domains+FDs|total_spend|7|397|0x1.20e2fb7c74121p-6|0x1.1984fa06200ddp+20
leak|names+domains+FDs|favorite_category|92|397|0x1.da9978959a1dbp-3|-
leak|names+domains+FDs|returns_rate|6|397|0x1.ef3bf843101efp-7|0x1.9c32bde261c66p-6
level|names+domains+FDs+RFDs|reconstructed
leak|names+domains+FDs+RFDs|orders_per_year|6|397|0x1.ef3bf843101efp-7|0x1.02c415cbe9c48p+10
leak|names+domains+FDs+RFDs|total_spend|6|397|0x1.ef3bf843101efp-7|0x1.58b35671489abp+20
leak|names+domains+FDs+RFDs|favorite_category|92|397|0x1.da9978959a1dbp-3|-
leak|names+domains+FDs+RFDs|returns_rate|11|397|0x1.c5f6f8e8241c6p-6|0x1.89b1284d0da6fp-6
mc|rounds|6
mc|overall_match_rate|0x1.f61ccd7ce21f7p-5
mc|categorical_match_rate|0x1.83c2f49b9ed84p-3
mc|continuous_match_rate|0x1.30ef97ae08bdbp-6
mc|mean_mse|0x1.9a82073c968b4p+18
mc|mean_mi_bits|0x1.2246b613f526p+1
mc|round_seed|15581465423344241132
mc|round_seed|372893738985696990
mc|round_seed|9985461264460350967
mc|round_seed|9966128675219320386
mc|round_seed|15716695499719318954
mc|round_seed|17139344667987386263
mc_attr|orders_per_year|397|0x1.ep+2|0x1.5e8add236a58fp+1|0x1.038a8dde66f9dp+10
mc_attr|total_spend|397|0x1.7555555555555p+2|0x1.b8ef4cbc3f1eap+0|0x1.33a0a25ebeb16p+20
mc_attr|favorite_category|397|0x1.2caaaaaaaaaabp+6|0x1.e81bf99a3f26dp+2|-
mc_attr|returns_rate|397|0x1.1aaaaaaaaaaaap+3|0x1.3801c01abff5ap+2|0x1.acea7536706edp-6
mc_measure|match_rate.matches|0|6|0x1.ep+2|0x1.5e8add236a58fp+1
mc_measure|match_rate.matches|1|6|0x1.7555555555555p+2|0x1.b8ef4cbc3f1eap+0
mc_measure|match_rate.matches|2|6|0x1.2caaaaaaaaaabp+6|0x1.e81bf99a3f26dp+2
mc_measure|match_rate.matches|3|6|0x1.1aaaaaaaaaaaap+3|0x1.3801c01abff5ap+2
mc_measure|match_rate.mse|0|6|0x1.038a8dde66f9dp+10|0x1.2f693d43247c6p+6
mc_measure|match_rate.mse|1|6|0x1.33a0a25ebeb16p+20|0x1.c8403ab9aba69p+16
mc_measure|match_rate.mse|2|0|0x0p+0|0x0p+0
mc_measure|match_rate.mse|3|6|0x1.acea7536706edp-6|0x1.fe71b7e968a3dp-10
mc_measure|info_theoretic.entropy_bits|0|6|0x1.8ce5353fc9d3dp+2|0x0p+0
mc_measure|info_theoretic.entropy_bits|1|6|0x1.8ce5353fc9d3dp+2|0x0p+0
mc_measure|info_theoretic.entropy_bits|2|6|0x1.28fe9a55dfa86p+1|0x0p+0
mc_measure|info_theoretic.entropy_bits|3|6|0x1.51fc7cc5c33b2p+2|0x0p+0
mc_measure|info_theoretic.cond_entropy_bits|0|6|0x0p+0|0x0p+0
mc_measure|info_theoretic.cond_entropy_bits|1|6|0x0p+0|0x0p+0
mc_measure|info_theoretic.cond_entropy_bits|2|0|0x0p+0|0x0p+0
mc_measure|info_theoretic.cond_entropy_bits|3|6|0x1.24b0c4d1fbd16p+1|0x0p+0
mc_measure|info_theoretic.mi_bits|0|6|0x1.973c30b4277cep+1|0x1.60452733dce3fp-6
mc_measure|info_theoretic.mi_bits|1|6|0x1.94f7c3098a55fp+1|0x1.435a902fe8befp-6
mc_measure|info_theoretic.mi_bits|2|6|0x1.e541dd9b1a85ap-6|0x1.c0c65b6c586ecp-7
mc_measure|info_theoretic.mi_bits|3|6|0x1.591c60d6ec902p+1|0x1.889d5a0309b1dp-6
mc_measure|nn_linkage.nn_eps_matches|0|6|0x1.8c8p+8|0x1.3988e14092139p+0
mc_measure|nn_linkage.nn_eps_matches|1|6|0x1.8dp+8|0x0p+0
mc_measure|nn_linkage.nn_eps_matches|2|0|0x0p+0|0x0p+0
mc_measure|nn_linkage.nn_eps_matches|3|6|0x1.8dp+8|0x0p+0
mc_measure|nn_linkage.nn_top1_hits|0|6|0x1p+0|0x1.43d136248490fp+0
mc_measure|nn_linkage.nn_top1_hits|1|6|0x1p-1|0x1.186f174f88472p-1
mc_measure|nn_linkage.nn_top1_hits|2|0|0x0p+0|0x0p+0
mc_measure|nn_linkage.nn_top1_hits|3|6|0x1.2aaaaaaaaaaaap+0|0x1.a20bd700c2c3ep-2
)GOLDEN";

std::string Hex(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::string Hex(const std::optional<double>& value) {
  return value.has_value() ? Hex(*value) : "-";
}

std::vector<std::string> RenderFigureOne(size_t threads) {
  std::vector<std::string> lines;
  datasets::FintechScenario s = datasets::Fintech();
  FederationTopology topo;
  const size_t bank = topo.AddParty(Party("bank", s.bank, "customer_id"));
  const size_t ecom =
      topo.AddParty(Party("ecommerce", s.ecommerce, "customer_id"));
  EXPECT_TRUE(topo.AddEdge(ecom, bank,
                           MetadataPolicy::AtLevel(DisclosureLevel::kWithRfds))
                  .ok());
  TopologyOptions options;
  options.label_party = bank;
  options.train.epochs = 60;
  options.attack_rounds = 6;
  options.threads = threads;

  auto alignment = topo.Align(options);
  if (!alignment.ok()) {
    ADD_FAILURE() << alignment.status().ToString();
    return lines;
  }
  auto utility = topo.EvaluateUtility(*alignment, options);
  auto bank_only = topo.LabelPartyOnlyAccuracy(*alignment, options);
  if (!utility.ok() || !bank_only.ok()) {
    ADD_FAILURE() << utility.status().ToString() << " / "
                  << bank_only.status().ToString();
    return lines;
  }
  lines.push_back("psi|" + std::to_string(alignment->intersection_size()));
  lines.push_back("accuracy|joint|" + Hex(utility->joint_accuracy));
  lines.push_back("accuracy|bank_only|" + Hex(*bank_only));

  for (DisclosureLevel level :
       {DisclosureLevel::kNames, DisclosureLevel::kNamesAndDomains,
        DisclosureLevel::kWithFds, DisclosureLevel::kWithRfds}) {
    CoalitionSpec spec;
    spec.attackers = {bank};
    spec.policy_override = MetadataPolicy::AtLevel(level);
    auto outcome = topo.EvaluateCoalition(*alignment, spec, options);
    if (!outcome.ok()) {
      ADD_FAILURE() << outcome.status().ToString();
      return lines;
    }
    const std::string name = DisclosureLevelToString(level);
    lines.push_back("level|" + name + "|" +
                    (outcome->reconstructed ? "reconstructed"
                                            : "not_reconstructed"));
    EXPECT_EQ(outcome->monte_carlo.has_value(), outcome->reconstructed);
    for (const AttributeLeakage& a : outcome->leakage.attributes) {
      lines.push_back("leak|" + name + "|" + a.name + "|" +
                      std::to_string(a.matches) + "|" +
                      std::to_string(a.rows_compared) + "|" +
                      Hex(a.match_rate) + "|" + Hex(a.mse));
    }
    if (level != DisclosureLevel::kWithRfds || !outcome->monte_carlo) {
      continue;
    }
    const CoalitionLeakageSummary& mc = *outcome->monte_carlo;
    lines.push_back("mc|rounds|" + std::to_string(mc.rounds));
    lines.push_back("mc|overall_match_rate|" + Hex(mc.overall_match_rate));
    lines.push_back("mc|categorical_match_rate|" +
                    Hex(mc.categorical_match_rate));
    lines.push_back("mc|continuous_match_rate|" +
                    Hex(mc.continuous_match_rate));
    lines.push_back("mc|mean_mse|" + Hex(mc.mean_mse));
    lines.push_back("mc|mean_mi_bits|" + Hex(mc.mean_mi_bits));
    for (uint64_t seed : mc.result.round_seeds) {
      lines.push_back("mc|round_seed|" + std::to_string(seed));
    }
    for (const MethodAttributeResult& a : mc.result.attributes) {
      lines.push_back("mc_attr|" + a.name + "|" +
                      std::to_string(a.rows_compared) + "|" +
                      Hex(a.mean_matches) + "|" + Hex(a.stddev_matches) +
                      "|" + Hex(a.mean_mse));
    }
    for (const RiskMeasureStats& m : mc.result.measures) {
      for (size_t c = 0; c < m.mean.size(); ++c) {
        lines.push_back("mc_measure|" + m.estimator + "." + m.measure + "|" +
                        std::to_string(c) + "|" +
                        std::to_string(m.rounds[c]) + "|" + Hex(m.mean[c]) +
                        "|" + Hex(m.stddev[c]));
      }
    }
  }
  return lines;
}

std::vector<std::string> GoldenFigureOneLines() {
  std::vector<std::string> out;
  for (const std::string& line : Split(kGoldenFigureOne, '\n')) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// Discovery inside Align() runs on the global pool, the Monte-Carlo rounds
// on TopologyOptions::threads; both take the thread count under test.
void ExpectFigureOneGolden(size_t threads) {
  SetGlobalThreadCount(threads);
  EXPECT_EQ(RenderFigureOne(threads), GoldenFigureOneLines());
  SetGlobalThreadCount(0);
}

TEST(TopologyGoldenTest, FigureOneAtOneThread) { ExpectFigureOneGolden(1); }

TEST(TopologyGoldenTest, FigureOneAtEightThreads) {
  ExpectFigureOneGolden(8);
}

// --- Topology semantics -------------------------------------------------------

datasets::FintechFederationScenario SmallFederation() {
  datasets::FintechFederationOptions options;
  options.population = 300;
  return datasets::FintechFederation(options);
}

TEST(TopologyTest, EdgeValidation) {
  datasets::FintechFederationScenario s = SmallFederation();
  FederationTopology topo;
  size_t bank = topo.AddParty(Party("bank", s.bank, "customer_id"));
  topo.AddParty(Party("ecom", s.ecommerce, "customer_id"));
  EXPECT_FALSE(topo.AddEdge(bank, bank, MetadataPolicy()).ok());
  EXPECT_FALSE(topo.AddEdge(0, 5, MetadataPolicy()).ok());
  EXPECT_TRUE(topo.AddEdge(1, 0, MetadataPolicy()).ok());
}

TEST(TopologyTest, ParticipationFollowsEdgePolicies) {
  datasets::FintechFederationScenario s = SmallFederation();
  FederationTopology topo;
  size_t bank = topo.AddParty(Party("bank", s.bank, "customer_id"));
  size_t ecom = topo.AddParty(Party("ecom", s.ecommerce, "customer_id"));
  size_t telco = topo.AddParty(Party("telco", s.telco, "customer_id"));
  size_t insurer = topo.AddParty(Party("insurer", s.insurer, "customer_id"));
  ASSERT_TRUE(topo.AddEdge(ecom, bank, MetadataPolicy::FullDisclosure()).ok());
  // Telco discloses names only: out of training.
  ASSERT_TRUE(
      topo.AddEdge(telco, bank,
                   MetadataPolicy::AtLevel(DisclosureLevel::kNames))
          .ok());
  // Insurer has no edge to the label holder at all.
  ASSERT_TRUE(
      topo.AddEdge(insurer, telco, MetadataPolicy::FullDisclosure()).ok());

  TopologyOptions options;
  options.label_party = bank;
  options.train.epochs = 30;
  auto alignment = topo.Align(options);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  auto utility = topo.EvaluateUtility(*alignment, options);
  ASSERT_TRUE(utility.ok()) << utility.status().ToString();
  EXPECT_EQ(utility->participants, (std::vector<size_t>{bank, ecom}));
  EXPECT_GT(utility->joint_accuracy, 0.5);
}

TEST(TopologyTest, FourPartyFederationTrainsAndAligns) {
  datasets::FintechFederationScenario s = SmallFederation();
  FederationTopology topo;
  size_t bank = topo.AddParty(Party("bank", s.bank, "customer_id"));
  size_t ecom = topo.AddParty(Party("ecom", s.ecommerce, "customer_id"));
  size_t telco = topo.AddParty(Party("telco", s.telco, "customer_id"));
  size_t insurer = topo.AddParty(Party("insurer", s.insurer, "customer_id"));
  for (size_t p : {ecom, telco, insurer}) {
    ASSERT_TRUE(topo.AddEdge(p, bank, MetadataPolicy::FullDisclosure()).ok());
  }
  TopologyOptions options;
  options.label_party = bank;
  options.train.epochs = 40;
  auto alignment = topo.Align(options);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  EXPECT_GT(alignment->intersection_size(), 50u);
  ASSERT_EQ(alignment->aligned.size(), 4u);
  for (const Relation& slice : alignment->aligned) {
    EXPECT_EQ(slice.num_rows(), alignment->intersection_size());
  }
  // Every discloser has a profile; the label holder (no outgoing edge)
  // does not.
  EXPECT_FALSE(alignment->profiles[bank].has_value());
  for (size_t p : {ecom, telco, insurer}) {
    EXPECT_TRUE(alignment->profiles[p].has_value());
  }
  auto utility = topo.EvaluateUtility(*alignment, options);
  ASSERT_TRUE(utility.ok());
  EXPECT_EQ(utility->participants.size(), 4u);
  EXPECT_GT(utility->joint_accuracy, 0.5);
}

// --- Coalition adversaries ----------------------------------------------------

struct CoalitionFixture {
  FederationTopology topo;
  size_t bank = 0, ecom = 0, telco = 0;
  TopologyOptions options;
};

// Bank and telco collude against e-commerce: ecom disclosed along two
// edges (different levels) to the two coalition members.
CoalitionFixture MakeCoalitionFixture() {
  datasets::FintechFederationScenario s = SmallFederation();
  CoalitionFixture f;
  f.bank = f.topo.AddParty(Party("bank", s.bank, "customer_id"));
  f.ecom = f.topo.AddParty(Party("ecom", s.ecommerce, "customer_id"));
  f.telco = f.topo.AddParty(Party("telco", s.telco, "customer_id"));
  EXPECT_TRUE(
      f.topo.AddEdge(f.ecom, f.bank, MetadataPolicy::FullDisclosure()).ok());
  EXPECT_TRUE(
      f.topo
          .AddEdge(f.ecom, f.telco,
                   MetadataPolicy::AtLevel(DisclosureLevel::kNamesAndDomains))
          .ok());
  EXPECT_TRUE(
      f.topo.AddEdge(f.telco, f.bank, MetadataPolicy::FullDisclosure()).ok());
  f.options.label_party = f.bank;
  f.options.train.epochs = 30;
  return f;
}

TEST(CoalitionTest, DefaultVictimsAreDisclosersToMembers) {
  CoalitionFixture f = MakeCoalitionFixture();
  auto alignment = f.topo.Align(f.options);
  ASSERT_TRUE(alignment.ok());
  CoalitionSpec spec;
  spec.attackers = {f.bank, f.telco};
  auto outcome = f.topo.EvaluateCoalition(*alignment, spec, f.options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->victims, (std::vector<size_t>{f.ecom}));
  EXPECT_TRUE(outcome->reconstructed);
  // The merged view is at least as informative as either edge alone: the
  // full-disclosure edge supplies domains and dependencies.
  EXPECT_TRUE(outcome->joint.HasAllDomains());
  EXPECT_FALSE(outcome->joint.dependencies.empty());
  EXPECT_EQ(outcome->victim_union.num_rows(),
            alignment->intersection_size());
}

TEST(CoalitionTest, SingleShotScoresUnderTopologyLeakageOptions) {
  // The single shot is scored under TopologyOptions::leakage, like the
  // Monte-Carlo rounds; it is the engine's replay of attack_seed.
  CoalitionFixture f = MakeCoalitionFixture();
  auto alignment = f.topo.Align(f.options);
  ASSERT_TRUE(alignment.ok());
  CoalitionSpec spec;
  spec.attackers = {f.bank};
  spec.victims = {f.ecom};
  auto defaults = f.topo.EvaluateCoalition(*alignment, spec, f.options);
  TopologyOptions wide = f.options;
  wide.leakage.absolute_epsilon = 5.0;
  auto outcome = f.topo.EvaluateCoalition(*alignment, spec, wide);
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->reconstructed);

  ExperimentConfig config;
  config.leakage = wide.leakage;
  auto expected = ExperimentEngine(outcome->victim_union, outcome->joint)
                      .ReplayRound(GenerationMethod::kFull, wide.attack_seed,
                                   config);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectReportsBitIdentical(outcome->leakage, *expected);

  bool continuous_differs = false;
  ASSERT_EQ(outcome->leakage.attributes.size(),
            defaults->leakage.attributes.size());
  for (size_t i = 0; i < outcome->leakage.attributes.size(); ++i) {
    const AttributeLeakage& a = outcome->leakage.attributes[i];
    if (a.semantic == SemanticType::kContinuous &&
        a.matches != defaults->leakage.attributes[i].matches) {
      continuous_differs = true;
    }
  }
  EXPECT_TRUE(continuous_differs);
}

TEST(CoalitionTest, MultiVictimJointViewConcatenatesSlices) {
  CoalitionFixture f = MakeCoalitionFixture();
  // Make ecom AND telco victims of a bank-only coalition.
  auto alignment = f.topo.Align(f.options);
  ASSERT_TRUE(alignment.ok());
  CoalitionSpec spec;
  spec.attackers = {f.bank};
  auto outcome = f.topo.EvaluateCoalition(*alignment, spec, f.options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->victims, (std::vector<size_t>{f.ecom, f.telco}));
  EXPECT_TRUE(outcome->reconstructed);
  // Joint view spans both slices (ecom 4 features + telco 3).
  EXPECT_EQ(outcome->joint.schema.num_attributes(),
            alignment->aligned[f.ecom].num_columns() +
                alignment->aligned[f.telco].num_columns());
  EXPECT_EQ(outcome->victim_union.num_columns(),
            outcome->joint.schema.num_attributes());
  // Leakage report covers every attribute of the union.
  EXPECT_EQ(outcome->leakage.attributes.size(),
            outcome->joint.schema.num_attributes());
}

TEST(CoalitionTest, MonteCarloIsThreadCountInvariantAndReplays) {
  CoalitionFixture f = MakeCoalitionFixture();
  f.options.attack_rounds = 6;
  auto alignment = f.topo.Align(f.options);
  ASSERT_TRUE(alignment.ok());
  CoalitionSpec spec;
  spec.attackers = {f.bank, f.telco};

  f.options.threads = 1;
  auto serial = f.topo.EvaluateCoalition(*alignment, spec, f.options);
  f.options.threads = 8;
  auto parallel = f.topo.EvaluateCoalition(*alignment, spec, f.options);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_TRUE(serial->monte_carlo.has_value());
  ASSERT_TRUE(parallel->monte_carlo.has_value());

  const CoalitionLeakageSummary& a = *serial->monte_carlo;
  const CoalitionLeakageSummary& b = *parallel->monte_carlo;
  EXPECT_EQ(a.rounds, 6u);
  EXPECT_EQ(a.overall_match_rate, b.overall_match_rate);
  EXPECT_EQ(a.categorical_match_rate, b.categorical_match_rate);
  EXPECT_EQ(a.continuous_match_rate, b.continuous_match_rate);
  EXPECT_EQ(a.result.round_seeds, b.result.round_seeds);
  ASSERT_EQ(a.result.attributes.size(), b.result.attributes.size());
  for (size_t i = 0; i < a.result.attributes.size(); ++i) {
    EXPECT_EQ(a.result.attributes[i].mean_matches,
              b.result.attributes[i].mean_matches);
    EXPECT_EQ(a.result.attributes[i].stddev_matches,
              b.result.attributes[i].stddev_matches);
  }

  // Any recorded round replays in isolation, deterministically.
  ExperimentConfig config;
  config.leakage = f.options.leakage;
  ASSERT_FALSE(a.result.round_seeds.empty());
  uint64_t seed = a.result.round_seeds.front();
  auto replay1 = ExperimentEngine(serial->victim_union, serial->joint)
                     .ReplayRound(GenerationMethod::kFull, seed, config);
  auto replay2 = ExperimentEngine(parallel->victim_union, parallel->joint)
                     .ReplayRound(GenerationMethod::kFull, seed, config);
  ASSERT_TRUE(replay1.ok() && replay2.ok());
  ExpectReportsBitIdentical(*replay1, *replay2);
}

// --- Pareto sweep -------------------------------------------------------------

TEST(TopologyParetoTest, SweepProducesDistinctTradeoffPoints) {
  CoalitionFixture f = MakeCoalitionFixture();
  f.options.train.epochs = 40;
  CoalitionSpec spec;
  spec.attackers = {f.bank};
  spec.victims = {f.ecom, f.telco};

  std::vector<MetadataPolicy> policies;
  policies.push_back(MetadataPolicy::FullDisclosure());
  policies.push_back(MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "domains-only"));
  MetadataPolicy defended =
      MetadataPolicy::AtLevel(DisclosureLevel::kNamesAndDomains, "defended");
  defended.transforms = {MetadataTransform::GeneralizeDomains(2.0, 16, 3)};
  policies.push_back(defended);
  policies.push_back(
      MetadataPolicy::AtLevel(DisclosureLevel::kNames, "names-only"));

  auto points = SweepPolicyPareto(f.topo, f.options, spec, policies);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), policies.size());

  const ParetoPoint& full = (*points)[0];
  const ParetoPoint& defended_pt = (*points)[2];
  const ParetoPoint& names = (*points)[3];

  // Names-only prevents reconstruction entirely and drops the victims out
  // of training: the zero-leakage endpoint.
  EXPECT_FALSE(names.reconstructed);
  EXPECT_EQ(names.leakage_rate, 0.0);
  // Full disclosure leaks the most.
  EXPECT_TRUE(full.reconstructed);
  EXPECT_GT(full.leakage_rate, 0.0);
  EXPECT_GE(full.leakage_rate, defended_pt.leakage_rate);
  // Domain generalization strictly cuts leakage below full disclosure.
  EXPECT_LT(defended_pt.leakage_rate, full.leakage_rate);
  // The frontier is non-empty and marked consistently: no point on it is
  // strictly dominated.
  size_t on_frontier = 0;
  for (const ParetoPoint& p : *points) {
    if (p.on_frontier) ++on_frontier;
    for (const ParetoPoint& q : *points) {
      if (&p == &q || !p.on_frontier) continue;
      const double p_mi = p.mi_leakage_bits.value_or(0.0);
      const double q_mi = q.mi_leakage_bits.value_or(0.0);
      bool dominates = q.joint_accuracy >= p.joint_accuracy &&
                       q.leakage_rate <= p.leakage_rate && q_mi <= p_mi &&
                       (q.joint_accuracy > p.joint_accuracy ||
                        q.leakage_rate < p.leakage_rate || q_mi < p_mi);
      EXPECT_FALSE(dominates);
    }
  }
  EXPECT_GE(on_frontier, 1u);
}

}  // namespace
}  // namespace metaleak
