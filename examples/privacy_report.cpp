// privacy_report: the session API, plus a round drill-down.
//
// Usage: privacy_report [file.csv] > report.md
//
// Registers the relation with an AuditService and serves the full audit
// from the session's snapshot: encoding and discovery happen once at
// registration, Audit() runs only the measurement stages, and the report
// ends with the cache counters that make the reuse visible. The
// drill-down borrows the same snapshot's encoding to replay the single
// most-leaking recorded round (MethodResult::round_seeds + ReplayRound)
// and show its per-attribute numbers. Without an argument it audits the
// bundled echocardiogram replica.
#include <cstdio>

#include "common/string_util.h"
#include "data/csv_loader.h"
#include "data/datasets/echocardiogram.h"
#include "privacy/audit.h"
#include "privacy/experiment.h"
#include "service/audit_service.h"

using namespace metaleak;  // Example code; library code never does this.

int main(int argc, char** argv) {
  Relation relation;
  if (argc > 1) {
    Result<Relation> loaded = LoadCsvRelationFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    relation = std::move(loaded).ValueUnsafe();
  } else {
    relation = datasets::Echocardiogram();
  }

  // One registration = one encoding + one discovery pass; the audit and
  // the drill-down below both run against the resulting snapshot.
  ServiceOptions service_options;
  service_options.discovery.discover_cfds = true;
  AuditService service(service_options);
  Result<SessionId> session = service.Register(relation);
  if (!session.ok()) {
    std::fprintf(stderr, "registration failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  AuditOptions options;
  options.experiment.rounds = 200;
  options.experiment.threads = 0;  // use all cores
  options.methods = {GenerationMethod::kFd, GenerationMethod::kOd,
                     GenerationMethod::kNd, GenerationMethod::kCfd};
  Result<AuditResult> audit = service.Audit(*session, options);
  if (!audit.ok()) {
    std::fprintf(stderr, "audit failed: %s\n",
                 audit.status().ToString().c_str());
    return 1;
  }
  std::fputs(audit->ToMarkdown().c_str(), stdout);

  // Drill-down: re-run one method on the snapshot's encoding, then use
  // the recorded per-round seeds to find and replay the round with the
  // most categorical matches — the worst single draw behind the averages.
  Result<std::shared_ptr<const RelationSnapshot>> snapshot =
      service.Snapshot(*session);
  if (!snapshot.ok()) return 1;
  ExperimentEngine engine((*snapshot)->encoding(), audit->metadata);
  ExperimentConfig config;
  config.rounds = 64;
  config.threads = 0;  // use all cores
  config.estimators = &RiskEstimatorRegistry::All();
  const GenerationMethod method = GenerationMethod::kFd;
  Result<MethodResult> run = engine.Run(method, config);
  if (!run.ok()) {
    std::fprintf(stderr, "drill-down failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  size_t worst_round = 0;
  size_t worst_matches = 0;
  LeakageReport worst;
  for (size_t round = 0; round < run->round_seeds.size(); ++round) {
    Result<LeakageReport> report =
        engine.ReplayRound(method, run->round_seeds[round], config);
    if (!report.ok()) continue;
    size_t matches = report->TotalCategoricalMatches();
    if (round == 0 || matches > worst_matches) {
      worst_round = round;
      worst_matches = matches;
      worst = std::move(*report);
    }
  }
  std::printf("\n## Worst round under %s\n\n",
              GenerationMethodToString(method).c_str());
  std::printf(
      "Round %zu of %zu (seed %llu) had the most categorical matches "
      "(%zu):\n\n",
      worst_round, config.rounds,
      static_cast<unsigned long long>(run->round_seeds[worst_round]),
      worst_matches);
  for (const AttributeLeakage& a : worst.attributes) {
    Result<MethodAttributeResult> mean = run->ForAttribute(a.attribute);
    std::printf("- `%s`: %zu/%zu matched (run mean %s)\n", a.name.c_str(),
                a.matches, a.rows_compared,
                mean.ok() ? FormatDouble(mean->mean_matches, 2).c_str()
                          : "-");
  }

  // Every beyond-match-rate measure column the engine streamed for the
  // drill-down method (match rate itself is in the tables above).
  std::printf("\n## Registered risk measures under %s\n\n",
              GenerationMethodToString(method).c_str());
  const Schema& schema = audit->metadata.schema;
  for (const RiskMeasureStats& ms : run->measures) {
    if (ms.estimator == MatchRateEstimator::Instance().name()) continue;
    for (size_t c = 0; c < ms.mean.size(); ++c) {
      if (ms.rounds[c] == 0) continue;
      std::printf("- `%s` %s/%s: %s\n", schema.attribute(c).name.c_str(),
                  ms.estimator.c_str(), ms.measure.c_str(),
                  FormatDouble(ms.mean[c], 3).c_str());
    }
  }
  return 0;
}
