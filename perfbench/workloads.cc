// Benchmark workloads: runs one MetaLeak workload against the library's
// public API and prints one JSON object of raw samples on stdout.
//
//   perfbench_workloads --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.py builds this program, runs it, and turns the samples
// into the named metrics (medians, percentiles, rates). All timing is
// taken here, around public calls; nothing under src/ is instrumented.
//
// Every workload is a closed loop with one caller: the next op starts
// when the previous one returned. The shared worker pool is sized to the
// threads this process may run on (its CPU affinity), never more.
//
// --trace 0 times the ops as a user makes them. --trace 1 alternates an
// untimed-by-layer op with a traced op that makes the same calls one
// layer at a time, and replays parts of the op (experiment methods,
// Monte-Carlo rounds) through the layers' own entry points to split the
// time. The difference between the two ops is the tracing overhead.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "data/code_column.h"
#include "data/csv_loader.h"
#include "data/datasets/fintech.h"
#include "data/datasets/synthetic.h"
#include "data/delta_relation.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/revalidate.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_policy.h"
#include "partition/pli_cache.h"
#include "partition/pli_maintenance.h"
#include "privacy/analytical.h"
#include "privacy/audit.h"
#include "privacy/experiment.h"
#include "privacy/identifiability.h"
#include "privacy/leakage_delta.h"
#include "privacy/risk_estimator.h"
#include "service/audit_service.h"
#include "service/relation_snapshot.h"
#include "vfl/party.h"
#include "vfl/topology.h"

namespace metaleak {
namespace {

// ---------------------------------------------------------------------
// Workload parameters. Rounds, epochs and batch shapes are the ones the
// repository's own callers use; only the row counts are chosen, so that
// each run of BENCHMARK.json's length holds enough ops for a steady
// median (see perfbench/README.md for the measured split by layer).

constexpr size_t kSetupRepeats = 5;

// examples/privacy_report.cpp: RunAudit with 200 rounds.
constexpr size_t kAuditRows = 4000;
constexpr size_t kAuditRounds = 200;

// examples/privacy_report.cpp: ExperimentEngine::Run with every
// estimator, 64 rounds. 100k Zipf rows keep u8, u16 and u32 columns.
constexpr size_t kAttackRows = 100000;
constexpr size_t kAttackRounds = 64;
constexpr size_t kAttackSetupRepeats = 3;

// bench/bench_service.cpp: 4 batches of 8 deletes + 8 inserts between
// warm audits of 1 round. examples/metadata_audit.cpp: MeasureLeakage
// with 200 rounds.
constexpr size_t kServiceRows = 10000;
constexpr size_t kServiceBatchesPerCycle = 4;
constexpr size_t kServiceBatchDeletes = 8;
constexpr size_t kServiceBatchInserts = 8;
constexpr size_t kServiceInsertPool = 4096;
constexpr size_t kServiceAuditRounds = 1;
constexpr size_t kServiceMeasureRounds = 200;

// examples/fintech_vfl.cpp: 120 training epochs, 50 attack rounds.
constexpr size_t kFederationPopulation = 8000;
constexpr size_t kFederationEpochs = 120;
constexpr size_t kFederationAttackRounds = 50;

// ---------------------------------------------------------------------
// Clock, samples and the JSON record.

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MsSince(start);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything one run reports. Series are raw samples; run.py reduces
/// them.
struct RunReport {
  std::map<std::string, std::string> record;  // value already JSON
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> counters;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::pair<std::string, std::string>> failures;

  void Sample(const std::string& name, double v) { series[name].push_back(v); }

  /// Records a failed check and counts it in `failed`; Main caps
  /// `failed` at `attempted`, so error_rate stays a share of ops.
  void Fail(const std::string& check, const std::string& detail) {
    ++failed;
    failures.emplace_back(check, detail);
    std::fprintf(stderr, "check failed: %s: %s\n", check.c_str(),
                 detail.c_str());
  }

  std::string ToJson() const {
    std::ostringstream os;
    os << "{\"record\": {";
    bool first = true;
    for (const auto& [k, v] : record) {
      os << (first ? "" : ", ") << JsonString(k) << ": " << v;
      first = false;
    }
    os << "}, \"setup_s\": [";
    for (size_t i = 0; i < setup_s.size(); ++i) {
      os << (i ? ", " : "") << JsonNumber(setup_s[i]);
    }
    os << "], \"series\": {";
    first = true;
    for (const auto& [k, values] : series) {
      os << (first ? "" : ", ") << JsonString(k) << ": [";
      for (size_t i = 0; i < values.size(); ++i) {
        os << (i ? ", " : "") << JsonNumber(values[i]);
      }
      os << "]";
      first = false;
    }
    os << "}, \"counters\": {";
    first = true;
    for (const auto& [k, v] : counters) {
      os << (first ? "" : ", ") << JsonString(k) << ": " << JsonNumber(v);
      first = false;
    }
    os << "}, \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      os << (i ? ", " : "") << "{\"check\": " << JsonString(failures[i].first)
         << ", \"detail\": " << JsonString(failures[i].second) << "}";
    }
    os << "]}";
    return os.str();
  }
};

/// Peak resident set of this process in MB, from the kernel's
/// high-water mark (kB resolution).
double PeakRssMbPrecise() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return static_cast<double>(PeakRssMb());
}

/// Resets the kernel's high-water mark to the current resident set
/// (Linux 4.0+), so a later PeakRssMbPrecise covers only what follows.
/// Returns false when the reset is not available.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Threads this process may run on: its CPU affinity mask, capped by
/// the hardware thread count.
size_t HostThreads() {
  size_t n = std::max<unsigned>(1, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    n = std::min<size_t>(n, static_cast<size_t>(CPU_COUNT(&set)));
  }
  return std::max<size_t>(1, n);
}

std::string WidthCensus(const EncodedRelation& encoded) {
  size_t u8 = 0, u16 = 0, u32 = 0;
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    switch (encoded.column_width(c)) {
      case CodeWidth::kU8: ++u8; break;
      case CodeWidth::kU16: ++u16; break;
      case CodeWidth::kU32: ++u32; break;
    }
  }
  return "{\"u8\": " + std::to_string(u8) + ", \"u16\": " +
         std::to_string(u16) + ", \"u32\": " + std::to_string(u32) + "}";
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).ValueUnsafe();
}

// ---------------------------------------------------------------------
// Result comparison, bit for bit.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || SameBits(*a, *b));
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameMeasures(const std::vector<RiskMeasureStats>& a,
                  const std::vector<RiskMeasureStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].estimator != b[i].estimator || a[i].measure != b[i].measure ||
        a[i].active != b[i].active || a[i].rounds != b[i].rounds ||
        !SameBits(a[i].mean, b[i].mean) ||
        !SameBits(a[i].stddev, b[i].stddev)) {
      return false;
    }
  }
  return true;
}

bool SameMethod(const MethodResult& a, const MethodResult& b) {
  if (a.method != b.method || a.round_seeds != b.round_seeds ||
      a.attributes.size() != b.attributes.size()) {
    return false;
  }
  for (size_t c = 0; c < a.attributes.size(); ++c) {
    const MethodAttributeResult& x = a.attributes[c];
    const MethodAttributeResult& y = b.attributes[c];
    if (x.covered != y.covered || x.rows_compared != y.rows_compared ||
        !SameBits(x.mean_matches, y.mean_matches) ||
        !SameBits(x.stddev_matches, y.stddev_matches) ||
        !SameBits(x.mean_mse, y.mean_mse)) {
      return false;
    }
  }
  return SameMeasures(a.measures, b.measures);
}

bool SameAudit(const AuditResult& a, const AuditResult& b) {
  if (a.metadata.Serialize() != b.metadata.Serialize() ||
      !SameBits(a.identifiable_fraction, b.identifiable_fraction) ||
      a.method_results.size() != b.method_results.size() ||
      a.attributes.size() != b.attributes.size()) {
    return false;
  }
  for (size_t m = 0; m < a.method_results.size(); ++m) {
    if (!SameMethod(a.method_results[m], b.method_results[m])) return false;
  }
  for (size_t c = 0; c < a.attributes.size(); ++c) {
    const AttributeAudit& x = a.attributes[c];
    const AttributeAudit& y = b.attributes[c];
    if (!SameBits(x.expected_random_matches, y.expected_random_matches) ||
        !SameBits(x.measured_random_matches, y.measured_random_matches) ||
        !SameBits(x.worst_dependency_matches, y.worst_dependency_matches) ||
        x.dependency_adds_leakage != y.dependency_adds_leakage ||
        x.domain_leaks != y.domain_leaks) {
      return false;
    }
  }
  return a.ToMarkdown() == b.ToMarkdown();
}

bool SamePareto(const std::vector<ParetoPoint>& a,
                const std::vector<ParetoPoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const ParetoPoint& x = a[i];
    const ParetoPoint& y = b[i];
    if (x.policy_name != y.policy_name ||
        !SameBits(x.joint_accuracy, y.joint_accuracy) ||
        x.reconstructed != y.reconstructed ||
        !SameBits(x.leakage_rate, y.leakage_rate) ||
        !SameBits(x.mean_mse, y.mean_mse) ||
        !SameBits(x.mi_leakage_bits, y.mi_leakage_bits) ||
        x.on_frontier != y.on_frontier) {
      return false;
    }
  }
  return true;
}

/// Def 2.2/2.3 band: the random baseline's mean matches against the
/// Section III closed form, with the tolerance the scale bench uses.
/// Returns an empty string when every attribute is inside its band.
std::string RandomBaselineOutOfBand(const MethodResult& random,
                                    const EncodedRelation& encoded,
                                    const std::vector<Domain>& domains,
                                    const LeakageOptions& leakage) {
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    const Domain& dom = domains[c];
    const size_t compared = encoded.num_rows() - encoded.dictionary(c).count(0);
    const double expected =
        dom.is_categorical()
            ? ExpectedRandomCategoricalMatches(compared, dom)
            : ExpectedRandomContinuousMatches(
                  compared, dom,
                  leakage.absolute_epsilon.has_value()
                      ? *leakage.absolute_epsilon
                      : leakage.epsilon_fraction * dom.range());
    const double measured = random.attributes[c].mean_matches;
    const double tol =
        std::max(5.0 * std::sqrt(expected + 1.0), 0.35 * expected + 3.0);
    if (std::abs(measured - expected) > tol) {
      return "attribute " + std::to_string(c) + ": measured " +
             std::to_string(measured) + " vs expected " +
             std::to_string(expected) + " (tol " + std::to_string(tol) + ")";
    }
  }
  return "";
}

// ---------------------------------------------------------------------
// Layer replay of the Monte-Carlo experiment.

const char* MethodKey(GenerationMethod m) {
  switch (m) {
    case GenerationMethod::kRandom: return "random";
    case GenerationMethod::kFd: return "fd";
    case GenerationMethod::kOd: return "od";
    case GenerationMethod::kNd: return "nd";
    default: return "other";
  }
}

/// The generation options ExperimentEngine uses for each method the
/// benchmark runs (random baseline and the single-class methods).
GenerationOptions GenerationOptionsFor(GenerationMethod m) {
  GenerationOptions out;
  switch (m) {
    case GenerationMethod::kRandom:
      out.ignore_dependencies = true;
      break;
    case GenerationMethod::kFd:
      out.allowed_kinds = {DependencyKind::kFunctional};
      break;
    case GenerationMethod::kOd:
      out.allowed_kinds = {DependencyKind::kOrder};
      break;
    case GenerationMethod::kNd:
      out.allowed_kinds = {DependencyKind::kNumerical};
      break;
    default:
      break;
  }
  return out;
}

const char* EstimatorKey(const std::string& name) {
  if (name == MatchRateEstimator::Instance().name()) return "match_rate";
  if (name == InfoTheoreticEstimator::Instance().name()) {
    return "info_theoretic";
  }
  if (name == NnLinkageEstimator::Instance().name()) return "nn_linkage";
  return "other";
}

/// Replays `rounds_to_replay` recorded rounds of one method through
/// GenerationContext::Build, GenerateEncoded and each bound estimator's
/// Evaluate, timing each. Returns the mean per-round work in ms.
double ReplayRounds(const EncodedRelation& encoded,
                    const MetadataPackage& metadata, const MethodResult& run,
                    const ExperimentConfig& config, size_t rounds_to_replay,
                    RunReport* report) {
  std::optional<GenerationContext> built;
  report->Sample("generation.context_build_ms", TimeMs([&] {
                   built.emplace(Unwrap(
                       GenerationContext::Build(
                           metadata, GenerationOptionsFor(run.method)),
                       "GenerationContext::Build"));
                 }));
  const GenerationContext& ctx = *built;
  const RiskEstimatorRegistry& registry =
      config.estimators != nullptr ? *config.estimators
                                   : RiskEstimatorRegistry::Default();
  RiskContext rctx;
  rctx.real = &encoded;
  rctx.syn_schema = &ctx.schema();
  rctx.domains = &ctx.domains();
  rctx.metadata = &metadata;
  rctx.leakage = config.leakage;
  std::vector<std::unique_ptr<BoundRiskEstimator>> bound;
  std::vector<size_t> offset;
  size_t total = 0;
  for (const RiskEstimator* est : registry.estimators()) {
    bound.push_back(Unwrap(est->Bind(rctx), "RiskEstimator::Bind"));
    offset.push_back(total);
    total += est->measures().size();
  }
  const size_t m = encoded.num_columns();
  std::vector<RiskMeasureCell> cells(total * m);
  EncodedBatch batch;
  double work_ms = 0.0;
  const size_t n = std::min(rounds_to_replay, run.round_seeds.size());
  for (size_t k = 0; k < n; ++k) {
    Rng rng(run.round_seeds[k]);
    const double gen_ms = TimeMs([&] {
      Status st = GenerateEncoded(ctx, encoded.num_rows(), &rng, &batch);
      if (!st.ok()) report->Fail("replay.generate", st.ToString());
    });
    report->Sample("generation.generate_ms", gen_ms);
    report->Sample("generation.rows_per_s",
                   static_cast<double>(encoded.num_rows()) / (gen_ms / 1e3));
    work_ms += gen_ms;
    for (size_t e = 0; e < bound.size(); ++e) {
      const double est_ms = TimeMs([&] {
        Status st = bound[e]->Evaluate(batch, cells.data() + offset[e] * m);
        if (!st.ok()) report->Fail("replay.estimate", st.ToString());
      });
      report->Sample(std::string("privacy.estimator.") +
                         EstimatorKey(registry.estimators()[e]->name()) +
                         "_ms",
                     est_ms);
      work_ms += est_ms;
    }
  }
  return n == 0 ? 0.0 : work_ms / static_cast<double>(n);
}

/// Runs each method the way ExperimentEngine::RunAll does (same derived
/// seeds), timing each Run, checks it against `expected` bit for bit,
/// and replays `rounds_to_replay` rounds of each.
void ReplayExperiment(const EncodedRelation& encoded,
                        const MetadataPackage& metadata,
                        const std::vector<MethodResult>& expected,
                        const ExperimentConfig& config,
                        size_t rounds_to_replay, size_t pool,
                        RunReport* report) {
  ExperimentEngine engine(encoded, metadata);
  Rng seeder(config.seed);
  for (const MethodResult& want : expected) {
    ExperimentConfig method_config = config;
    method_config.seed = seeder.Fork().engine()();
    Result<MethodResult> got = Status::OK();
    const double run_ms =
        TimeMs([&] { got = engine.Run(want.method, method_config); });
    report->Sample(std::string("privacy.experiment.") +
                       MethodKey(want.method) + "_ms",
                   run_ms);
    if (!got.ok() || !SameMethod(*got, want)) {
      report->Fail("replay.experiment_parity",
                   std::string("method ") + MethodKey(want.method) +
                       " replay differs from the audited run");
      continue;
    }
    const double per_round =
        ReplayRounds(encoded, metadata, *got, config, rounds_to_replay,
                     report);
    const double rounds = static_cast<double>(config.rounds);
    const double lanes =
        std::max(1.0, std::min(static_cast<double>(pool), rounds));
    report->Sample("privacy.round_overhead_ms",
                   run_ms - per_round * rounds / lanes);
  }
}

/// Splits an audit that already ran: identifiability on a fresh cache in
/// the state profiling leaves it, then each experiment method and one of
/// its rounds (see ReplayExperiment).
void ReplayAudit(const EncodedRelation& encoded, const AuditResult& audit,
                 const AuditOptions& options, size_t pool, RunReport* report) {
  PliCache cache(&encoded);
  Unwrap(ProfileRelation(&cache, options.discovery), "ProfileRelation");
  report->Sample("privacy.identifiability_ms", TimeMs([&] {
                   Unwrap(IdentifiableByAnySubset(
                              cache, options.identifiability_max_width),
                          "IdentifiableByAnySubset");
                 }));
  ExperimentConfig experiment = options.experiment;
  if (experiment.estimators == nullptr) {
    experiment.estimators = &RiskEstimatorRegistry::All();
  }
  ReplayExperiment(encoded, audit.metadata, audit.method_results, experiment,
                   /*rounds_to_replay=*/1, pool, report);
}

void RecordDiscovery(const DiscoveryReport& profile, RunReport* report) {
  const LatticeSearchStats total = profile.TotalSearchStats();
  report->Sample("discovery.lattice_nodes",
                 static_cast<double>(total.nodes_visited));
  report->Sample("discovery.validator_calls",
                 static_cast<double>(total.validator_invocations));
  const double attempts = static_cast<double>(total.candidates_pruned +
                                              total.validator_invocations);
  report->Sample("discovery.pruned_frac",
                 attempts == 0.0 ? 0.0
                                 : static_cast<double>(
                                       total.candidates_pruned) /
                                       attempts);
}

void RecordEncode(double ms, size_t rows, RunReport* report) {
  report->Sample("data.encode_ms", ms);
  report->Sample("data.encode_rows_per_s",
                 static_cast<double>(rows) / (ms / 1e3));
}

/// Closed loop: calls `op` until `seconds` have passed (at least once).
/// The peak resident set is taken over the loop alone: the set-up and
/// the checks before and after it do not count towards max_rss_mb.
template <typename Op>
void ClosedLoop(double seconds, RunReport* report, Op&& op) {
  report->record["rss_peak_reset"] = ResetPeakRss() ? "true" : "false";
  const Clock::time_point start = Clock::now();
  do {
    op();
  } while (MsSince(start) < seconds * 1e3);
  report->record["max_rss_mb"] = JsonNumber(PeakRssMbPrecise());
}

/// Runs the workload's set-up `repeats` times; the last one stays.
/// Set-up times library calls only, never the benchmark's own input
/// generation.
template <typename Fn>
void RepeatSetup(RunReport* report, Fn&& fn, size_t repeats = kSetupRepeats) {
  for (size_t i = 0; i < repeats; ++i) {
    report->setup_s.push_back(TimeMs(fn) / 1e3);
  }
}

// ---------------------------------------------------------------------
// Inputs.

/// Ten columns with planted FD/OD (monotone maps), ND (bounded fan-out)
/// and AFD (noisy map) structure. The base columns have few distinct
/// values, so every unplanted attribute set of up to three columns
/// repeats often at 10k rows and more. Discovery then finds the same
/// dependencies for every seed, and no accidental near-key FDs whose
/// presence (and generation cost) would vary with the seed.
datasets::SyntheticConfig PlantedConfig(size_t rows, uint64_t seed) {
  using Kind = datasets::SyntheticAttribute::Kind;
  datasets::SyntheticConfig cfg;
  cfg.num_rows = rows;
  cfg.seed = seed;
  cfg.attributes = {
      {.name = "region", .kind = Kind::kCategoricalBase, .domain_size = 24},
      {.name = "segment", .kind = Kind::kCategoricalBase, .domain_size = 12},
      {.name = "income", .kind = Kind::kContinuousBase, .lo = 0.0,
       .hi = 50.0, .decimals = 0},
      {.name = "age", .kind = Kind::kContinuousBase, .lo = 18.0, .hi = 60.0,
       .decimals = 0},
      {.name = "tax", .kind = Kind::kDerivedMonotone, .domain_size = 0,
       .source = 2},
      {.name = "branch", .kind = Kind::kDerivedBoundedFanout,
       .domain_size = 32, .source = 0, .fanout = 3},
      {.name = "tier", .kind = Kind::kDerivedApproximate, .domain_size = 10,
       .source = 1, .violation_rate = 0.05},
      {.name = "age_band", .kind = Kind::kDerivedMonotone, .domain_size = 8,
       .source = 3},
      {.name = "channel", .kind = Kind::kCategoricalBase, .domain_size = 6},
      {.name = "score", .kind = Kind::kContinuousBase, .lo = 0.0, .hi = 40.0,
       .decimals = 0},
  };
  return cfg;
}

// ---------------------------------------------------------------------
// audit_cold: CSV text -> LoadCsvRelation -> RunAudit -> ToMarkdown.

void RunAuditCold(uint64_t seed, double seconds, bool trace, size_t pool,
                  RunReport* report) {
  const std::string csv = RelationToCsv(Unwrap(
      datasets::Synthetic(PlantedConfig(kAuditRows, seed)), "Synthetic"));
  AuditOptions options;
  options.experiment.rounds = kAuditRounds;
  options.experiment.threads = 0;  // the shared pool
  options.experiment.seed = seed ^ 0xA0D17;

  // Set-up: the ingest and discovery RunAudit starts with, made through
  // public calls. The replay check below audits from its result.
  std::optional<Relation> ref_rel;
  std::optional<EncodedRelation> ref_encoded;
  std::optional<PliCache> ref_cache;
  std::optional<DiscoveryReport> ref_profile;
  RepeatSetup(report, [&] {
    ref_profile.reset();
    ref_cache.reset();
    ref_encoded.reset();
    ref_rel.emplace(Unwrap(LoadCsvRelation(csv), "LoadCsvRelation"));
    ref_encoded.emplace(EncodedRelation::Encode(*ref_rel));
    ref_cache.emplace(&*ref_encoded);
    ref_profile.emplace(Unwrap(ProfileRelation(&*ref_cache, options.discovery),
                               "ProfileRelation"));
  });
  report->record["code_widths"] = WidthCensus(*ref_encoded);

  // The reference result, and the check that the layer-by-layer replay
  // (RunAudit's own steps through public calls) gives it bit for bit.
  std::string reference_md;
  {
    AuditResult reference = Unwrap(RunAudit(*ref_rel, options), "RunAudit");
    reference_md = reference.ToMarkdown();
    report->counters["dependencies"] = static_cast<double>(
        reference.metadata.dependencies.size() +
        reference.metadata.conditional_fds.size());
    AuditResult replayed =
        Unwrap(RunAuditProfiled(*ref_cache, *ref_profile, options),
               "RunAuditProfiled");
    if (!SameAudit(replayed, reference)) {
      report->Fail("audit_cold.replay_parity",
                   "layer replay differs from RunAudit");
    }
    std::vector<Domain> domains =
        Unwrap(reference.metadata.RequireDomains(), "RequireDomains");
    std::string band = RandomBaselineOutOfBand(
        reference.method_results[0], *ref_encoded, domains,
        options.experiment.leakage);
    if (!band.empty()) report->Fail("audit_cold.random_band", band);
  }
  // Only the CSV text and the reference markdown stay into the loop.
  ref_profile.reset();
  ref_cache.reset();
  ref_encoded.reset();
  ref_rel.reset();

  auto untraced_op = [&]() -> bool {
    bool ok = true;
    const double ms = TimeMs([&] {
      Result<Relation> rel = LoadCsvRelation(csv);
      if (!rel.ok()) {
        ok = false;
        return;
      }
      Result<AuditResult> audit = RunAudit(*rel, options);
      if (!audit.ok()) {
        ok = false;
        return;
      }
      ok = audit->ToMarkdown() == reference_md;
    });
    report->Sample("op_ms", ms);
    return ok;
  };

  auto traced_op = [&]() -> bool {
    bool ok = true;
    double spans = 0.0;
    std::optional<Relation> rel;
    std::optional<EncodedRelation> encoded;
    std::optional<PliCache> cache;
    std::optional<DiscoveryReport> profile;
    std::optional<AuditResult> audit;
    std::string md;
    const double ms = TimeMs([&] {
      double t = TimeMs([&] {
        rel.emplace(Unwrap(LoadCsvRelation(csv), "LoadCsvRelation"));
      });
      report->Sample("data.load_csv_ms", t);
      spans += t;
      t = TimeMs([&] { encoded.emplace(EncodedRelation::Encode(*rel)); });
      RecordEncode(t, encoded->num_rows(), report);
      spans += t;
      cache.emplace(&*encoded);
      t = TimeMs([&] {
        profile.emplace(Unwrap(ProfileRelation(&*cache, options.discovery),
                               "ProfileRelation"));
      });
      report->Sample("discovery.profile_ms", t);
      spans += t;
      t = TimeMs([&] {
        audit.emplace(Unwrap(RunAuditProfiled(*cache, *profile, options),
                             "RunAuditProfiled"));
      });
      spans += t;
      t = TimeMs([&] { md = audit->ToMarkdown(); });
      report->Sample("privacy.report_ms", t);
      spans += t;
    });
    report->Sample("traced_op_ms", ms);
    report->Sample("unattributed_ms", ms - spans);
    ok = md == reference_md;
    RecordDiscovery(*profile, report);
    const double lookups =
        static_cast<double>(cache->hits() + cache->misses());
    report->Sample("partition.pli_hit_rate",
                   lookups == 0.0 ? 0.0 : cache->hits() / lookups);

    ReplayAudit(*encoded, *audit, options, pool, report);
    return ok;
  };

  ClosedLoop(seconds, report, [&] {
    ++report->attempted;
    if (!untraced_op()) {
      report->Fail("audit_cold.markdown", "audit report differs");
    }
    if (trace && !traced_op()) {
      report->Fail("audit_cold.traced_markdown", "traced report differs");
    }
  });
}

// ---------------------------------------------------------------------
// attack_rounds: ExperimentEngine::Run(kRandom) over a Zipf relation with
// names and domains disclosed and the full estimator registry.

MetadataPackage NamesAndDomains(const EncodedRelation& encoded) {
  MetadataPackage metadata;
  metadata.schema = encoded.schema();
  metadata.num_rows = encoded.num_rows();
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    metadata.domains.push_back(Unwrap(encoded.DomainOf(c), "DomainOf"));
  }
  return metadata;
}

void RunAttackRounds(uint64_t seed, double seconds, bool trace, size_t pool,
                     RunReport* report) {
  const Relation real =
      Unwrap(datasets::SyntheticZipfScale(kAttackRows, seed), "Zipf");
  std::optional<EncodedRelation> encoded;
  std::optional<MetadataPackage> metadata;
  std::optional<ExperimentEngine> engine;
  RepeatSetup(
      report,
      [&] {
        engine.reset();
        const double t =
            TimeMs([&] { encoded.emplace(EncodedRelation::Encode(real)); });
        if (trace) RecordEncode(t, real.num_rows(), report);
        metadata.emplace(NamesAndDomains(*encoded));
        engine.emplace(*encoded, *metadata);
      },
      kAttackSetupRepeats);
  report->record["code_widths"] = WidthCensus(*encoded);

  ExperimentConfig config;
  config.rounds = kAttackRounds;
  config.threads = 0;
  config.seed = seed ^ 0xA77AC4;
  config.estimators = &RiskEstimatorRegistry::All();

  {
    // Rounds get their seeds up front, so the measures must not depend on
    // how many pool threads ran them. One round per pool thread keeps the
    // serial run short while every thread still takes a round.
    ExperimentConfig parity = config;
    parity.rounds = std::max<size_t>(2, pool);
    MethodResult pooled =
        Unwrap(engine->Run(GenerationMethod::kRandom, parity), "Run");
    parity.threads = 1;
    MethodResult serial =
        Unwrap(engine->Run(GenerationMethod::kRandom, parity), "Run");
    if (!SameMeasures(serial.measures, pooled.measures)) {
      report->Fail("attack_rounds.thread_parity",
                   "1-thread and pool measures differ");
    }
  }

  std::optional<MethodResult> reference;
  size_t rounds_done = 0;
  ClosedLoop(seconds, report, [&] {
    ++report->attempted;
    Result<MethodResult> r = Status::OK();
    const double ms =
        TimeMs([&] { r = engine->Run(GenerationMethod::kRandom, config); });
    report->Sample("op_ms", ms);
    report->Sample("rounds_per_s",
                   static_cast<double>(config.rounds) / (ms / 1e3));
    if (!r.ok()) {
      report->Fail("attack_rounds.run", r.status().ToString());
    } else if (!reference.has_value()) {
      // The first op is the reference: its random baseline must sit in
      // the closed-form bands, and every later op must repeat it.
      std::string band = RandomBaselineOutOfBand(
          *r, *encoded, Unwrap(metadata->RequireDomains(), "domains"),
          config.leakage);
      if (!band.empty()) report->Fail("attack_rounds.random_band", band);
      reference = *r;
      rounds_done += config.rounds;
    } else if (!SameMethod(*r, *reference)) {
      report->Fail("attack_rounds.determinism", "measures differ");
    } else {
      rounds_done += config.rounds;
    }
    if (trace) {
      // The traced op is the same call; its layers come from replaying
      // one round per pool thread through the generation and estimator
      // entry points.
      const double traced_ms = TimeMs(
          [&] { r = engine->Run(GenerationMethod::kRandom, config); });
      report->Sample("traced_op_ms", traced_ms);
      report->Sample("privacy.experiment.random_ms", traced_ms);
      if (r.ok()) {
        const double per_round =
            ReplayRounds(*encoded, *metadata, *r, config, pool, report);
        const double lanes = static_cast<double>(
            std::min<size_t>(pool, config.rounds));
        const double overhead =
            traced_ms - per_round * static_cast<double>(config.rounds) / lanes;
        report->Sample("privacy.round_overhead_ms", overhead);
        report->Sample("unattributed_ms", overhead);
      }
    }
  });
  report->counters["rounds"] = static_cast<double>(rounds_done);
}

// ---------------------------------------------------------------------
// service_churn: AuditService with a fixed mix of batches, a warm audit
// and a leakage measurement per cycle.

/// Mirror of a session as source-row ids: surviving rows keep their
/// order, inserts append (DeltaRelation's semantics). `deletes` is sorted.
void MirrorBatch(const std::vector<size_t>& deletes,
                 const std::vector<size_t>& insert_ids,
                 std::vector<size_t>* rows) {
  size_t d = 0, out = 0;
  for (size_t r = 0; r < rows->size(); ++r) {
    if (d < deletes.size() && deletes[d] == r) {
      ++d;
      continue;
    }
    (*rows)[out++] = (*rows)[r];
  }
  rows->resize(out);
  rows->insert(rows->end(), insert_ids.begin(), insert_ids.end());
}

/// The steps AuditService::ApplyBatch takes, made one layer at a time on
/// a session replica.
struct SessionReplica {
  std::shared_ptr<const RelationSnapshot> current;
  std::unique_ptr<DiscoveryMemo> memo;
  std::unique_ptr<DeltaRelation> delta;
  std::unique_ptr<PliMaintenance> plis;

  Status Apply(const RowBatch& batch, const ServiceOptions& options,
               RunReport* report, double* spans) {
    Result<BatchEffects> effects = Status::OK();
    double t = TimeMs([&] { effects = delta->ApplyBatch(batch); });
    report->Sample("data.delta_apply_ms", t);
    *spans += t;
    METALEAK_RETURN_NOT_OK(effects.status());
    DeltaTouch touch = DeltaTouch::None(delta->num_columns());
    touch.Merge(*effects);
    PublishResult publish;
    double maintain = TimeMs([&] { plis->ApplyBatch(*effects); });
    t = TimeMs([&] { publish = delta->PublishCanonical(); });
    report->Sample("data.publish_ms", t);
    *spans += t;
    maintain += TimeMs([&] { plis->RenumberCodes(publish.code_remap); });
    report->Sample("partition.pli_maintain_ms", maintain);
    *spans += maintain;
    std::vector<PositionListIndex> singles;
    singles.reserve(plis->num_columns());
    for (size_t c = 0; c < plis->num_columns(); ++c) {
      singles.push_back(plis->ToPli(c));
    }
    Result<std::shared_ptr<const RelationSnapshot>> next = Status::OK();
    t = TimeMs([&] {
      next = RelationSnapshot::FromPublished(
          std::move(publish.encoded), std::move(singles), options.discovery,
          options.leakage, touch, memo.get());
    });
    report->Sample("service.snapshot_build_ms", t);
    *spans += t;
    METALEAK_RETURN_NOT_OK(next.status());
    METALEAK_RETURN_NOT_OK(
        DiffLeakageProfiles(current->leakage(), (*next)->leakage()).status());
    current = std::move(*next);
    return Status::OK();
  }
};

void RunServiceChurn(uint64_t seed, double seconds, bool trace, size_t pool,
                     RunReport* report) {
  const Relation base = Unwrap(
      datasets::Synthetic(PlantedConfig(kServiceRows, seed)), "Synthetic");
  // Inserts come from the same generator under another seed, with scores
  // at one decimal: most carry a score the session has not seen, so the
  // batches keep growing its dictionaries.
  datasets::SyntheticConfig insert_config =
      PlantedConfig(kServiceInsertPool, seed + 1);
  insert_config.attributes.back().decimals = 1;
  const Relation insert_pool =
      Unwrap(datasets::Synthetic(insert_config), "Synthetic");
  const ServiceOptions service_options;

  std::unique_ptr<AuditService> service;
  SessionId session = 0;
  RepeatSetup(report, [&] {
    service = std::make_unique<AuditService>(service_options);
    session = Unwrap(service->Register(base), "Register");
  });
  if (trace) {
    for (double s : report->setup_s) {
      report->Sample("service.register_ms", s * 1e3);
    }
  }
  report->record["code_widths"] = WidthCensus(EncodedRelation::Encode(base));

  SessionReplica replica;
  if (trace) {
    // Register's encode and profile, one layer at a time.
    std::optional<EncodedRelation> encoded;
    RecordEncode(TimeMs([&] { encoded.emplace(EncodedRelation::Encode(base)); }),
                 base.num_rows(), report);
    PliCache cache(&*encoded);
    std::optional<DiscoveryReport> profile;
    report->Sample("discovery.profile_ms", TimeMs([&] {
                     profile.emplace(Unwrap(
                         ProfileRelation(&cache, service_options.discovery),
                         "ProfileRelation"));
                   }));
    RecordDiscovery(*profile, report);
    replica.memo = std::make_unique<DiscoveryMemo>();
    replica.current = Unwrap(
        RelationSnapshot::FromRelation(base, service_options.discovery,
                                       service_options.leakage,
                                       replica.memo.get()),
        "FromRelation");
    replica.delta = std::make_unique<DeltaRelation>(replica.current->encoding());
    replica.plis =
        std::make_unique<PliMaintenance>(replica.current->encoding());
  }

  AuditOptions audit_options;
  audit_options.experiment.rounds = kServiceAuditRounds;
  audit_options.experiment.threads = 0;
  audit_options.experiment.seed = seed ^ 0x5E7;
  ExperimentConfig measure_config;
  measure_config.rounds = kServiceMeasureRounds;
  measure_config.threads = 0;
  measure_config.seed = seed ^ 0x3EA5;

  // The mirror names each session row by its source: ids below the base
  // row count are base rows, the rest insert-pool rows.
  std::vector<size_t> mirror(base.num_rows());
  for (size_t r = 0; r < mirror.size(); ++r) mirror[r] = r;
  Rng batch_rng(seed ^ 0xBA7C4);
  size_t next_insert = 0;
  auto make_batch = [&]() {
    RowBatch batch;
    batch.delete_rows =
        batch_rng.SampleWithoutReplacement(mirror.size(), kServiceBatchDeletes);
    std::sort(batch.delete_rows.begin(), batch.delete_rows.end());
    std::vector<size_t> insert_ids;
    for (size_t i = 0; i < kServiceBatchInserts; ++i) {
      batch.insert_rows.push_back(insert_pool.Row(next_insert));
      insert_ids.push_back(base.num_rows() + next_insert);
      next_insert = (next_insert + 1) % insert_pool.num_rows();
    }
    MirrorBatch(batch.delete_rows, insert_ids, &mirror);
    return batch;
  };

  auto cycle = [&](const std::vector<RowBatch>& batches) -> bool {
    bool ok = true;
    const double ms = TimeMs([&] {
      for (const RowBatch& batch : batches) {
        const double t = TimeMs([&] {
          ok = service->ApplyBatch(session, batch).ok() && ok;
        });
        report->Sample("batch_ms", t);
      }
      Result<AuditResult> audit = Status::OK();
      report->Sample("warm_audit_ms", TimeMs([&] {
                       audit = service->Audit(session, audit_options);
                     }));
      ok = audit.ok() && ok;
      Result<MethodResult> measured = Status::OK();
      report->Sample("measure_ms", TimeMs([&] {
                       measured = service->MeasureLeakage(
                           session, GenerationMethod::kFd, measure_config);
                     }));
      ok = measured.ok() && ok;
    });
    report->Sample("op_ms", ms);
    return ok;
  };

  auto traced_cycle = [&](const std::vector<RowBatch>& batches) -> bool {
    bool ok = true;
    double spans = 0.0;
    std::optional<AuditResult> audit;
    const double ms = TimeMs([&] {
      for (const RowBatch& batch : batches) {
        Status st = replica.Apply(batch, service_options, report, &spans);
        if (!st.ok()) ok = false;
      }
      Result<AuditResult> r = Status::OK();
      spans += TimeMs([&] {
        r = RunAuditProfiled(replica.current->pli_cache(),
                             replica.current->profile(), audit_options);
      });
      if (r.ok()) {
        audit.emplace(std::move(*r));
      } else {
        ok = false;
      }
      ExperimentEngine engine(replica.current->encoding(),
                              replica.current->profile().metadata);
      Result<MethodResult> measured = Status::OK();
      spans += TimeMs([&] {
        measured = engine.Run(GenerationMethod::kFd, measure_config);
      });
      ok = measured.ok() && ok;
    });
    report->Sample("traced_op_ms", ms);
    report->Sample("unattributed_ms", ms - spans);
    if (audit.has_value()) {
      // 0 when the warm audit made no PLI lookups at all; the lookup
      // count goes to the counters so the two cases can be told apart.
      const AuditCacheStats stats =
          audit->cache_stats.value_or(AuditCacheStats{});
      report->Sample("partition.pli_hit_rate", stats.PliHitRate());
      report->counters["warm_audit_pli_lookups"] =
          static_cast<double>(stats.pli_hits + stats.pli_misses);
      ReplayAudit(replica.current->encoding(), *audit, audit_options, pool,
                  report);
    }
    return ok;
  };

  ClosedLoop(seconds, report, [&] {
    ++report->attempted;
    std::vector<RowBatch> batches;
    for (size_t b = 0; b < kServiceBatchesPerCycle; ++b) {
      batches.push_back(make_batch());
    }
    if (!cycle(batches)) {
      report->Fail("service_churn.op", "a service call failed");
    }
    if (trace) {
      if (!traced_cycle(batches)) {
        report->Fail("service_churn.traced_op", "a replayed call failed");
      }
      std::shared_ptr<const RelationSnapshot> live =
          Unwrap(service->Snapshot(session), "Snapshot");
      if (live->fingerprint() != replica.current->fingerprint()) {
        report->Fail("service_churn.replica",
                     "layer replay diverged from the service");
      }
    }
  });

  // The session after every batch must equal a from-scratch snapshot of
  // the value-level mirror.
  Relation expected = Unwrap(
      [&]() -> Result<Relation> {
        RelationBuilder builder(base.schema());
        for (size_t id : mirror) {
          builder.AddRow(id < base.num_rows()
                             ? base.Row(id)
                             : insert_pool.Row(id - base.num_rows()));
        }
        return builder.Finish();
      }(),
      "mirror relation");
  DiscoveryMemo memo;
  std::shared_ptr<const RelationSnapshot> rebuilt =
      Unwrap(RelationSnapshot::FromRelation(expected, service_options.discovery,
                                            service_options.leakage, &memo),
             "FromRelation");
  std::shared_ptr<const RelationSnapshot> live =
      Unwrap(service->Snapshot(session), "Snapshot");
  if (live->fingerprint() != rebuilt->fingerprint() ||
      live->profile().metadata.Serialize() !=
          rebuilt->profile().metadata.Serialize()) {
    report->Fail("service_churn.mirror",
                 "session state differs from a rebuild of the mirror");
  }
}

// ---------------------------------------------------------------------
// federation_sweep: SweepPolicyPareto over the four policies of the
// fintech example, bank+telco coalition against the insurer.

struct Federation {
  FederationTopology topology;
  TopologyOptions options;
  CoalitionSpec coalition;
  std::vector<MetadataPolicy> policies;
};

std::unique_ptr<Federation> BuildFederation(
    const datasets::FintechFederationScenario& data, uint64_t seed,
    size_t pool) {
  auto fed = std::make_unique<Federation>();
  FederationTopology& topo = fed->topology;
  const size_t bank = topo.AddParty(Party("bank", data.bank, "customer_id"));
  const size_t telco =
      topo.AddParty(Party("telco", data.telco, "customer_id"));
  const size_t insurer =
      topo.AddParty(Party("insurer", data.insurer, "customer_id"));
  MetadataPolicy defended = MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "generalized");
  defended.transforms = {MetadataTransform::GeneralizeDomains(
      /*widen_fraction=*/1.0, /*pad_values=*/16, /*quantize_buckets=*/6)};
  if (!topo.AddEdge(telco, bank, MetadataPolicy::FullDisclosure()).ok() ||
      !topo.AddEdge(insurer, bank, defended).ok() ||
      !topo.AddEdge(insurer, telco, defended).ok()) {
    std::fprintf(stderr, "topology construction failed\n");
    std::exit(2);
  }
  fed->options.label_party = bank;
  fed->options.train.epochs = kFederationEpochs;
  fed->options.attack_rounds = kFederationAttackRounds;
  fed->options.threads = pool;
  fed->options.experiment_seed = seed ^ 0xFED;
  fed->coalition.attackers = {bank, telco};
  fed->policies.push_back(MetadataPolicy::FullDisclosure());
  fed->policies.push_back(MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "domains-only"));
  fed->policies.push_back(defended);
  fed->policies.push_back(
      MetadataPolicy::AtLevel(DisclosureLevel::kNames, "names-only"));
  return fed;
}

void RunFederationSweep(uint64_t seed, double seconds, bool trace,
                        size_t pool, RunReport* report) {
  datasets::FintechFederationOptions data_options;
  data_options.population = kFederationPopulation;
  data_options.seed = seed;
  const datasets::FintechFederationScenario data =
      datasets::FintechFederation(data_options);
  // Set-up: the topology build and PSI alignment examples/fintech_vfl.cpp
  // makes before it attacks.
  std::unique_ptr<Federation> fed;
  size_t aligned = 0;
  RepeatSetup(report, [&] {
    fed = BuildFederation(data, seed, pool);
    aligned = Unwrap(fed->topology.Align(fed->options), "Align")
                  .intersection_size();
  });
  report->counters["aligned"] = static_cast<double>(aligned);
  if (aligned == 0) report->Fail("federation_sweep.align", "no rows aligned");

  std::optional<std::vector<ParetoPoint>> previous;
  auto traced_sweep = [&]() -> Result<std::vector<ParetoPoint>> {
    double spans = 0.0;
    std::vector<ParetoPoint> points;
    Status status = Status::OK();
    const double ms = TimeMs([&] {
      status = [&]() -> Status {
        Result<TopologyAlignment> alignment = Status::OK();
        double t = TimeMs(
            [&] { alignment = fed->topology.Align(fed->options); });
        report->Sample("vfl.align_ms", t);
        spans += t;
        METALEAK_RETURN_NOT_OK(alignment.status());
        for (const MetadataPolicy& policy : fed->policies) {
          CoalitionSpec spec = fed->coalition;
          spec.policy_override = policy;
          Result<CoalitionOutcome> attack = Status::OK();
          t = TimeMs([&] {
            attack = fed->topology.EvaluateCoalition(*alignment, spec,
                                                     fed->options);
          });
          report->Sample("vfl.coalition_ms", t);
          spans += t;
          METALEAK_RETURN_NOT_OK(attack.status());
          Result<UtilityOutcome> utility = Status::OK();
          t = TimeMs([&] {
            utility = fed->topology.EvaluateUtility(
                *alignment, fed->options, attack->victims, policy);
          });
          report->Sample("vfl.utility_ms", t);
          spans += t;
          METALEAK_RETURN_NOT_OK(utility.status());
          ParetoPoint point;
          point.policy_name = policy.name;
          point.joint_accuracy = utility->joint_accuracy;
          point.reconstructed = attack->reconstructed;
          // attack_rounds > 1, so every reconstruction carries its
          // Monte-Carlo summary.
          if (attack->reconstructed) {
            if (!attack->monte_carlo.has_value()) {
              return Status::Invalid("reconstruction without Monte-Carlo");
            }
            point.leakage_rate = attack->monte_carlo->overall_match_rate;
            point.mean_mse = attack->monte_carlo->mean_mse;
            point.mi_leakage_bits = attack->monte_carlo->mean_mi_bits;
          }
          points.push_back(std::move(point));
        }
        MarkParetoFrontier(&points);
        return Status::OK();
      }();
    });
    report->Sample("traced_op_ms", ms);
    report->Sample("unattributed_ms", ms - spans);
    METALEAK_RETURN_NOT_OK(status);
    return points;
  };

  ClosedLoop(seconds, report, [&] {
    ++report->attempted;
    Result<std::vector<ParetoPoint>> points = Status::OK();
    report->Sample("op_ms", TimeMs([&] {
                     points = SweepPolicyPareto(fed->topology, fed->options,
                                                fed->coalition, fed->policies);
                   }));
    if (!points.ok() || points->size() != fed->policies.size() ||
        (previous.has_value() && !SamePareto(*points, *previous))) {
      report->Fail("federation_sweep.repeat",
                   points.ok() ? "sweep differs from the previous sweep"
                               : points.status().ToString());
    } else {
      previous = std::move(*points);
    }
    if (trace) {
      Result<std::vector<ParetoPoint>> traced = traced_sweep();
      if (!traced.ok() || !previous.has_value() ||
          !SamePareto(*traced, *previous)) {
        report->Fail("federation_sweep.traced",
                     "layer replay differs from SweepPolicyPareto");
      }
    }
  });
  if (!previous.has_value() || previous->empty()) {
    report->Fail("federation_sweep.points", "no sweep completed");
  }
}

// ---------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if ((argc - 1) % 2 != 0 || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench_workloads --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }

  const size_t pool = HostThreads();
  SetGlobalThreadCount(pool);

  RunReport report;
  report.record["workload"] = JsonString(workload);
  report.record["seed"] = std::to_string(seed);
  report.record["trace"] = trace ? "true" : "false";
  report.record["host_threads"] = std::to_string(pool);
  report.record["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  report.record["pool_threads"] = std::to_string(GlobalThreadCount());
  report.record["simd_active"] = JsonString(SimdLevelName(ActiveSimdLevel()));
  report.record["simd_supported"] =
      JsonString(SimdLevelName(SupportedSimdLevel()));

  if (workload == "audit_cold") {
    RunAuditCold(seed, seconds, trace, pool, &report);
  } else if (workload == "attack_rounds") {
    RunAttackRounds(seed, seconds, trace, pool, &report);
  } else if (workload == "service_churn") {
    RunServiceChurn(seed, seconds, trace, pool, &report);
  } else if (workload == "federation_sweep") {
    RunFederationSweep(seed, seconds, trace, pool, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  report.failed = std::min(report.failed, report.attempted);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace metaleak

int main(int argc, char** argv) { return metaleak::Main(argc, argv); }
