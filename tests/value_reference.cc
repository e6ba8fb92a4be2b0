#include "value_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "metadata/dependency_graph.h"
#include "privacy/risk_estimator.h"

namespace metaleak::reference {

namespace {

// Sorted distinct values of a column (Value total order).
std::vector<Value> SortedDistinct(const std::vector<Value>& column) {
  std::vector<Value> vals = column;
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

// Local dictionary encoding of one generated column: codes[r] is the rank
// of column[r] among the sorted distinct values. Pools and mappings below
// index vectors by these dense codes instead of hashing `Value`s.
std::vector<uint32_t> EncodeByRank(const std::vector<Value>& column,
                                   const std::vector<Value>& distinct) {
  std::vector<uint32_t> codes;
  codes.reserve(column.size());
  for (const Value& v : column) {
    codes.push_back(static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), v) -
        distinct.begin()));
  }
  return codes;
}

// Folds the per-column codes of a composite LHS into one dense group id
// per row (same fold as PositionListIndex::FromEncoded). The empty LHS
// (constant FD {} -> A) yields a single group. Group ids are numbered by
// first occurrence in row order, so lazy sampling keyed by id draws from
// the RNG in exactly the row-scan order the Value-hash path used.
std::pair<std::vector<uint32_t>, uint32_t> FoldLhsGroups(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    size_t num_rows) {
  std::vector<uint32_t> ids(num_rows, 0);
  uint32_t num_groups = 1;
  for (const std::vector<Value>* col : lhs_columns) {
    std::vector<Value> distinct = SortedDistinct(*col);
    std::vector<uint32_t> codes = EncodeByRank(*col, distinct);
    std::unordered_map<uint64_t, uint32_t> remap;
    remap.reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      uint64_t key = static_cast<uint64_t>(ids[r]) * distinct.size() +
                     codes[r];
      auto it = remap.emplace(key, static_cast<uint32_t>(remap.size()))
                    .first;
      ids[r] = it->second;
    }
    num_groups = static_cast<uint32_t>(remap.size());
  }
  return {std::move(ids), num_groups};
}

// `count` non-decreasing order statistics over `domain`.
std::vector<Value> SortedSamples(const Domain& domain, size_t count,
                                 Rng* rng) {
  std::vector<Value> out;
  out.reserve(count);
  if (domain.is_continuous()) {
    std::vector<double> xs(count);
    for (double& x : xs) x = rng->UniformDouble(domain.lo(), domain.hi());
    std::sort(xs.begin(), xs.end());
    for (double x : xs) out.push_back(Value::Real(x));
    return out;
  }
  const std::vector<Value>& vals = domain.values();
  METALEAK_DCHECK(!vals.empty());
  std::vector<size_t> idx(count);
  for (size_t& i : idx) i = rng->UniformIndex(vals.size());
  std::sort(idx.begin(), idx.end());
  for (size_t i : idx) out.push_back(vals[i]);
  return out;
}

// `count` strictly increasing values where possible (see header).
std::vector<Value> StrictSortedSamples(const Domain& domain, size_t count,
                                       Rng* rng) {
  if (domain.is_continuous()) {
    // Continuous uniforms are distinct almost surely; re-draw collisions.
    std::vector<double> xs(count);
    for (double& x : xs) x = rng->UniformDouble(domain.lo(), domain.hi());
    std::sort(xs.begin(), xs.end());
    std::vector<Value> out;
    out.reserve(count);
    for (double x : xs) out.push_back(Value::Real(x));
    return out;
  }
  const std::vector<Value>& vals = domain.values();
  if (vals.size() >= count) {
    std::vector<size_t> picked = rng->SampleWithoutReplacement(vals.size(),
                                                               count);
    std::sort(picked.begin(), picked.end());
    std::vector<Value> out;
    out.reserve(count);
    for (size_t i : picked) out.push_back(vals[i]);
    return out;
  }
  // Domain too small for a strict walk: forced transitions collapse to the
  // non-decreasing assignment.
  return SortedSamples(domain, count, rng);
}

}  // namespace

std::vector<Value> GenerateRootColumn(const Domain& domain, size_t num_rows,
                                      Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) out.push_back(domain.Sample(rng));
  return out;
}

std::vector<Value> GenerateFdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  std::vector<Value> out;
  out.reserve(num_rows);
  auto [ids, num_groups] = FoldLhsGroups(lhs_columns, num_rows);
  // One lazily-sampled target per LHS group, indexed by dense group id.
  std::vector<Value> mapping(num_groups, Value::Null());
  std::vector<bool> sampled(num_groups, false);
  for (size_t r = 0; r < num_rows; ++r) {
    uint32_t id = ids[r];
    if (!sampled[id]) {
      mapping[id] = domain.Sample(rng);
      sampled[id] = true;
    }
    out.push_back(mapping[id]);
  }
  return out;
}

std::vector<Value> GenerateAfdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, double g3_error, Rng* rng) {
  std::vector<Value> out =
      GenerateFdColumn(lhs_columns, domain, num_rows, rng);
  // The epsilon fraction of correctly-scattered violations (Section IV-A):
  // re-drawn rows are independent of the mapping.
  for (size_t r = 0; r < num_rows; ++r) {
    if (rng->Bernoulli(std::clamp(g3_error, 0.0, 1.0))) {
      out[r] = domain.Sample(rng);
    }
  }
  return out;
}

std::vector<Value> GenerateNdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    size_t max_fanout, Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  size_t k = std::max<size_t>(1, max_fanout);
  std::vector<Value> distinct = SortedDistinct(lhs_column);
  std::vector<uint32_t> codes = EncodeByRank(lhs_column, distinct);
  // Per-LHS-value pools in one flat arena with constant stride: every
  // pool has the same size (min(k, |Dom(Y)|) when categorical, k
  // otherwise), so pool i is pools[i*take, (i+1)*take). Pools fill
  // lazily in row-scan order, so RNG consumption is identical to the
  // per-pool-vector layout this replaces.
  const size_t take = domain.is_categorical()
                          ? std::min(k, domain.values().size())
                          : k;
  std::vector<Value> pools(distinct.size() * take, Value::Null());
  std::vector<char> filled(distinct.size(), 0);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const uint32_t code = codes[r];
    Value* pool = pools.data() + code * take;
    if (!filled[code]) {
      filled[code] = 1;
      if (domain.is_categorical()) {
        const std::vector<Value>& vals = domain.values();
        // Sampling without replacement from Dom(Y): the hyper-geometric
        // selection in the paper's ND analysis.
        size_t j = 0;
        for (size_t i : rng->SampleWithoutReplacement(vals.size(), take)) {
          pool[j++] = vals[i];
        }
      } else {
        for (size_t i = 0; i < take; ++i) pool[i] = domain.Sample(rng);
      }
    }
    out.push_back(pool[rng->UniformIndex(take)]);
  }
  return out;
}

namespace {

std::vector<Value> GenerateOrderedColumn(const std::vector<Value>& lhs_column,
                                         const Domain& domain,
                                         size_t num_rows, bool strict,
                                         Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  std::vector<Value> distinct = SortedDistinct(lhs_column);
  std::vector<Value> targets =
      strict ? StrictSortedSamples(domain, distinct.size(), rng)
             : SortedSamples(domain, distinct.size(), rng);
  // Map the i-th smallest LHS value to the i-th order statistic: this is
  // exactly the interval-partition assignment of Section IV-C and keeps
  // the order dependency satisfied by construction. The rank codes *are*
  // the mapping — targets is indexed directly by code.
  std::vector<uint32_t> codes = EncodeByRank(lhs_column, distinct);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (uint32_t code : codes) out.push_back(targets[code]);
  return out;
}

}  // namespace

std::vector<Value> GenerateOdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    Rng* rng) {
  return GenerateOrderedColumn(lhs_column, domain, num_rows,
                               /*strict=*/false, rng);
}

std::vector<Value> GenerateOfdColumn(const std::vector<Value>& lhs_column,
                                     const Domain& domain, size_t num_rows,
                                     Rng* rng) {
  return GenerateOrderedColumn(lhs_column, domain, num_rows,
                               /*strict=*/true, rng);
}

Result<std::vector<Value>> GenerateDdColumn(
    const std::vector<Value>& lhs_column, const Domain& domain,
    size_t num_rows, double lhs_epsilon, double rhs_delta, Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  if (domain.is_categorical()) {
    return Status::TypeError(
        "differential generation requires a continuous target domain");
  }
  if (lhs_column.size() != num_rows) {
    return Status::Invalid("LHS column size mismatch");
  }
  // Order rows by LHS value; walk the chain generating each RHS relative
  // to its predecessor when the LHS values are proximal (Markov process).
  std::vector<size_t> order(num_rows);
  for (size_t i = 0; i < num_rows; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lhs_column[a] < lhs_column[b];
  });

  std::vector<Value> out(num_rows);
  double prev_x = 0.0;
  double prev_y = 0.0;
  bool has_prev = false;
  for (size_t pos = 0; pos < num_rows; ++pos) {
    size_t row = order[pos];
    double x = lhs_column[row].is_numeric() ? lhs_column[row].AsNumeric()
                                            : 0.0;
    double y;
    if (has_prev && std::abs(x - prev_x) <= lhs_epsilon) {
      double lo = std::max(domain.lo(), prev_y - rhs_delta);
      double hi = std::min(domain.hi(), prev_y + rhs_delta);
      if (lo > hi) {
        lo = domain.lo();
        hi = domain.hi();
      }
      y = rng->UniformDouble(lo, hi);
    } else {
      y = rng->UniformDouble(domain.lo(), domain.hi());
    }
    out[row] = Value::Real(y);
    prev_x = x;
    prev_y = y;
    has_prev = true;
  }
  return out;
}

Result<GenerationOutcome> GenerateSyntheticValuePath(
    const MetadataPackage& metadata, size_t num_rows, Rng* rng,
    const GenerationOptions& options) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                            metadata.RequireDomains());
  const size_t m = metadata.schema.num_attributes();

  DependencySet usable;
  if (!options.ignore_dependencies) {
    usable = metadata.dependencies;
  }
  DependencyGraph plan =
      DependencyGraph::Build(m, usable, options.allowed_kinds);

  std::vector<std::vector<Value>> columns(m);
  for (const GenerationStep& step : plan.steps()) {
    const size_t target = step.attribute;
    const Domain& domain = domains[target];
    const bool has_distribution =
        options.use_distributions &&
        target < metadata.distributions.size() &&
        metadata.distributions[target].has_value();
    if (!step.via.has_value()) {
      if (has_distribution) {
        // Distribution-disclosure extension: sample the real marginal.
        std::vector<Value> col;
        col.reserve(num_rows);
        for (size_t r = 0; r < num_rows; ++r) {
          col.push_back(metadata.distributions[target]->Sample(rng));
        }
        columns[target] = std::move(col);
      } else {
        columns[target] = GenerateRootColumn(domain, num_rows, rng);
      }
      continue;
    }
    const Dependency& dep = *step.via;
    std::vector<const std::vector<Value>*> lhs_columns;
    for (size_t i : dep.lhs.ToIndices()) {
      METALEAK_DCHECK(!columns[i].empty() || num_rows == 0);
      lhs_columns.push_back(&columns[i]);
    }
    switch (dep.kind) {
      case DependencyKind::kFunctional:
        columns[target] =
            GenerateFdColumn(lhs_columns, domain, num_rows, rng);
        break;
      case DependencyKind::kApproximateFunctional:
        columns[target] = GenerateAfdColumn(lhs_columns, domain, num_rows,
                                            dep.g3_error, rng);
        break;
      case DependencyKind::kNumerical:
        columns[target] = GenerateNdColumn(*lhs_columns[0], domain,
                                           num_rows, dep.max_fanout, rng);
        break;
      case DependencyKind::kOrder:
        columns[target] =
            GenerateOdColumn(*lhs_columns[0], domain, num_rows, rng);
        break;
      case DependencyKind::kOrderedFunctional:
        columns[target] =
            GenerateOfdColumn(*lhs_columns[0], domain, num_rows, rng);
        break;
      case DependencyKind::kDifferential: {
        Result<std::vector<Value>> col =
            GenerateDdColumn(*lhs_columns[0], domain, num_rows,
                             dep.lhs_epsilon, dep.rhs_delta, rng);
        if (!col.ok()) {
          // A DD onto a categorical RHS cannot drive generation; fall
          // back to the domain draw rather than failing the whole run.
          columns[target] = GenerateRootColumn(domain, num_rows, rng);
        } else {
          columns[target] = std::move(col).ValueUnsafe();
        }
        break;
      }
    }
  }

  // The synthetic schema mirrors the disclosed one, but generated values
  // are domain samples: continuous attributes become doubles regardless of
  // the source physical type. Relax the physical types accordingly.
  std::vector<Attribute> attrs = metadata.schema.attributes();
  for (size_t c = 0; c < m; ++c) {
    bool has_double = false;
    bool has_int = false;
    bool has_string = false;
    for (const Value& v : columns[c]) {
      has_double |= v.is_double();
      has_int |= v.is_int();
      has_string |= v.is_string();
    }
    if (has_string) {
      attrs[c].type = DataType::kString;
    } else if (has_double && !has_int) {
      attrs[c].type = DataType::kDouble;
    } else if (has_int && !has_double) {
      attrs[c].type = DataType::kInt64;
    } else if (has_double && has_int) {
      // Mixed numeric draws (e.g. continuous domain over an int column):
      // coerce everything to double.
      for (Value& v : columns[c]) {
        if (v.is_int()) v = Value::Real(static_cast<double>(v.AsInt()));
      }
      attrs[c].type = DataType::kDouble;
    }
  }

  METALEAK_ASSIGN_OR_RETURN(
      Relation rel,
      Relation::Make(Schema(std::move(attrs)), std::move(columns)));
  return GenerationOutcome{std::move(rel), std::move(plan)};
}

Result<Relation> ApplyCfds(const Relation& relation,
                           const std::vector<ConditionalFd>& cfds,
                           const std::vector<Domain>& domains, Rng* rng) {
  if (rng == nullptr) return Status::Invalid("rng must not be null");
  if (domains.size() != relation.num_columns()) {
    return Status::Invalid("domains not parallel to schema");
  }
  for (const ConditionalFd& cfd : cfds) {
    if (cfd.condition_attr >= relation.num_columns() ||
        cfd.rhs >= relation.num_columns()) {
      return Status::OutOfRange("CFD attribute out of range");
    }
    for (size_t i : cfd.lhs.ToIndices()) {
      if (i >= relation.num_columns()) {
        return Status::OutOfRange("CFD LHS attribute out of range");
      }
    }
  }

  std::vector<std::vector<Value>> columns;
  columns.reserve(relation.num_columns());
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    columns.push_back(relation.column(c));
  }

  // Bounded chase with single-writer cells: for every (row, attribute)
  // at most one rule writes per pass — constant CFDs first (they pin the
  // cell to a disclosed value), then variable CFDs in disclosure order.
  // Applying one CFD can change cells another CFD's condition reads, so
  // passes repeat until stable or the budget runs out. Rule sets mined
  // from consistent data converge quickly; arbitrary interacting sets are
  // repaired best-effort (full satisfaction is a constraint-satisfaction
  // problem the adversary has no reason to solve exactly).
  std::vector<size_t> order;  // constants first, then variables
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (cfds[i].rhs_is_constant) order.push_back(i);
  }
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (!cfds[i].rhs_is_constant) order.push_back(i);
  }
  std::vector<std::unordered_map<size_t, Value>> mappings(cfds.size());
  const size_t max_passes = 2 * relation.num_columns() + 4;
  for (size_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    // written[r*m + a] marks cells already claimed this pass.
    std::vector<bool> written(relation.num_rows() * relation.num_columns(),
                              false);
    const size_t m = relation.num_columns();
    for (size_t oi : order) {
      const ConditionalFd& cfd = cfds[oi];
      for (size_t r = 0; r < relation.num_rows(); ++r) {
        if (columns[cfd.condition_attr][r] != cfd.condition_value) {
          continue;
        }
        if (written[r * m + cfd.rhs]) continue;  // cell already claimed
        Value desired;
        if (cfd.rhs_is_constant) {
          desired = cfd.rhs_value;
        } else {
          size_t key = 0x811C9DC5u;
          for (size_t i : cfd.lhs.ToIndices()) {
            key ^= columns[i][r].Hash();
            key *= 0x01000193u;
          }
          auto it = mappings[oi].find(key);
          if (it == mappings[oi].end()) {
            it = mappings[oi].emplace(key, domains[cfd.rhs].Sample(rng))
                     .first;
          }
          desired = it->second;
        }
        written[r * m + cfd.rhs] = true;
        if (columns[cfd.rhs][r] != desired) {
          columns[cfd.rhs][r] = desired;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Re-derive physical types: constants/mappings may change a column's
  // value types (e.g. a string constant landing in an int column of the
  // synthetic schema).
  std::vector<Attribute> attrs = relation.schema().attributes();
  for (size_t c = 0; c < columns.size(); ++c) {
    bool has_double = false;
    bool has_int = false;
    bool has_string = false;
    for (const Value& v : columns[c]) {
      has_double |= v.is_double();
      has_int |= v.is_int();
      has_string |= v.is_string();
    }
    if (has_string && (has_int || has_double)) {
      for (Value& v : columns[c]) {
        if (!v.is_null() && !v.is_string()) v = Value::Str(v.ToString());
      }
      attrs[c].type = DataType::kString;
    } else if (has_string) {
      attrs[c].type = DataType::kString;
    } else if (has_double && has_int) {
      for (Value& v : columns[c]) {
        if (v.is_int()) v = Value::Real(static_cast<double>(v.AsInt()));
      }
      attrs[c].type = DataType::kDouble;
    } else if (has_double) {
      attrs[c].type = DataType::kDouble;
    } else if (has_int) {
      attrs[c].type = DataType::kInt64;
    }
  }
  return Relation::Make(Schema(std::move(attrs)), std::move(columns));
}

namespace {

// The generation options ExperimentEngine derives for each method.
GenerationOptions OptionsForMethod(GenerationMethod method) {
  GenerationOptions out;
  switch (method) {
    case GenerationMethod::kRandom:
    case GenerationMethod::kCfd:
      out.ignore_dependencies = true;
      break;
    case GenerationMethod::kFd:
      out.allowed_kinds = {DependencyKind::kFunctional};
      break;
    case GenerationMethod::kAfd:
      out.allowed_kinds = {DependencyKind::kApproximateFunctional};
      break;
    case GenerationMethod::kNd:
      out.allowed_kinds = {DependencyKind::kNumerical};
      break;
    case GenerationMethod::kOd:
      out.allowed_kinds = {DependencyKind::kOrder};
      break;
    case GenerationMethod::kDd:
      out.allowed_kinds = {DependencyKind::kDifferential};
      break;
    case GenerationMethod::kOfd:
      out.allowed_kinds = {DependencyKind::kOrderedFunctional};
      break;
    case GenerationMethod::kFull:
      break;
  }
  return out;
}

// One round: generate, repair (kCfd), score.
Result<LeakageReport> RunRound(const Relation& real,
                               const MetadataPackage& metadata,
                               GenerationMethod method, uint64_t round_seed,
                               const ExperimentConfig& config) {
  Rng round_rng(round_seed);
  METALEAK_ASSIGN_OR_RETURN(
      GenerationOutcome outcome,
      GenerateSyntheticValuePath(metadata, real.num_rows(), &round_rng,
                                 OptionsForMethod(method)));
  if (method == GenerationMethod::kCfd) {
    METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                              metadata.RequireDomains());
    METALEAK_ASSIGN_OR_RETURN(
        outcome.relation, ApplyCfds(outcome.relation,
                                    metadata.conditional_fds, domains,
                                    &round_rng));
  }
  return EvaluateLeakage(real, outcome.relation, config.leakage);
}

}  // namespace

Result<MethodResult> RunMethodValuePath(const Relation& real,
                                        const MetadataPackage& metadata,
                                        GenerationMethod method,
                                        const ExperimentConfig& config) {
  if (config.rounds == 0) {
    return Status::Invalid("experiment needs at least one round");
  }
  const size_t m = real.num_columns();
  MethodResult result;
  result.method = method;
  Rng rng(config.seed);
  for (size_t round = 0; round < config.rounds; ++round) {
    result.round_seeds.push_back(rng.ForkSeed());
  }

  std::vector<WelfordAccumulator> matches(m);
  std::vector<WelfordAccumulator> mse(m);
  for (uint64_t seed : result.round_seeds) {
    METALEAK_ASSIGN_OR_RETURN(LeakageReport report,
                              RunRound(real, metadata, method, seed, config));
    for (const AttributeLeakage& a : report.attributes) {
      matches[a.attribute].Add(static_cast<double>(a.matches));
      if (a.mse.has_value()) mse[a.attribute].Add(*a.mse);
    }
  }

  // Coverage: every attribute for the random baseline and the full
  // package, the CFD right-hand sides for kCfd, and the plan's derived
  // attributes for a single dependency class.
  std::vector<bool> covered(m, method == GenerationMethod::kRandom ||
                                   method == GenerationMethod::kFull);
  if (method == GenerationMethod::kCfd) {
    for (const ConditionalFd& cfd : metadata.conditional_fds) {
      if (cfd.rhs < m) covered[cfd.rhs] = true;
    }
  } else if (method != GenerationMethod::kRandom &&
             method != GenerationMethod::kFull) {
    const GenerationOptions options = OptionsForMethod(method);
    const DependencyGraph plan = DependencyGraph::Build(
        m, metadata.dependencies, options.allowed_kinds);
    for (const GenerationStep& step : plan.steps()) {
      covered[step.attribute] = step.via.has_value();
    }
  }

  RiskMeasureStats matches_col;
  matches_col.estimator = MatchRateEstimator::Instance().name();
  matches_col.measure = "matches";
  RiskMeasureStats mse_col;
  mse_col.estimator = matches_col.estimator;
  mse_col.measure = "mse";
  for (size_t c = 0; c < m; ++c) {
    matches_col.mean.push_back(matches[c].mean());
    matches_col.stddev.push_back(matches[c].stddev());
    matches_col.rounds.push_back(matches[c].count());
    mse_col.mean.push_back(mse[c].mean());
    mse_col.stddev.push_back(mse[c].stddev());
    mse_col.rounds.push_back(mse[c].count());

    MethodAttributeResult entry;
    entry.attribute = c;
    entry.name = real.schema().attribute(c).name;
    entry.semantic = real.schema().attribute(c).semantic;
    entry.covered = covered[c];
    for (const Value& v : real.column(c)) {
      if (!v.is_null()) ++entry.rows_compared;
    }
    entry.mean_matches = matches[c].mean();
    entry.stddev_matches = matches[c].stddev();
    if (mse[c].count() > 0) entry.mean_mse = mse[c].mean();
    result.attributes.push_back(std::move(entry));
  }
  result.measures.push_back(std::move(matches_col));
  result.measures.push_back(std::move(mse_col));
  return result;
}

Result<std::vector<MethodResult>> RunExperimentValuePath(
    const Relation& real, const MetadataPackage& metadata,
    const std::vector<GenerationMethod>& methods,
    const ExperimentConfig& config) {
  std::vector<MethodResult> out;
  Rng seeder(config.seed);
  for (GenerationMethod method : methods) {
    ExperimentConfig method_config = config;
    method_config.seed = seeder.Fork().engine()();
    METALEAK_ASSIGN_OR_RETURN(
        MethodResult r,
        RunMethodValuePath(real, metadata, method, method_config));
    out.push_back(std::move(r));
  }
  return out;
}

Result<LeakageReport> ReplayRoundValuePath(const Relation& real,
                                           const MetadataPackage& metadata,
                                           GenerationMethod method,
                                           uint64_t round_seed,
                                           const ExperimentConfig& config) {
  return RunRound(real, metadata, method, round_seed, config);
}

// --- Profile side ---------------------------------------------------------

namespace {

std::vector<Value> Project(const Relation& relation, size_t row,
                           const std::vector<size_t>& columns) {
  std::vector<Value> out;
  out.reserve(columns.size());
  for (size_t c : columns) out.push_back(relation.at(row, c));
  return out;
}

// (lhs tuple, rhs value) of every row with no NULL among `lhs` and `rhs`:
// the rows the order-based classes (OD, OFD, DD) constrain.
std::vector<std::pair<std::vector<Value>, Value>> OrderPoints(
    const Relation& relation, const std::vector<size_t>& lhs, size_t rhs) {
  auto is_null = [](const Value& v) { return v.is_null(); };
  std::vector<std::pair<std::vector<Value>, Value>> points;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    std::vector<Value> x = Project(relation, r, lhs);
    const Value& y = relation.at(r, rhs);
    if (y.is_null() || std::any_of(x.begin(), x.end(), is_null)) continue;
    points.emplace_back(std::move(x), y);
  }
  return points;
}

}  // namespace

std::vector<std::vector<size_t>> StrippedPartition(
    const Relation& relation, const std::vector<size_t>& columns) {
  std::map<std::vector<Value>, std::vector<size_t>> groups;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    groups[Project(relation, r, columns)].push_back(r);
  }
  std::vector<std::vector<size_t>> clusters;
  for (auto& [key, rows] : groups) {
    if (rows.size() >= 2) clusters.push_back(std::move(rows));
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

bool OrderHolds(const Relation& relation, const std::vector<size_t>& lhs,
                size_t rhs, bool strict) {
  const auto points = OrderPoints(relation, lhs, rhs);
  for (const auto& [xt, yt] : points) {
    for (const auto& [xu, yu] : points) {
      const bool violated = strict ? (xt == xu && !(yt == yu)) ||
                                         (xt < xu && !(yt < yu))
                                   : !(xu < xt) && yu < yt;
      if (violated) return false;
    }
  }
  return true;
}

Result<double> MinimalDelta(const Relation& relation,
                            const std::vector<size_t>& lhs,
                            const std::vector<double>& eps, size_t rhs) {
  METALEAK_DCHECK(lhs.size() == eps.size());
  const auto points = OrderPoints(relation, lhs, rhs);
  auto is_numeric = [](const Value& v) { return v.is_numeric(); };
  for (const auto& [x, y] : points) {
    if (!y.is_numeric() || !std::all_of(x.begin(), x.end(), is_numeric)) {
      return Status::TypeError(
          "differential dependencies require numeric attributes");
    }
  }
  double delta = 0.0;
  for (const auto& [xt, yt] : points) {
    for (const auto& [xu, yu] : points) {
      bool within = true;
      for (size_t k = 0; k < lhs.size(); ++k) {
        within = within &&
                 std::fabs(xt[k].AsNumeric() - xu[k].AsNumeric()) <= eps[k];
      }
      if (within) {
        delta = std::max(delta, std::fabs(yt.AsNumeric() - yu.AsNumeric()));
      }
    }
  }
  return delta;
}

FrequencyTable FrequencyTableOf(const Relation& relation, size_t attribute) {
  std::map<Value, size_t> freq;
  for (const Value& v : relation.column(attribute)) {
    if (!v.is_null()) ++freq[v];
  }
  FrequencyTable table;
  for (const auto& [value, count] : freq) {
    table.values.push_back(value);
    table.counts.push_back(count);
  }
  return table;
}

Result<ValueDistribution> DistributionOf(const Relation& relation,
                                         size_t attribute, size_t buckets) {
  if (relation.schema().attribute(attribute).semantic ==
      SemanticType::kCategorical) {
    return ValueDistribution::Categorical(
        FrequencyTableOf(relation, attribute));
  }
  std::vector<double> xs;
  for (const Value& v : relation.column(attribute)) {
    if (!v.is_null() && v.is_numeric()) xs.push_back(v.AsNumeric());
  }
  if (xs.empty() || buckets == 0) {
    return Status::Invalid("no numeric values or no buckets");
  }
  Histogram h;
  h.lo = *std::min_element(xs.begin(), xs.end());
  h.hi = *std::max_element(xs.begin(), xs.end());
  h.counts.assign(buckets, 0);
  for (double x : xs) ++h.counts[h.BucketOf(x)];
  return ValueDistribution::Continuous(std::move(h));
}


namespace {

// The FD lhs -> rhs restricted to `rows`, by its definition: rows that
// agree on every LHS value (NULL equals NULL) agree on the RHS value.
bool FdHoldsOn(const Relation& relation, const std::vector<size_t>& rows,
               const std::vector<size_t>& lhs, size_t rhs) {
  std::map<std::vector<Value>, Value> rhs_of;
  for (size_t r : rows) {
    auto [it, inserted] =
        rhs_of.emplace(Project(relation, r, lhs), relation.at(r, rhs));
    if (!inserted && !(it->second == relation.at(r, rhs))) return false;
  }
  return true;
}

std::vector<size_t> AllRows(const Relation& relation) {
  std::vector<size_t> rows(relation.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  return rows;
}

}  // namespace

Result<bool> ValidateCfd(const Relation& relation, const ConditionalFd& cfd) {
  const size_t n = relation.num_columns();
  if (cfd.condition_attr >= n || cfd.rhs >= n) {
    return Status::OutOfRange("CFD attribute index out of range");
  }
  for (size_t i : cfd.lhs.ToIndices()) {
    if (i >= n) return Status::OutOfRange("CFD LHS index out of range");
  }
  if (!cfd.rhs_is_constant && cfd.lhs.empty()) {
    return Status::Invalid("variable CFD needs a non-empty LHS");
  }
  std::vector<size_t> rows;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (relation.at(r, cfd.condition_attr) == cfd.condition_value) {
      rows.push_back(r);
    }
  }
  if (rows.empty()) return true;  // vacuous
  if (cfd.rhs_is_constant) {
    for (size_t r : rows) {
      if (!(relation.at(r, cfd.rhs) == cfd.rhs_value)) return false;
    }
    return true;
  }
  return FdHoldsOn(relation, rows, cfd.lhs.ToIndices(), cfd.rhs);
}

std::vector<ConditionalFd> DiscoverCfds(const Relation& relation,
                                        const CfdDiscoveryOptions& options) {
  std::vector<ConditionalFd> out;
  const size_t m = relation.num_columns();
  if (m == 0 || relation.num_rows() == 0) return out;
  // global[x][a]: the single-attribute FD x -> a holds on every row.
  const std::vector<size_t> all_rows = AllRows(relation);
  std::vector<std::vector<bool>> global(m, std::vector<bool>(m, false));
  for (size_t x = 0; x < m; ++x) {
    for (size_t a = 0; a < m; ++a) {
      global[x][a] = FdHoldsOn(relation, all_rows, {x}, a);
    }
  }
  auto fd_holds_globally = [&](size_t x, size_t a) {
    return options.skip_global_fds && global[x][a];
  };

  // Distinct non-null values per attribute, in order of first appearance.
  std::vector<std::vector<Value>> distinct(m);
  for (size_t c = 0; c < m; ++c) {
    std::unordered_set<Value> seen;
    for (const Value& v : relation.column(c)) {
      if (!v.is_null() && seen.insert(v).second) distinct[c].push_back(v);
    }
  }

  // Constant CFDs: [X=x] => A = a, for every value x whose rows all carry
  // one non-null A value.
  for (size_t x = 0; x < m; ++x) {
    if (distinct[x].size() > options.max_condition_distinct) continue;
    for (size_t a = 0; a < m; ++a) {
      if (a == x || fd_holds_globally(x, a)) continue;
      for (const Value& xv : distinct[x]) {
        std::vector<Value> a_values;
        for (size_t r = 0; r < relation.num_rows(); ++r) {
          if (relation.at(r, x) == xv) a_values.push_back(relation.at(r, a));
        }
        const bool pure = std::all_of(
            a_values.begin(), a_values.end(),
            [&](const Value& v) { return v == a_values.front(); });
        if (!pure || a_values.size() < options.min_support ||
            a_values.front().is_null()) {
          continue;
        }
        out.push_back(ConditionalFd::Constant(x, xv, a, a_values.front(),
                                              a_values.size()));
      }
    }
  }

  // Variable CFDs: [C=c] => (X -> A) with X -> A failing globally.
  for (size_t c = 0; c < m; ++c) {
    if (distinct[c].size() > options.max_condition_distinct) continue;
    for (const Value& cv : distinct[c]) {
      std::vector<size_t> rows;
      for (size_t r = 0; r < relation.num_rows(); ++r) {
        if (relation.at(r, c) == cv) rows.push_back(r);
      }
      if (rows.size() < options.min_support) continue;
      for (size_t x = 0; x < m; ++x) {
        if (x == c) continue;
        for (size_t a = 0; a < m; ++a) {
          if (a == x || a == c || fd_holds_globally(x, a)) continue;
          if (FdHoldsOn(relation, rows, {x}, a)) {
            out.push_back(ConditionalFd::Variable(
                c, cv, AttributeSet::Single(x), a, rows.size()));
          }
        }
      }
    }
  }
  return out;
}

}  // namespace metaleak::reference
