#include "generation/cfd_generator.h"

#include <cmath>
#include <unordered_map>

#include "common/macros.h"

namespace metaleak {

Result<EncodedCfdPlan> BuildEncodedCfdPlan(
    const std::vector<ConditionalFd>& cfds,
    const std::vector<Domain>& domains,
    const std::vector<EncodedBatch::ColumnKind>& kinds) {
  const size_t m = kinds.size();
  if (domains.size() != m) {
    return Status::Invalid("domains not parallel to schema");
  }
  for (const ConditionalFd& cfd : cfds) {
    if (cfd.condition_attr >= m || cfd.rhs >= m) {
      return Status::OutOfRange("CFD attribute out of range");
    }
    for (size_t i : cfd.lhs.ToIndices()) {
      if (i >= m) {
        return Status::OutOfRange("CFD LHS attribute out of range");
      }
    }
  }

  EncodedCfdPlan plan;
  plan.kinds_ = kinds;

  // A column mixing ints with doubles, or strings with numbers, has no
  // single physical type: over boxed Values the chase's output would
  // need a data-dependent coercion per round that changes the hashes
  // and equalities the chase itself observes. Fixed codes cannot carry
  // that, so such a domain is rejected.
  if (!cfds.empty()) {
    for (size_t c = 0; c < m; ++c) {
      if (kinds[c] != EncodedBatch::ColumnKind::kCodes) continue;
      bool has_int = false;
      bool has_double = false;
      bool has_string = false;
      for (const Value& v : domains[c].values()) {
        has_int |= v.is_int();
        has_double |= v.is_double();
        has_string |= v.is_string();
      }
      if ((has_int && has_double) ||
          (has_string && (has_int || has_double))) {
        return Status::Invalid("mixed-type domain under CFD repair");
      }
    }
  }

  plan.hash_by_code_.resize(m);
  for (size_t c = 0; c < m; ++c) {
    if (kinds[c] != EncodedBatch::ColumnKind::kCodes) continue;
    const std::vector<Value>& vals = domains[c].values();
    std::vector<size_t>& table = plan.hash_by_code_[c];
    table.resize(vals.size() + 1);
    table[0] = Value::Null().Hash();
    for (size_t i = 0; i < vals.size(); ++i) table[i + 1] = vals[i].Hash();
  }

  plan.rules_.reserve(cfds.size());
  for (const ConditionalFd& cfd : cfds) {
    EncodedCfdPlan::Rule rule;
    rule.condition_attr = cfd.condition_attr;
    rule.rhs = cfd.rhs;
    rule.lhs = cfd.lhs.ToIndices();
    rule.rhs_is_constant = cfd.rhs_is_constant;

    if (kinds[cfd.condition_attr] == EncodedBatch::ColumnKind::kCodes) {
      rule.condition_is_code = true;
      // The column only ever holds domain codes (and representable
      // constants, which are domain codes too), so a condition outside
      // the domain can never match a cell.
      rule.never_fires =
          !DomainCodeOf(domains[cfd.condition_attr].values(),
                        cfd.condition_value, &rule.condition_code);
    } else {
      // Real-stored cells are always doubles; any other condition type
      // fails structural equality against every cell.
      if (cfd.condition_value.is_double()) {
        rule.condition_real = cfd.condition_value.AsNumeric();
      } else {
        rule.never_fires = true;
      }
    }

    if (cfd.rhs_is_constant) {
      if (!rule.never_fires) {
        if (kinds[cfd.rhs] == EncodedBatch::ColumnKind::kCodes) {
          if (!DomainCodeOf(domains[cfd.rhs].values(), cfd.rhs_value,
                            &rule.rhs_code)) {
            return Status::Invalid(
                "CFD constant not representable in the target domain");
          }
        } else {
          // NaN is the leakage scan's skip marker, so a NaN constant
          // could not be scored as a value.
          if (!cfd.rhs_value.is_double() ||
              std::isnan(cfd.rhs_value.AsNumeric())) {
            return Status::Invalid(
                "non-double CFD constant on a continuous column");
          }
          rule.rhs_real = cfd.rhs_value.AsNumeric();
        }
      }
    } else {
      if (kinds[cfd.rhs] == EncodedBatch::ColumnKind::kCodes) {
        rule.sample_k = domains[cfd.rhs].values().size();
      } else {
        rule.sample_lo = domains[cfd.rhs].lo();
        rule.sample_hi = domains[cfd.rhs].hi();
      }
    }
    plan.rules_.push_back(std::move(rule));
  }

  // Constants first, then variables — the single-writer priority order.
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (cfds[i].rhs_is_constant) plan.order_.push_back(i);
  }
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (!cfds[i].rhs_is_constant) plan.order_.push_back(i);
  }
  return plan;
}

Status ApplyCfdsEncoded(const EncodedCfdPlan& plan, EncodedBatch* batch,
                        Rng* rng) {
  if (rng == nullptr) return Status::Invalid("rng must not be null");
  const size_t m = plan.kinds_.size();
  if (batch->num_columns() != m) {
    return Status::Invalid("batch layout does not match CFD plan");
  }
  const size_t n = batch->num_rows();

  // Bounded chase with single-writer cells: for every (row, attribute)
  // at most one rule writes per pass — constant CFDs first (they pin the
  // cell to a disclosed value), then variable CFDs in disclosure order.
  // Applying one CFD can change cells another CFD's condition reads, so
  // passes repeat until stable or the budget runs out. Variable-CFD
  // mappings persist across passes, keyed by an FNV fold of the LHS
  // cells' Value::Hash.
  std::vector<std::unordered_map<size_t, uint32_t>> code_maps(
      plan.rules_.size());
  std::vector<std::unordered_map<size_t, double>> real_maps(
      plan.rules_.size());

  auto lhs_key = [&](const EncodedCfdPlan::Rule& rule, size_t r) {
    size_t key = 0x811C9DC5u;
    for (size_t i : rule.lhs) {
      size_t h;
      if (plan.kinds_[i] == EncodedBatch::ColumnKind::kCodes) {
        h = plan.hash_by_code_[i][batch->code_at(i, r)];
      } else {
        h = Value::Real(batch->reals(i)[r]).Hash();
      }
      key ^= h;
      key *= 0x01000193u;
    }
    return key;
  };

  thread_local std::vector<bool> written;
  const size_t max_passes = 2 * m + 4;
  for (size_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    written.assign(n * m, false);
    for (size_t oi : plan.order_) {
      const EncodedCfdPlan::Rule& rule = plan.rules_[oi];
      if (rule.never_fires) continue;
      for (size_t r = 0; r < n; ++r) {
        bool condition_holds;
        if (rule.condition_is_code) {
          condition_holds =
              batch->code_at(rule.condition_attr, r) == rule.condition_code;
        } else {
          condition_holds =
              batch->reals(rule.condition_attr)[r] == rule.condition_real;
        }
        if (!condition_holds) continue;
        if (written[r * m + rule.rhs]) continue;  // cell already claimed
        if (plan.kinds_[rule.rhs] == EncodedBatch::ColumnKind::kCodes) {
          uint32_t desired;
          if (rule.rhs_is_constant) {
            desired = rule.rhs_code;
          } else {
            size_t key = lhs_key(rule, r);
            auto it = code_maps[oi].find(key);
            if (it == code_maps[oi].end()) {
              it = code_maps[oi]
                       .emplace(key, static_cast<uint32_t>(
                                         rng->UniformIndex(rule.sample_k)) +
                                         1)
                       .first;
            }
            desired = it->second;
          }
          written[r * m + rule.rhs] = true;
          if (batch->code_at(rule.rhs, r) != desired) {
            batch->set_code(rule.rhs, r, desired);
            changed = true;
          }
        } else {
          double desired;
          if (rule.rhs_is_constant) {
            desired = rule.rhs_real;
          } else {
            size_t key = lhs_key(rule, r);
            auto it = real_maps[oi].find(key);
            if (it == real_maps[oi].end()) {
              it = real_maps[oi]
                       .emplace(key, rng->UniformDouble(rule.sample_lo,
                                                        rule.sample_hi))
                       .first;
            }
            desired = it->second;
          }
          written[r * m + rule.rhs] = true;
          double& cell = batch->reals(rule.rhs)[r];
          if (cell != desired) {
            cell = desired;
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }
  return Status::OK();
}

}  // namespace metaleak
