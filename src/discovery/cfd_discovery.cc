#include "discovery/cfd_discovery.h"

#include <utility>

#include "discovery/validators.h"
#include "partition/position_list_index.h"

namespace metaleak {

namespace {

// The scoped FD [C=c] => (X -> A) for every condition code c at once:
// `pli` is pli(X ∪ {C}), so each of its clusters is one X group inside
// one condition's rows; a cluster that carries two A codes marks its
// condition code violated. Rows outside the stripped clusters are alone
// in their group and cannot violate. NULL is code 0 on every side, so
// NULL equals NULL as in every partition-based FD check.
void MarkScopedViolations(const PositionListIndex& pli,
                          const CodeColumnView& condition,
                          const CodeColumnView& rhs,
                          std::vector<bool>* violated) {
  for (PositionListIndex::ClusterView cluster : pli.clusters()) {
    const uint32_t first = rhs.at(cluster[0]);
    for (PositionListIndex::Row r : cluster) {
      if (rhs.at(r) != first) {
        (*violated)[condition.at(cluster[0])] = true;
        break;
      }
    }
  }
}

// (code, first row) of each non-null code of `column` with at least
// `min_support` rows, in order of first appearance by row.
std::vector<std::pair<uint32_t, size_t>> ConditionCodes(
    const CodeColumnView& column, const ColumnDictionary& dict,
    size_t min_support) {
  std::vector<std::pair<uint32_t, size_t>> order;
  std::vector<bool> seen(dict.num_codes(), false);
  seen[ColumnDictionary::kNullCode] = true;
  for (size_t r = 0; r < column.size; ++r) {
    const uint32_t code = column.at(r);
    if (!seen[code]) {
      seen[code] = true;
      if (dict.count(code) >= min_support) order.emplace_back(code, r);
    }
  }
  return order;
}

}  // namespace

Result<bool> ValidateCfd(const Relation& relation,
                         const ConditionalFd& cfd) {
  return ValidateCfd(EncodedRelation::Encode(relation), cfd);
}

Result<bool> ValidateCfd(const EncodedRelation& relation,
                         const ConditionalFd& cfd) {
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
  const ColumnDictionary& dict = relation.dictionary(cfd.condition_attr);
  uint32_t condition;
  if (!dict.Find(cfd.condition_value, &condition)) return true;  // vacuous
  const CodeColumnView cond = relation.column_view(cfd.condition_attr);
  const CodeColumnView rhs = relation.column_view(cfd.rhs);
  if (cfd.rhs_is_constant) {
    uint32_t constant;
    const bool present =
        relation.dictionary(cfd.rhs).Find(cfd.rhs_value, &constant);
    for (size_t r = 0; r < cond.size; ++r) {
      if (cond.at(r) == condition && (!present || rhs.at(r) != constant)) {
        return false;
      }
    }
    return true;
  }
  std::vector<bool> violated(dict.num_codes(), false);
  MarkScopedViolations(
      PositionListIndex::FromEncoded(
          relation, cfd.lhs.With(cfd.condition_attr).ToIndices()),
      cond, rhs, &violated);
  return !violated[condition];
}

Result<std::vector<ConditionalFd>> DiscoverCfds(
    const Relation& relation, const CfdDiscoveryOptions& options) {
  PliCache cache(&relation);
  return DiscoverCfds(&cache, options);
}

Result<std::vector<ConditionalFd>> DiscoverCfds(
    PliCache* cache, const CfdDiscoveryOptions& options) {
  const EncodedRelation& relation = cache->encoded();
  const size_t m = relation.num_columns();
  std::vector<ConditionalFd> out;
  if (m == 0 || relation.num_rows() == 0) return out;

  // Condition values of each low-cardinality attribute. A code's support
  // is its dictionary count, so a value seen on one row can qualify.
  std::vector<std::vector<std::pair<uint32_t, size_t>>> conditions(m);
  for (size_t c = 0; c < m; ++c) {
    const ColumnDictionary& dict = relation.dictionary(c);
    if (dict.num_distinct() <= options.max_condition_distinct) {
      conditions[c] = ConditionCodes(relation.column_view(c), dict,
                                     options.min_support);
    }
  }
  // violated[code] of the scoped FD [C=code] => (X -> A) for X = {x}, with
  // every code marked when X -> A holds globally (a plain FD). With
  // x == c the scope is one X group, so the FD reads "A is constant":
  // the constant CFD [X=code] => A = a.
  auto scoped_violations = [&](size_t c, size_t x, size_t a) {
    const bool global =
        options.skip_global_fds && ValidateFd(cache, AttributeSet::Single(x), a);
    std::vector<bool> violated(relation.dictionary(c).num_codes(), global);
    if (!global) {
      MarkScopedViolations(*cache->Get(AttributeSet::Single(x).With(c)),
                           relation.column_view(c), relation.column_view(a),
                           &violated);
    }
    return violated;
  };

  // --- Constant CFDs: [X=x] => A = a, a pure non-null X group -----------
  for (size_t x = 0; x < m; ++x) {
    if (conditions[x].empty()) continue;
    const ColumnDictionary& x_dict = relation.dictionary(x);
    for (size_t a = 0; a < m; ++a) {
      if (a == x) continue;
      const std::vector<bool> impure = scoped_violations(x, x, a);
      for (auto [code, first_row] : conditions[x]) {
        const uint32_t a_code = relation.code_at(first_row, a);
        if (impure[code] || a_code == ColumnDictionary::kNullCode) continue;
        out.push_back(ConditionalFd::Constant(
            x, x_dict.decode(code), a, relation.dictionary(a).decode(a_code),
            x_dict.count(code)));
      }
    }
  }

  // --- Variable CFDs: [C=c] => (X -> A) ---------------------------------
  for (size_t c = 0; c < m; ++c) {
    if (conditions[c].empty()) continue;
    const ColumnDictionary& c_dict = relation.dictionary(c);
    std::vector<std::vector<bool>> violated(m * m);  // [x * m + a]
    for (size_t x = 0; x < m; ++x) {
      for (size_t a = 0; a < m; ++a) {
        if (x != c && a != x && a != c) {
          violated[x * m + a] = scoped_violations(c, x, a);
        }
      }
    }
    for (auto [code, first_row] : conditions[c]) {
      for (size_t x = 0; x < m; ++x) {
        for (size_t a = 0; a < m; ++a) {
          if (x == c || a == x || a == c || violated[x * m + a][code]) {
            continue;
          }
          out.push_back(ConditionalFd::Variable(c, c_dict.decode(code),
                                                AttributeSet::Single(x), a,
                                                c_dict.count(code)));
        }
      }
    }
  }
  return out;
}

}  // namespace metaleak
