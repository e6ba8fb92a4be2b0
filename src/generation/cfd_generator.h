// CFD-aware adversarial generation: enforce disclosed conditional FDs on
// an otherwise randomly generated relation.
//
// The adversary generates root values from the domains, then repairs the
// relation so every disclosed CFD holds: constant CFDs overwrite the RHS
// on matching rows with the disclosed constant; variable CFDs install a
// one-shot LHS -> RHS mapping within the condition's scope (the same
// one-time initialization argument as Section III-B, restricted to the
// scope).
#ifndef METALEAK_GENERATION_CFD_GENERATOR_H_
#define METALEAK_GENERATION_CFD_GENERATOR_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "metadata/conditional_fd.h"

namespace metaleak {

/// Chase rules pre-resolved against an EncodedBatch layout: condition
/// values and constant RHS values are translated to codes / raw doubles
/// once, and per-code Value hashes are tabulated so the variable-CFD
/// mapping keys are an FNV fold of Value::Hash, exactly as over boxed
/// Values (even hash *collisions* repeat exactly).
///
/// Repair is a bounded chase with single-writer cells (constant CFDs
/// take priority over variable ones on the same cell). A single CFD, or
/// any set whose rules write disjoint attributes, is enforced exactly;
/// densely interacting mined sets are repaired best-effort — exact
/// satisfaction of an arbitrary CFD set on fresh data is a
/// constraint-satisfaction problem the adversary has no reason to solve.
class EncodedCfdPlan {
 public:
  struct Rule {
    size_t condition_attr = 0;
    size_t rhs = 0;
    std::vector<size_t> lhs;
    bool rhs_is_constant = false;
    /// Condition value unrepresentable in the condition column: the rule
    /// can never fire (it would compare unequal to every cell).
    bool never_fires = false;
    bool condition_is_code = false;
    uint32_t condition_code = 0;
    double condition_real = 0.0;
    uint32_t rhs_code = 0;   // constant RHS, code-stored column
    double rhs_real = 0.0;   // constant RHS, real-stored column
    size_t sample_k = 0;     // variable RHS: domain size (code-stored)
    double sample_lo = 0.0;  // variable RHS: domain range (real-stored)
    double sample_hi = 0.0;
  };

  const std::vector<Rule>& rules() const { return rules_; }
  /// Rule application order: constants first, then variables.
  const std::vector<size_t>& order() const { return order_; }
  size_t num_columns() const { return kinds_.size(); }

 private:
  friend Result<EncodedCfdPlan> BuildEncodedCfdPlan(
      const std::vector<ConditionalFd>&, const std::vector<Domain>&,
      const std::vector<EncodedBatch::ColumnKind>&);
  friend Status ApplyCfdsEncoded(const EncodedCfdPlan&, EncodedBatch*,
                                 Rng*);

  std::vector<Rule> rules_;
  std::vector<size_t> order_;
  std::vector<EncodedBatch::ColumnKind> kinds_;
  std::vector<std::vector<size_t>> hash_by_code_;  // per code-stored column
};

/// Resolves `cfds` against the batch layout implied by `domains`/`kinds`.
/// OutOfRange for an attribute out of range; Invalid when the domains are
/// not parallel to the layout, when a code-stored domain mixes value
/// types (ints with doubles, or strings with numbers), or when a constant
/// RHS does not fit its column (a value outside a categorical domain, or
/// anything but a non-NaN double on a continuous column).
Result<EncodedCfdPlan> BuildEncodedCfdPlan(
    const std::vector<ConditionalFd>& cfds,
    const std::vector<Domain>& domains,
    const std::vector<EncodedBatch::ColumnKind>& kinds);

/// Runs the bounded chase on batch codes/doubles. Invalid when the batch
/// layout does not match the plan.
Status ApplyCfdsEncoded(const EncodedCfdPlan& plan, EncodedBatch* batch,
                        Rng* rng);

}  // namespace metaleak

#endif  // METALEAK_GENERATION_CFD_GENERATOR_H_
