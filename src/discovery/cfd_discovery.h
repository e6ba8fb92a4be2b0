// Discovery and validation of conditional functional dependencies.
#ifndef METALEAK_DISCOVERY_CFD_DISCOVERY_H_
#define METALEAK_DISCOVERY_CFD_DISCOVERY_H_

#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "metadata/conditional_fd.h"
#include "partition/pli_cache.h"

namespace metaleak {

struct CfdDiscoveryOptions {
  /// Minimum rows the condition must select.
  size_t min_support = 8;
  /// Only conditioning attributes with at most this many distinct values
  /// are tried (conditions on near-key attributes are noise).
  size_t max_condition_distinct = 16;
  /// Skip variable CFDs whose embedded FD also holds globally (those are
  /// plain FDs, reported by TANE).
  bool skip_global_fds = true;
};

/// True iff `cfd` holds on `relation`: among rows where the condition
/// attribute equals the condition value, the embedded (variable or
/// constant) dependency is satisfied. Vacuously true when no row
/// matches. Cells compare as Value == does: NULL condition cells never
/// match a non-null constant, and a constant that is absent from the
/// column's dictionary (or of another type) matches no cell.
Result<bool> ValidateCfd(const EncodedRelation& relation,
                         const ConditionalFd& cfd);

/// Encodes `relation` and delegates to the overload above.
Result<bool> ValidateCfd(const Relation& relation, const ConditionalFd& cfd);

/// Finds single-condition CFDs, reading (and filling) `cache`:
///   * variable form  [C=c] => (X -> A) with single-attribute X, where
///     the FD fails globally but holds on the condition's rows;
///   * constant form  [X=x] => (A = a), where every row with X=x carries
///     the same A value (and X -> A fails globally).
/// Constant CFDs come first, then variable ones; condition values are
/// tried in order of first appearance by row.
Result<std::vector<ConditionalFd>> DiscoverCfds(
    PliCache* cache, const CfdDiscoveryOptions& options = {});

/// Encodes `relation` and delegates to the overload above.
Result<std::vector<ConditionalFd>> DiscoverCfds(
    const Relation& relation, const CfdDiscoveryOptions& options = {});

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_CFD_DISCOVERY_H_
