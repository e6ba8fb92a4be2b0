#include "service/relation_snapshot.h"

#include <utility>

namespace metaleak {

Result<std::shared_ptr<const RelationSnapshot>>
RelationSnapshot::FromRelation(const Relation& relation,
                               const DiscoveryOptions& discovery,
                               const LeakageOptions& leakage,
                               DiscoveryMemo* memo) {
  return FromPublished(EncodedRelation::Encode(relation), {}, discovery,
                       leakage, DeltaTouch::None(relation.num_columns()),
                       memo);
}

Result<std::shared_ptr<const RelationSnapshot>>
RelationSnapshot::FromPublished(EncodedRelation published,
                                std::vector<PositionListIndex> singles,
                                const DiscoveryOptions& discovery,
                                const LeakageOptions& leakage,
                                const DeltaTouch& touch,
                                DiscoveryMemo* memo) {
  if (published.num_rows() == 0 || published.num_columns() == 0) {
    return Status::Invalid("cannot snapshot an empty relation");
  }
  auto snap = std::shared_ptr<RelationSnapshot>(new RelationSnapshot());
  snap->encoded_ = std::make_unique<EncodedRelation>(std::move(published));
  snap->cache_ = singles.empty()
                     ? std::make_unique<PliCache>(snap->encoded_.get())
                     : std::make_unique<PliCache>(snap->encoded_.get(),
                                                  std::move(singles));
  snap->fingerprint_ = snap->encoded_->Fingerprint();
  METALEAK_ASSIGN_OR_RETURN(
      snap->profile_, ProfileRelationIncremental(snap->cache_.get(),
                                                 discovery, touch, memo));
  METALEAK_ASSIGN_OR_RETURN(
      snap->leakage_, ComputeLeakageProfile(*snap->encoded_,
                                            snap->profile_.metadata, leakage));
  return std::shared_ptr<const RelationSnapshot>(std::move(snap));
}

}  // namespace metaleak
