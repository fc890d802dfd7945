#include "join/fused_join.h"

#include <algorithm>
#include <utility>

namespace rj {

std::vector<std::size_t> FusedUploadColumns(
    const std::vector<FusedMemberSpec>& members) {
  std::vector<std::size_t> columns;
  for (const FusedMemberSpec& member : members) {
    const std::vector<std::size_t> own =
        UploadColumns(member.filters, member.weight_column);
    columns.insert(columns.end(), own.begin(), own.end());
  }
  // Canonical ascending order: the union is a set, and a deterministic
  // column order keeps the upload stride (and thus batch planning and the
  // transfer meter) independent of member order within the group.
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

Status ValidateFusedMembers(const data::PointBlockSource& source,
                            const PolygonSet& polys,
                            const std::vector<FusedMemberSpec>& members) {
  if (members.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  for (const FusedMemberSpec& member : members) {
    RJ_RETURN_NOT_OK(ValidateWeightColumnCount(source.num_attributes(),
                                               member.weight_column));
    RJ_RETURN_NOT_OK(
        ValidateFiltersCount(source.num_attributes(), member.filters));
  }
  return Status::OK();
}

data::TableBlockSource TableBatches(gpu::Device* device,
                                    const PointTable& points,
                                    const FusedMemberSpec& member,
                                    std::size_t batch_size,
                                    bool* overlap_transfers) {
  if (batch_size == 0) {
    // Points are transferred exactly once per tile pass, in batches sized
    // so the pipeline's in-flight buffers (2 when transfers overlap the
    // draw) fit the available budget.
    const UploadPlan plan = PlanUpload(
        device->bytes_free(), UploadStrideBytes(FusedUploadColumns({member})),
        points.size(), *overlap_transfers);
    batch_size = plan.batch_size;
    *overlap_transfers = plan.overlap_transfers;
  }
  return data::TableBlockSource(&points, std::max<std::size_t>(batch_size, 1));
}

JoinResult SoloResult(FusedJoinOutput* out) {
  JoinResult result;
  result.arrays = std::move(out->arrays[0]);
  result.timing = std::move(out->timing);
  return result;
}

}  // namespace rj
