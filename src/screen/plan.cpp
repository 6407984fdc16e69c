#include "screen/plan.h"

#include <algorithm>

namespace df::screen {

RankPlan RankPlan::build(size_t total_poses, int poses_per_job, const JobConfig& job) {
  RankPlan plan;
  plan.total_poses = total_poses;
  plan.ranks_per_job = std::max(1, job.nodes) * std::max(1, job.gpus_per_node);
  const size_t per = static_cast<size_t>(std::max(1, poses_per_job));
  const size_t n_units = (total_poses + per - 1) / per;
  plan.units.reserve(n_units);
  for (size_t u = 0; u < n_units; ++u) {
    WorkUnit unit;
    unit.id = static_cast<uint32_t>(u);
    unit.pose_begin = u * per;
    unit.pose_end = std::min(total_poses, (u + 1) * per);
    unit.ranks = plan.ranks_per_job;
    plan.units.push_back(unit);
  }
  return plan;
}

}  // namespace df::screen
