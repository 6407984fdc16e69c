// RankPlan: the static partition of a campaign's pose list into work units,
// the §4.3 scheduling picture in miniature. Each unit is one scoring job
// (nodes x gpus ranks over a contiguous pose range) with a stable id; a
// killed unit is simply resubmitted ("another job takes its place"). Unit
// ids, not submission order, key the fault-injection draws, so the plan is
// the determinism anchor for checkpoint/resume and fault replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "screen/job.h"

namespace df::screen {

struct WorkUnit {
  uint32_t id = 0;          // stable index; keys fault draws and checkpoints
  size_t pose_begin = 0;    // contiguous range into the campaign pose list
  size_t pose_end = 0;
  int ranks = 1;            // nodes * gpus_per_node

  size_t poses() const { return pose_end - pose_begin; }
};

struct RankPlan {
  std::vector<WorkUnit> units;
  int ranks_per_job = 1;
  size_t total_poses = 0;

  /// Partition `total_poses` into `poses_per_job`-sized units shaped by
  /// `job` (width). Deterministic.
  static RankPlan build(size_t total_poses, int poses_per_job, const JobConfig& job);
};

}  // namespace df::screen
