// Campaign checkpoint: the compact state that makes a killed screening
// campaign resumable (paper §4.3 — wide jobs die and "another job takes
// its place"; here the whole driver process may die too). The checkpoint
// records, per work unit, its status and how many job attempts it consumed.
// Because every stochastic decision downstream of the plan is keyed on
// (campaign seed, unit id, attempt) — job scoring streams, fault draws,
// assay noise — the attempt counters ARE the RNG cursors, and the final
// CampaignReport is derivable from them bit-for-bit no matter where the
// previous process died. Serialized through the on-disk container of
// io/model_artifact.h (as model checkpoints are), written atomically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace df::screen {

/// Per-unit lifecycle. kExhausted means every retry failed; the unit wrote
/// no shard block and contributes zero predictions, like the paper's jobs
/// that die past their retry budget.
enum class UnitStatus : int64_t { Pending = 0, Done = 1, Exhausted = 2 };

struct CampaignCheckpoint {
  uint64_t campaign_seed = 0;
  uint64_t library_fingerprint = 0;  // guards resume against input drift
  int64_t total_poses = 0;
  // Plan geometry: fault draws and shard placement depend on these, so a
  // resume under a different geometry would silently break the
  // bit-identical guarantee — it must be rejected instead.
  int64_t poses_per_job = 0;
  int64_t nodes = 0;
  int64_t gpus_per_node = 0;
  int64_t num_shards = 0;
  // Scoring-service micro-batch size (ordered-stream chunk boundaries).
  // Batch composition feeds floating-point summation order, so resuming
  // under a different batch size would mix old-boundary bits (recovered
  // from shards) with new-boundary bits (re-run units) — rejected like the
  // rest of the geometry.
  int64_t scoring_batch = 0;
  std::vector<int64_t> unit_status;    // UnitStatus per work unit
  std::vector<int64_t> unit_attempts;  // job attempts consumed per unit

  int64_t units() const { return static_cast<int64_t>(unit_status.size()); }
};

/// Atomic write (tmp + rename): a kill during checkpointing leaves the
/// previous valid checkpoint in place, never a torn one.
void save_campaign_checkpoint(const CampaignCheckpoint& ck, const std::string& path);

/// Throws io::H5LiteError on damage (Format for a missing section or one of
/// the wrong dtype or size), std::runtime_error on schema drift or a unit
/// status outside UnitStatus or a negative attempt count.
CampaignCheckpoint load_campaign_checkpoint(const std::string& path);

}  // namespace df::screen
