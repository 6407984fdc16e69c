#include "screen/checkpoint.h"

#include <stdexcept>

#include "io/model_artifact.h"

namespace df::screen {

namespace {
constexpr int64_t kCheckpointSchema = 2;  // v2: + scoring_batch in geometry
}  // namespace

void save_campaign_checkpoint(const CampaignCheckpoint& ck, const std::string& path) {
  if (ck.unit_status.size() != ck.unit_attempts.size()) {
    throw std::invalid_argument("campaign checkpoint: status/attempts size mismatch");
  }
  io::ArtifactWriter w;
  w.add_scalar("schema", kCheckpointSchema);
  w.add_scalar("campaign_seed", static_cast<int64_t>(ck.campaign_seed));
  w.add_scalar("library_fingerprint", static_cast<int64_t>(ck.library_fingerprint));
  w.add_scalar("total_poses", ck.total_poses);
  const int64_t geom[] = {ck.poses_per_job, ck.nodes, ck.gpus_per_node, ck.num_shards,
                          ck.scoring_batch};
  w.add_ints("geometry", {5}, geom);
  w.add_ints("unit_status", {ck.units()}, ck.unit_status.data());
  w.add_ints("unit_attempts", {ck.units()}, ck.unit_attempts.data());
  w.save(path);
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  const auto r = io::ArtifactReader::open(path);
  if (!r->has("schema") || r->scalar("schema") != kCheckpointSchema) {
    throw std::runtime_error("campaign checkpoint: unsupported schema in " + path);
  }
  CampaignCheckpoint ck;
  ck.campaign_seed = static_cast<uint64_t>(r->scalar("campaign_seed"));
  ck.library_fingerprint = static_cast<uint64_t>(r->scalar("library_fingerprint"));
  ck.total_poses = r->scalar("total_poses");
  const int64_t* geom = r->ints("geometry", 5);
  ck.poses_per_job = geom[0];
  ck.nodes = geom[1];
  ck.gpus_per_node = geom[2];
  ck.num_shards = geom[3];
  ck.scoring_batch = geom[4];
  const int64_t units = r->section("unit_status").numel();
  const int64_t* status = r->ints("unit_status", units);
  const int64_t* attempts = r->ints("unit_attempts", units);
  for (int64_t u = 0; u < units; ++u) {
    // A status outside the enum would count as resumed yet lose its shard
    // block at compaction (only Done units keep theirs): never scored.
    if (status[u] < static_cast<int64_t>(UnitStatus::Pending) ||
        status[u] > static_cast<int64_t>(UnitStatus::Exhausted) || attempts[u] < 0) {
      throw std::runtime_error("campaign checkpoint: unit " + std::to_string(u) +
                               " has status " + std::to_string(status[u]) + ", attempts " +
                               std::to_string(attempts[u]) + " in " + path);
    }
  }
  ck.unit_status.assign(status, status + units);
  ck.unit_attempts.assign(attempts, attempts + units);
  return ck;
}

}  // namespace df::screen
