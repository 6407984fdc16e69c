#include "serve/scorer.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "dock/scoring.h"

namespace df::serve {

ReplicaGuard::ReplicaGuard(std::atomic<bool>& busy) : busy_(busy) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "scorer replica entered concurrently — replicas are single-threaded; "
        "build one per worker (see models/regressor.h replica contract)");
  }
}

ReplicaGuard::~ReplicaGuard() { busy_.store(false, std::memory_order_release); }

namespace {

/// The built-in backends all dereference the borrowed pocket; turn a
/// client's forgotten pointer into the service's typed kScorerFailure
/// instead of a process-killing segfault.
const std::vector<chem::Atom>& pocket_of(const PoseInput& pose, const std::string& scorer) {
  if (pose.pocket == nullptr) {
    throw std::invalid_argument("scorer '" + scorer + "': pose has a null pocket pointer");
  }
  return *pose.pocket;
}

}  // namespace

RegressorScorer::RegressorScorer(std::string name, std::unique_ptr<models::Regressor> model,
                                 const chem::VoxelConfig& voxel,
                                 const chem::GraphFeaturizerConfig& graph)
    : name_(std::move(name)), model_(std::move(model)), voxelizer_(voxel), featurizer_(graph) {
  if (voxel.feature_set_version != graph.feature_set_version) {
    throw std::invalid_argument(
        "RegressorScorer '" + name_ + "': voxel feature_set_version (" +
        std::to_string(voxel.feature_set_version) + ") != graph feature_set_version (" +
        std::to_string(graph.feature_set_version) + ") — a model is trained against one contract");
  }
  model_->set_training(false);
}

// The stage-pipelined executor (ScorerPipeline): a bounded ring of
// `depth` micro-batch slots, one background stage thread that featurizes
// submitted slots strictly in submit order, and a caller-driven collect()
// that forwards the oldest ready slot. Three monotone sequence numbers
// (submit / stage / collect) define slot ownership; every handoff goes
// through mu_, which gives the happens-before edges the unlocked slot
// bodies rely on. Each slot owns its own featurize arena, so the stage
// thread never touches the forward arena a concurrent collect() is using,
// and steady state stays heap-free once every slot has warmed.
class RegressorScorer::Pipeline : public ScorerPipeline {
 public:
  Pipeline(RegressorScorer& owner, int depth)
      : owner_(owner), depth_(depth), slots_(static_cast<size_t>(depth)) {
    stage_ = std::thread([this] { stage_main(); });
  }

  ~Pipeline() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    stage_.join();
  }

  int depth() const override { return depth_; }

  size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(submit_seq_ - collect_seq_);
  }

  void submit(std::vector<const PoseInput*> poses) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return submit_seq_ - collect_seq_ < static_cast<uint64_t>(depth_); });
    Slot& s = slots_[static_cast<size_t>(submit_seq_ % slots_.size())];
    s.poses = std::move(poses);
    ++submit_seq_;
    cv_.notify_all();
  }

  std::vector<float> collect() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (collect_seq_ == submit_seq_) {
        throw std::logic_error("ScorerPipeline::collect(): no batch in flight");
      }
      cv_.wait(lock, [&] { return collect_seq_ < stage_seq_; });
    }
    // The slot is exclusively ours until collect_seq_ advances: the stage
    // thread only touches slots with index < submit_seq_ not yet staged,
    // and submit() refuses to reuse the slot while it counts as in flight.
    // It is released however the forward ends, a failed batch included.
    struct Release {
      Pipeline& p;
      ~Release() {
        {
          std::lock_guard<std::mutex> lock(p.mu_);
          ++p.collect_seq_;
        }
        p.cv_.notify_all();
      }
    } release{*this};
    Slot& s = slots_[static_cast<size_t>(collect_seq_ % slots_.size())];
    ReplicaGuard guard(owner_.busy_);
    return owner_.forward(s);
  }

 private:
  void stage_main() {
    // The stage thread is a peer of whoever owns the shared compute pool
    // (a service worker, a bench thread): it must never submit to it, for
    // the same reason service workers install this scope (core/parallel.h).
    core::SerialComputeScope serial;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || stage_seq_ < submit_seq_; });
      if (stop_) return;
      Slot& s = slots_[static_cast<size_t>(stage_seq_ % slots_.size())];
      lock.unlock();
      owner_.featurize(s);
      lock.lock();
      ++stage_seq_;
      cv_.notify_all();
    }
  }

  RegressorScorer& owner_;
  const int depth_;
  std::vector<Slot> slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t submit_seq_ = 0;   // next slot to fill
  uint64_t stage_seq_ = 0;    // next slot the stage thread featurizes
  uint64_t collect_seq_ = 0;  // next slot the forward consumes
  bool stop_ = false;
  std::thread stage_;
};

RegressorScorer::~RegressorScorer() {
  pipeline_.reset();  // join the stage thread before any member dies
}

ScorerPipeline* RegressorScorer::pipeline() { return pipeline_.get(); }

void RegressorScorer::set_pipeline_depth(int depth) {
  if (pipeline_ != nullptr && pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': set_pipeline_depth with batches in flight");
  }
  pipeline_.reset();
  if (depth >= 1) pipeline_ = std::make_unique<Pipeline>(*this, depth);
}

void RegressorScorer::set_pocket_cache(std::shared_ptr<PocketCache> cache) {
  if (pipeline_ != nullptr && pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': set_pocket_cache with batches in flight");
  }
  pocket_cache_ = std::move(cache);
}

RegressorScorer::PhaseStats RegressorScorer::phase_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

compile::WorkspaceBudget RegressorScorer::workspace_capacities() const {
  return {static_cast<int64_t>(forward_ws_.capacity()),
          static_cast<int64_t>(inline_.ws.capacity())};
}

void RegressorScorer::reserve_workspaces(const compile::WorkspaceBudget& budget) {
  forward_ws_.reserve(static_cast<size_t>(budget.forward_floats));
  inline_.ws.reserve(static_cast<size_t>(budget.feat_floats));
}

void RegressorScorer::featurize(Slot& s) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Rewind the arena: the slot's previous batch is dead, its blocks get
    // reused cache-warm. After warmup nothing below touches the heap for
    // tensor data.
    s.ws.reset();
    const size_t n = s.poses.size();
    s.batch.clear();
    s.batch.resize(n);
    s.sites.clear();
    s.grids.clear();
    s.grids.reserve(n);  // Site::grid points into `grids`
    s.cache_refs.clear();
    // Bind (not Scope): the samples carved here must outlive this call —
    // they feed the forward and die at the slot's next reset. Cache
    // lookups build heap-owned entries (Workspace::Unbind inside).
    core::Workspace::Bind bind(s.ws);

    // Amortize pocket splatting: the poses of a batch overwhelmingly dock
    // into one shared pocket, whose voxel block is pose-independent. Each
    // distinct (pocket, center) grid is built once — fetched from the
    // cross-request cache when one is attached (which also hands back the
    // crop CellList), else voxelized into the slot's arena — and every pose
    // splats only its ligand and grafts that grid, bitwise identical to
    // the joint voxelization at every feature-set version.
    for (size_t i = 0; i < n; ++i) {
      const PoseInput& p = *s.poses[i];
      const std::vector<chem::Atom>& pocket = pocket_of(p, name_);
      size_t g = 0;
      for (; g < s.sites.size(); ++g) {
        const Slot::Site& site = s.sites[g];
        if (site.pocket == &pocket && site.center.x == p.site_center.x &&
            site.center.y == p.site_center.y && site.center.z == p.site_center.z)
          break;
      }
      if (g == s.sites.size()) {
        Slot::Site site{&pocket, p.site_center, nullptr, nullptr};
        if (pocket_cache_ != nullptr) {
          const auto& entry = s.cache_refs.emplace_back(
              pocket_cache_->lookup(pocket, p.site_center, voxelizer_, featurizer_));
          site.grid = &entry->grid;
          if (entry->crop_cells.built()) site.crop_cells = &entry->crop_cells;
        } else {
          site.grid = &s.grids.emplace_back(voxelizer_.voxelize_pocket(pocket, p.site_center));
        }
        s.sites.push_back(site);
      }
      const Slot::Site& site = s.sites[g];
      s.batch[i].voxel = voxelizer_.voxelize_ligand_onto(p.ligand, pocket, *site.grid, p.site_center);
      s.batch[i].graph = featurizer_.featurize(p.ligand, pocket, site.crop_cells);
    }
  } catch (...) {
    s.error = std::current_exception();
  }
  s.featurize_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::vector<float> RegressorScorer::forward(Slot& s) {
  // Drop pose pointers and cache pins eagerly — the poses belong to the
  // caller's request, the cache entries should become evictable. The batch
  // tensors are arena-borrowed; the slot's next featurize rewinds them.
  struct Release {
    Slot& s;
    ~Release() {
      s.poses.clear();
      s.cache_refs.clear();
    }
  } release{s};
  if (s.error) std::rethrow_exception(std::exchange(s.error, nullptr));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<float> out;
  {
    forward_ws_.reset();
    core::Workspace::Bind bind(forward_ws_);
    std::vector<const data::Sample*> ptrs;
    ptrs.reserve(s.batch.size());
    for (const data::Sample& sample : s.batch) ptrs.push_back(&sample);
    out = model_->predict_batch(ptrs);
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.batches += 1;
  stats_.poses += s.batch.size();
  stats_.featurize_seconds += s.featurize_seconds;
  stats_.forward_seconds += std::chrono::duration<double>(t1 - t0).count();
  return out;
}

std::vector<float> RegressorScorer::score(const std::vector<const PoseInput*>& poses) {
  if (pipeline_ != nullptr && pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': score() while pipelined batches are in flight — "
                           "collect() them first");
  }
  ReplicaGuard guard(busy_);
  inline_.poses.assign(poses.begin(), poses.end());
  featurize(inline_);
  return forward(inline_);
}

std::vector<float> VinaPkScorer::score(const std::vector<const PoseInput*>& poses) {
  std::vector<float> out;
  out.reserve(poses.size());
  for (const PoseInput* p : poses) {
    out.push_back(
        dock::score_to_pk(dock::vina_score(p->ligand, pocket_of(*p, "vina_pk"), weights_)));
  }
  return out;
}

std::vector<float> MmGbsaScorer::score(const std::vector<const PoseInput*>& poses) {
  std::vector<float> out;
  out.reserve(poses.size());
  for (const PoseInput* p : poses) {
    out.push_back(dock::mmgbsa_score(p->ligand, pocket_of(*p, "mmgbsa"), cfg_));
  }
  return out;
}

}  // namespace df::serve
