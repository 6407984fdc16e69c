#include "serve/scorer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "core/threadpool.h"
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

// Poses per claim when `lanes` lanes split a forward and `left` poses are
// unclaimed: guided self-scheduling (Polychronopoulos and Kuck, 1987) with
// at least two poses, so 32 poses on two lanes run as 8, 6, 5, 4, 3, 2, 2,
// 2. One lane takes the whole batch.
size_t claim_size(size_t left, size_t lanes) {
  if (lanes == 1) return left;
  return std::min(left, std::max<size_t>(2, (left + 2 * lanes - 1) / (2 * lanes)));
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
// `depth` micro-batch slots, a one-thread stage pool that featurizes
// submitted slots in submit order, and a caller-driven collect() that
// forwards the oldest featurized slot. The forward runs as pose sub-batches
// that the caller and the stage worker claim, each lane in its own arena,
// so the worker that featurizes batch N+1 spends the rest of its cycle
// scoring whole poses of batch N. Three monotone sequence
// numbers (submit / stage / collect) define slot ownership; every handoff
// goes through mu_, which gives the happens-before edges the unlocked slot
// bodies rely on. Each slot owns its own featurize arena, so a featurize
// job never touches the forward arena a concurrent collect() is using, and
// steady state stays heap-free once every slot has warmed.
class RegressorScorer::Pipeline : public ScorerPipeline {
 public:
  Pipeline(RegressorScorer& owner, int depth)
      : owner_(owner), depth_(depth), slots_(static_cast<size_t>(depth)) {}

  int depth() const override { return depth_; }

  size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(submit_seq_ - collect_seq_);
  }

  void submit(std::vector<const PoseInput*> poses) override {
    Slot* s = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return submit_seq_ - collect_seq_ < static_cast<uint64_t>(depth_); });
      s = &slots_[static_cast<size_t>(submit_seq_ % slots_.size())];
      s->poses = std::move(poses);
      ++submit_seq_;
    }
    stage_.submit([this, s] {
      owner_.featurize(*s);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stage_seq_;
      }
      cv_.notify_all();
    });
  }

  std::vector<float> collect() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (collect_seq_ == submit_seq_) {
        throw std::logic_error("ScorerPipeline::collect(): no batch in flight");
      }
      cv_.wait(lock, [&] { return collect_seq_ < stage_seq_; });
    }
    // The slot is exclusively ours until collect_seq_ advances: featurize
    // jobs only touch slots submitted and not yet staged, and submit()
    // refuses to reuse the slot while it counts as in flight. It is
    // released however the forward ends, a failed batch included.
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
    return owner_.forward(s, &stage_, &stage_ws_);
  }

 private:
  RegressorScorer& owner_;
  const int depth_;
  std::vector<Slot> slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t submit_seq_ = 0;   // next slot to fill
  uint64_t stage_seq_ = 0;    // next slot to finish featurizing
  uint64_t collect_seq_ = 0;  // next slot the forward consumes
  core::Workspace stage_ws_;  // the stage worker's forward lane arena
  // Last member: its worker runs the featurize jobs still queued before it
  // exits, and they touch everything above.
  core::ThreadPool stage_{1};
};

RegressorScorer::~RegressorScorer() {
  pipeline_.reset();  // join the stage worker before any member dies
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
    // Site::crop_cells points into `crop_lists`; grown only here, so the
    // lists keep their storage from batch to batch.
    if (pocket_cache_ == nullptr && s.crop_lists.size() < n) s.crop_lists.resize(n);
    s.cache_refs.clear();
    // Bind (not Scope): the samples carved here must outlive this call —
    // they feed the forward and die at the slot's next reset. Cache
    // lookups build heap-owned entries (Workspace::Unbind inside).
    core::Workspace::Bind bind(s.ws);

    // Amortize pocket splatting: the poses of a batch overwhelmingly dock
    // into one shared pocket, whose voxel block is pose-independent. Each
    // distinct (pocket, center) grid and crop CellList is built once —
    // fetched from the cross-request cache when one is attached, else
    // voxelized into the slot's arena and binned into the slot's list by
    // the same build_crop_cells — and every pose splats only its ligand
    // and grafts that grid, bitwise identical to the joint voxelization at
    // every feature-set version.
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
          site.crop_cells = &entry->crop_cells;
        } else {
          site.grid = &s.grids.emplace_back(voxelizer_.voxelize_pocket(pocket, p.site_center));
          chem::CellList& cells = s.crop_lists[s.sites.size()];
          featurizer_.build_crop_cells(pocket, cells);
          site.crop_cells = &cells;
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

std::vector<float> RegressorScorer::forward(Slot& s, core::ThreadPool* helper,
                                            core::Workspace* helper_ws) {
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
  const size_t n = s.batch.size();
  std::vector<const data::Sample*> ptrs;
  ptrs.reserve(n);
  for (const data::Sample& sample : s.batch) ptrs.push_back(&sample);
  std::vector<float> out(n);
  // Lane i runs body i in arena i and claims sub-batches from one cursor
  // until none are left. A model scores each pose the same whatever its
  // batch-mates, so where claims fall changes no bit.
  core::Workspace* const arenas[2] = {&forward_ws_, helper_ws};
  const size_t lanes = helper != nullptr ? 2 : 1;
  const auto lane_capacity = [&] {
    return forward_ws_.capacity() + (helper_ws != nullptr ? helper_ws->capacity() : 0);
  };
  const size_t capacity = lane_capacity();
  std::atomic<size_t> cursor{0};
  core::parallel_for_on(helper, lanes, [&](size_t lane) {
    core::Workspace& ws = *arenas[lane];
    ws.reset();
    for (size_t lo = cursor.load(), take = 0;; lo += take) {
      do {
        if (lo >= n) return;
        take = claim_size(n - lo, lanes);
      } while (!cursor.compare_exchange_weak(lo, lo + take));
      const auto first = ptrs.begin() + static_cast<ptrdiff_t>(lo);
      core::Workspace::Scope scope(ws);
      const std::vector<float> part =
          model_->predict_batch({first, first + static_cast<ptrdiff_t>(take)});
      std::copy(part.begin(), part.end(), out.begin() + static_cast<ptrdiff_t>(lo));
    }
  });
  // Once a forward grew an arena, give every lane one block as large as all
  // lane arenas together: any claim seen so far then fits whichever lane
  // takes it, so a warmed pipeline stays heap-free however claims fall.
  if (const size_t total = lane_capacity(); helper_ws != nullptr && total != capacity) {
    forward_ws_.reserve(total);
    helper_ws->reserve(total);
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
