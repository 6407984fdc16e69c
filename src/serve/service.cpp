#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <stdexcept>
#include <utility>

namespace df::serve {

const char* score_error_name(ScoreError e) {
  switch (e) {
    case ScoreError::kNone: return "none";
    case ScoreError::kUnknownScorer: return "unknown_scorer";
    case ScoreError::kQueueFull: return "queue_full";
    case ScoreError::kShutdown: return "shutdown";
    case ScoreError::kScorerFailure: return "scorer_failure";
    case ScoreError::kTimeout: return "timeout";
    case ScoreError::kTransport: return "transport";
  }
  return "invalid";
}

double effective_deadline_ms(double deadline_ms) {
  if (!(deadline_ms > 0) || std::isinf(deadline_ms)) return 0;
  return std::min(deadline_ms, kMaxDeadlineMs);
}

/// One accepted request: the response buffer fills in from possibly many
/// micro-batches on different workers; `remaining` (guarded by the service
/// mutex) counts down to fulfillment.
struct ScoringService::Pending {
  std::vector<PoseInput> poses;
  std::string scorer;
  std::promise<ScoreResponse> promise;
  std::vector<float> scores;
  size_t remaining = 0;
  bool failed = false;
  ScoreError error = ScoreError::kScorerFailure;  // meaningful when failed
  std::string fail_msg;
  int micro_batches = 0;
  bool coalesced = false;
  std::chrono::steady_clock::time_point accepted;  // for the latency histogram
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;  // valid when has_deadline
};

/// A contiguous span of one request's poses waiting in the queue. In
/// ordered-stream mode requests are pre-split into fixed poses_per_batch
/// slices and a micro-batch is exactly one slice; in throughput mode a
/// request is one slice that workers carve and coalesce freely.
struct ScoringService::Slice {
  std::shared_ptr<Pending> owner;
  size_t begin = 0;
  size_t end = 0;
  std::chrono::steady_clock::time_point enqueued;
};

/// A micro-batch a worker has dispatched and not yet completed — waiting
/// in its replica's stage pipeline, or being scored inline. The parts pin
/// their Pending owners (and thus the pose storage the featurize stage
/// reads) until copy-back.
struct ScoringService::InFlight {
  std::vector<Slice> parts;
  size_t total = 0;
};

namespace {

std::future<ScoreResponse> ready_response(ScoreResponse r) {
  std::promise<ScoreResponse> p;
  p.set_value(std::move(r));
  return p.get_future();
}

std::future<ScoreResponse> ready_error(ScoreError e, std::string message) {
  ScoreResponse r;
  r.error = e;
  r.message = std::move(message);
  return ready_response(std::move(r));
}

}  // namespace

ScoringService::ScoringService(const ModelRegistry& registry, ServiceConfig cfg)
    : cfg_(cfg), factories_(registry.snapshot()) {
  if (cfg_.workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.workers = hw != 0 ? static_cast<int>(hw) : 1;
  }
  cfg_.poses_per_batch = std::max(1, cfg_.poses_per_batch);
  cfg_.queue_capacity = std::max<size_t>(1, cfg_.queue_capacity);
  cfg_.pipeline_depth = std::max(0, cfg_.pipeline_depth);
  // The batcher converts the flush window to integer microseconds: keep it
  // in the deadline range (NaN or non-positive = dispatch at once).
  cfg_.flush_deadline_ms =
      cfg_.flush_deadline_ms > 0 ? std::min(cfg_.flush_deadline_ms, kMaxDeadlineMs) : 0.0;
  if (cfg_.pocket_cache_targets > 0) {
    pocket_cache_ = std::make_shared<PocketCache>(cfg_.pocket_cache_targets);
  }
  threads_.reserve(static_cast<size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) threads_.emplace_back([this] { worker_loop(); });
}

ScoringService::~ScoringService() { shutdown(); }

std::future<ScoreResponse> ScoringService::submit(ScoreRequest req) {
  if (factories_.find(req.scorer) == factories_.end()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return ready_error(ScoreError::kUnknownScorer,
                       "no scorer named '" + req.scorer + "' in this service");
  }
  if (req.poses.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    return ready_response(ScoreResponse{});
  }

  auto pending = std::make_shared<Pending>();
  pending->scorer = std::move(req.scorer);
  pending->poses = std::move(req.poses);
  const size_t n = pending->poses.size();
  pending->scores.resize(n, 0.0f);
  pending->remaining = n;
  pending->accepted = std::chrono::steady_clock::now();
  const double deadline_ms = effective_deadline_ms(req.deadline_ms);
  if (deadline_ms > 0) {
    pending->has_deadline = true;
    pending->deadline = pending->accepted + std::chrono::microseconds(static_cast<int64_t>(
                                                deadline_ms * 1000.0));
  }
  std::future<ScoreResponse> future = pending->promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  // Backpressure on the bounded queue. An oversized request (n > capacity)
  // is admitted alone once the queue is empty, so it cannot wedge. A
  // deadline bounds the block: past it the caller gets kTimeout instead of
  // waiting for space forever.
  const auto fits = [&] { return queued_poses_ == 0 || queued_poses_ + n <= cfg_.queue_capacity; };
  if (!fits()) {
    if (!cfg_.block_when_full) {
      ++stats_.rejected;
      return ready_error(ScoreError::kQueueFull,
                         "queue holds " + std::to_string(queued_poses_) + " poses; capacity " +
                             std::to_string(cfg_.queue_capacity));
    }
    if (pending->has_deadline) {
      if (!space_cv_.wait_until(lock, pending->deadline, [&] { return stop_ || fits(); })) {
        ++stats_.rejected;
        ++stats_.timeouts;
        return ready_error(ScoreError::kTimeout,
                           "backpressure wait exceeded the request deadline (" +
                               std::to_string(deadline_ms) + " ms)");
      }
    } else {
      space_cv_.wait(lock, [&] { return stop_ || fits(); });
    }
  }
  if (stop_) {
    ++stats_.rejected;
    return ready_error(ScoreError::kShutdown, "service is shut down");
  }

  const auto now = std::chrono::steady_clock::now();
  const size_t chunk = cfg_.ordered_stream ? static_cast<size_t>(cfg_.poses_per_batch) : n;
  for (size_t b = 0; b < n; b += chunk) {
    queue_.push_back(Slice{pending, b, std::min(b + chunk, n), now});
  }
  queued_poses_ += n;
  if (pending->has_deadline) deadlined_queued_ += n;
  ++stats_.requests;
  stats_.poses += n;
  stats_.peak_queued_poses = std::max(stats_.peak_queued_poses, queued_poses_);
  work_cv_.notify_all();
  return future;
}

ScoreResponse ScoringService::score(ScoreRequest req) { return submit(std::move(req)).get(); }

void ScoringService::warmup(const std::string& scorer) {
  if (factories_.find(scorer) == factories_.end()) {
    throw std::out_of_range("service: no scorer named '" + scorer + "'");
  }
  std::lock_guard<std::mutex> call(warmup_call_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) throw std::runtime_error("service: warmup after shutdown");
  warmup_name_ = scorer;
  warmup_error_.clear();
  warmup_remaining_ = static_cast<int>(threads_.size());
  ++warmup_gen_;
  work_cv_.notify_all();
  warmup_cv_.wait(lock, [&] { return warmup_remaining_ == 0 || stop_; });
  if (warmup_remaining_ != 0) throw std::runtime_error("service: shut down during warmup");
  if (!warmup_error_.empty()) {
    throw std::runtime_error("service: warmup of '" + scorer + "' failed: " + warmup_error_);
  }
}

void ScoringService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queued_poses_ == 0 && inflight_poses_ == 0; });
}

void ScoringService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  warmup_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

ServiceStats ScoringService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::string> ScoringService::scorer_names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

void ScoringService::fulfill(const std::shared_ptr<Pending>& owner) {
  ScoreResponse r;
  r.micro_batches = owner->micro_batches;
  r.coalesced = owner->coalesced;
  if (owner->failed) {
    r.error = owner->error;
    r.message = owner->fail_msg;
  } else {
    r.scores = std::move(owner->scores);
  }
  owner->promise.set_value(std::move(r));
}

Scorer& ScoringService::replica_for(std::map<std::string, std::unique_ptr<Scorer>>& replicas,
                                    const std::string& name) {
  auto it = replicas.find(name);
  if (it != replicas.end()) return *it->second;
  std::unique_ptr<Scorer> replica;
  {
    // One factory call at a time across workers: factories may read a shared
    // master model (weight copies) and are not required to be re-entrant.
    std::lock_guard<std::mutex> build(build_mu_);
    replica = factories_.at(name)();
  }
  // The service's depth (0 = sequential) and shared pocket cache apply to
  // every replica that can use them (no-op virtuals otherwise).
  replica->set_pipeline_depth(cfg_.pipeline_depth);
  if (pocket_cache_ != nullptr) replica->set_pocket_cache(pocket_cache_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.replicas_built;
  }
  return *replicas.emplace(name, std::move(replica)).first->second;
}

void ScoringService::worker_loop() {
  // The kernels this thread runs stay on it; a pipelined replica adds its
  // stage worker as a second forward lane (RegressorScorer's collect()).
  std::map<std::string, std::unique_ptr<Scorer>> replicas;
  uint64_t seen_warmup = 0;

  // Pipelined dispatch state: micro-batches this worker has submitted to
  // its replica's pipeline and not yet collected. All entries belong to
  // `inflight_name`'s replica and come back strictly FIFO, so copy-back
  // content is identical to sequential dispatch — only its timing moves.
  std::deque<InFlight> inflight;
  std::string inflight_name;
  Scorer* inflight_replica = nullptr;

  std::unique_lock<std::mutex> lock(mu_);

  // The one completion path of every micro-batch: run `compute` (a
  // replica's score() or its pipeline's collect()), then copy the scores
  // back — or fail every request in the batch with kScorerFailure — record
  // latency and resolve finished requests. Called unlocked; returns with
  // the lock held.
  const auto complete = [&](const InFlight& fl, const std::string& name,
                            const std::function<std::vector<float>()>& compute) {
    std::vector<float> out;
    std::string err;
    try {
      out = compute();
      if (out.size() != fl.total) {
        err = "scorer '" + name + "' returned " + std::to_string(out.size()) + " scores for " +
              std::to_string(fl.total) + " poses";
      }
    } catch (const std::exception& e) {
      err = e.what();
    } catch (...) {
      err = "unknown exception from scorer '" + name + "'";
    }
    std::vector<std::shared_ptr<Pending>> done;
    lock.lock();
    const auto finished = std::chrono::steady_clock::now();
    size_t off = 0;
    for (const Slice& p : fl.parts) {
      const size_t len = p.end - p.begin;
      if (err.empty()) {
        std::copy(out.begin() + static_cast<long>(off), out.begin() + static_cast<long>(off + len),
                  p.owner->scores.begin() + static_cast<long>(p.begin));
      } else if (!p.owner->failed) {
        p.owner->failed = true;
        p.owner->error = ScoreError::kScorerFailure;
        p.owner->fail_msg = err;
      }
      off += len;
      p.owner->remaining -= len;
      if (p.owner->remaining == 0) {
        stats_.latency.record_seconds(
            std::chrono::duration<double>(finished - p.owner->accepted).count());
        done.push_back(p.owner);
      }
    }
    inflight_poses_ -= fl.total;
    if (queued_poses_ == 0 && inflight_poses_ == 0) drain_cv_.notify_all();
    lock.unlock();
    for (const auto& owner : done) fulfill(owner);
    lock.lock();
  };

  // Forward and complete the oldest in-flight micro-batch.
  const auto collect_one = [&] {
    const InFlight fl = std::move(inflight.front());
    inflight.pop_front();
    lock.unlock();
    complete(fl, inflight_name, [&] { return inflight_replica->pipeline()->collect(); });
  };

  for (;;) {
    // Never sleep with batches in flight — their forwards are this
    // worker's responsibility.
    work_cv_.wait(lock, [&] {
      return stop_ || !queue_.empty() || seen_warmup != warmup_gen_ || !inflight.empty();
    });

    if (seen_warmup != warmup_gen_) {
      seen_warmup = warmup_gen_;
      const std::string name = warmup_name_;
      lock.unlock();
      // A throwing factory must fail warmup(), not terminate this thread.
      std::string err;
      try {
        replica_for(replicas, name);
      } catch (const std::exception& e) {
        err = e.what();
      } catch (...) {
        err = "unknown exception from factory for scorer '" + name + "'";
      }
      lock.lock();
      if (!err.empty() && warmup_error_.empty()) warmup_error_ = err;
      if (--warmup_remaining_ == 0) warmup_cv_.notify_all();
      continue;
    }
    // Deadline sweep: requests whose deadline passed while queued resolve
    // kTimeout now instead of occupying a worker. Skipped entirely while no
    // queued request carries a deadline (the campaign's ordered path).
    if (deadlined_queued_ > 0 && !queue_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<std::shared_ptr<Pending>> expired;
      for (auto it = queue_.begin(); it != queue_.end();) {
        Pending& p = *it->owner;
        if (!p.has_deadline || now < p.deadline) {
          ++it;
          continue;
        }
        const size_t len = it->end - it->begin;
        queued_poses_ -= len;
        deadlined_queued_ -= len;
        if (!p.failed) {
          p.failed = true;
          p.error = ScoreError::kTimeout;
          p.fail_msg = "request deadline expired before scoring started";
          ++stats_.timeouts;
        }
        p.remaining -= len;
        if (p.remaining == 0) {
          stats_.latency.record_seconds(std::chrono::duration<double>(now - p.accepted).count());
          expired.push_back(it->owner);
        }
        it = queue_.erase(it);
      }
      if (!expired.empty()) {
        space_cv_.notify_all();
        if (queued_poses_ == 0 && inflight_poses_ == 0) drain_cv_.notify_all();
        lock.unlock();
        for (const auto& owner : expired) fulfill(owner);
        lock.lock();
        continue;  // the queue changed shape; re-evaluate from the top
      }
    }

    if (queue_.empty()) {
      if (!inflight.empty()) {
        collect_one();
        continue;
      }
      if (stop_) return;
      continue;
    }

    const size_t cap = static_cast<size_t>(cfg_.poses_per_batch);

    // Dynamic micro-batcher: pick the first scorer (in FIFO head order)
    // with a dispatchable batch — full, or whose oldest slice has waited
    // out flush_deadline_ms. A partial batch holds the door open for up to
    // the deadline so concurrent clients can fill it, but never blocks a
    // ready batch of a different scorer queued behind it. Ordered-stream
    // mode skips all of this — batches are the pre-cut request slices in
    // strict FIFO order.
    std::string name;
    if (cfg_.ordered_stream || cfg_.flush_deadline_ms <= 0 || stop_) {
      name = queue_.front().owner->scorer;
    } else {
      const auto now = std::chrono::steady_clock::now();
      const auto window =
          std::chrono::microseconds(static_cast<int64_t>(cfg_.flush_deadline_ms * 1000.0));
      std::vector<std::pair<std::string, size_t>> groups;  // FIFO-first-seen -> avail
      std::vector<std::chrono::steady_clock::time_point> heads;
      for (const Slice& s : queue_) {
        size_t g = 0;
        while (g < groups.size() && groups[g].first != s.owner->scorer) ++g;
        if (g == groups.size()) {
          groups.emplace_back(s.owner->scorer, 0);
          heads.push_back(s.enqueued);
        }
        groups[g].second += s.end - s.begin;
      }
      auto earliest = std::chrono::steady_clock::time_point::max();
      for (size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].second >= cap || now >= heads[g] + window) {
          name = groups[g].first;
          break;
        }
        earliest = std::min(earliest, heads[g] + window);
      }
      if (name.empty()) {
        if (!inflight.empty()) {
          collect_one();  // useful work beats idling out the flush window
        } else {
          work_cv_.wait_until(lock, earliest);
        }
        continue;  // re-evaluate: more work may have arrived, or a deadline passed
      }
    }

    // A pipeline holds batches for one scorer at a time: drain foreign
    // batches before dispatching to a different replica.
    if (!inflight.empty() && name != inflight_name) {
      collect_one();
      continue;  // the queue may have changed shape while unlocked
    }

    // Collect up to `cap` poses for `name`, front-to-back.
    std::vector<Slice> parts;
    size_t total = 0;
    if (cfg_.ordered_stream) {
      parts.push_back(std::move(queue_.front()));
      queue_.pop_front();
      total = parts[0].end - parts[0].begin;
      if (parts[0].owner->has_deadline) deadlined_queued_ -= total;
    } else {
      for (auto it = queue_.begin(); it != queue_.end() && total < cap;) {
        if (it->owner->scorer != name) {
          ++it;
          continue;
        }
        const size_t take = std::min(cap - total, it->end - it->begin);
        parts.push_back(Slice{it->owner, it->begin, it->begin + take, it->enqueued});
        if (it->owner->has_deadline) deadlined_queued_ -= take;
        it->begin += take;
        total += take;
        if (it->begin == it->end) {
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    queued_poses_ -= total;
    inflight_poses_ += total;
    ++stats_.batches;
    if (total >= cap) ++stats_.full_batches;
    if (parts.size() > 1) {  // one slice per request => >1 parts = >1 clients
      ++stats_.coalesced_batches;
      for (const Slice& p : parts) p.owner->coalesced = true;
    }
    for (const Slice& p : parts) ++p.owner->micro_batches;
    space_cv_.notify_all();
    lock.unlock();

    // Score the micro-batch on this worker's private replica. A factory
    // failure resolves the batch like a scorer failure.
    std::vector<const PoseInput*> ptrs;
    ptrs.reserve(total);
    for (const Slice& p : parts) {
      for (size_t i = p.begin; i < p.end; ++i) ptrs.push_back(&p.owner->poses[i]);
    }
    Scorer* replica = nullptr;
    std::exception_ptr build_error;
    try {
      replica = &replica_for(replicas, name);
    } catch (...) {
      build_error = std::current_exception();
    }
    ScorerPipeline* pipe = replica != nullptr ? replica->pipeline() : nullptr;
    if (pipe == nullptr) {
      complete(InFlight{std::move(parts), total}, name, [&] {
        if (build_error) std::rethrow_exception(build_error);
        return replica->score(ptrs);
      });
      continue;
    }
    // Pipelined dispatch: hand the batch to the featurize stage and go back
    // for more work. The forward runs at collect_one() — at the latest once
    // the ring is full — so batch N+1's featurization overlaps batch N's
    // forward.
    pipe->submit(std::move(ptrs));
    lock.lock();
    inflight.push_back(InFlight{std::move(parts), total});
    inflight_name = name;
    inflight_replica = replica;
    if (inflight.size() >= static_cast<size_t>(pipe->depth())) collect_one();
  }
}

}  // namespace df::serve
