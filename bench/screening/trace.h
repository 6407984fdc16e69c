// Tracing for the --trace run, done entirely in benchmark code: a decorator
// Scorer registered in place of the plain one times every score / submit /
// collect on each replica, reads RegressorScorer::phase_stats() deltas per
// batch, and attributes each pose to the request that carried it by its
// ligand content key (fixtures.h ligand_key). Spans stay in memory and are
// written at exit as Chrome trace-event JSON; the per-layer metrics are
// derived from the same records.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/scorer.h"
#include "stats.h"

namespace df::bench::screening {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  Tracer();

  /// A named timeline in the Chrome trace (one per client thread, replica
  /// worker and replica stage thread).
  int track(const std::string& name);

  /// Record one complete span.
  void span(const std::string& name, const char* layer, int track, Clock::time_point t0,
            Clock::time_point t1, const std::string& args_json = "");

  /// A client hands the poses with these content keys to the system at
  /// `sent`. Keys must be unique among poses in flight. Returns the
  /// request id.
  uint64_t begin_request(const std::vector<uint64_t>& keys, Clock::time_point sent);
  /// The client got the answer to `id` at `received`.
  void end_request(uint64_t id, Clock::time_point received);

  /// One micro-batch as one replica saw it. A sequential score() call has
  /// submit_begin == submit_end == collect_begin.
  struct Batch {
    int replica = 0;
    bool pipelined = false;
    size_t poses = 0;
    Clock::time_point submit_begin, submit_end, collect_begin, collect_end;
    double featurize_s = 0.0;  // RegressorScorer::phase_stats() deltas
    double forward_s = 0.0;
    std::vector<uint64_t> requests;  // distinct request ids among its poses
  };
  /// Called by the decorator at submit: resolves pose keys to request ids.
  std::vector<uint64_t> attribute(const std::vector<const serve::PoseInput*>& poses,
                                  Clock::time_point batch_start);
  void record_batch(Batch b);
  int next_replica();

  /// Per-layer metrics of the serve.scorer layer over every recorded batch.
  std::vector<Metric> scorer_metrics() const;
  /// Queue wait (sent -> first micro-batch start) and transport (round trip
  /// minus in-scorer time) percentiles over answered requests.
  std::vector<Metric> request_metrics(bool wire) const;

  /// Write the Chrome trace-event JSON. False when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Request {
    Clock::time_point sent, first_batch, last_batch_end, received;
    bool seen = false;      // some pose reached a scorer
    bool answered = false;  // end_request was called
  };
  struct Span {
    std::string name;
    const char* layer;
    int track;
    double ts_us, dur_us;
    std::string args;
  };
  double us(Clock::time_point t) const;

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> tracks_;
  std::vector<Span> spans_;
  std::vector<Batch> batches_;
  std::vector<Request> requests_;
  std::unordered_map<uint64_t, uint64_t> pending_keys_;  // pose key -> request id
  int replicas_ = 0;
};

/// Decorator registered in place of the plain replica in the traced run.
/// Forwards the service's knobs (pipeline depth, pocket cache) and wraps
/// the inner pipeline so each submit/collect is timed.
class TracedScorer : public serve::Scorer {
 public:
  TracedScorer(std::unique_ptr<serve::RegressorScorer> inner, Tracer& tracer);
  ~TracedScorer() override;

  std::string name() const override { return inner_->name(); }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override;
  serve::ScorerPipeline* pipeline() override;
  void set_pipeline_depth(int depth) override;
  void set_pocket_cache(std::shared_ptr<serve::PocketCache> cache) override {
    inner_->set_pocket_cache(std::move(cache));
  }

 private:
  class Pipeline;

  /// Emit the batch's spans and hand it to the tracer.
  void finish(Tracer::Batch b);

  std::unique_ptr<serve::RegressorScorer> inner_;
  Tracer& tracer_;
  int replica_;
  int worker_track_ = -1;
  int stage_track_ = -1;
  Clock::time_point stage_free_;  // reconstructed end of the last featurize
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace df::bench::screening
