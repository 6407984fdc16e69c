#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "fixtures.h"
#include "stats.h"

namespace df::bench::screening {

namespace {

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int Tracer::track(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.push_back(name);
  return static_cast<int>(tracks_.size());
}

int Tracer::next_replica() {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_++;
}

void Tracer::span(const std::string& name, const char* layer, int track, Clock::time_point t0,
                  Clock::time_point t1, const std::string& args_json) {
  const double ts = us(t0);
  const double dur = std::max(0.0, us(t1) - ts);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, track, ts, dur, args_json});
}

uint64_t Tracer::begin_request(const std::vector<uint64_t>& keys, Clock::time_point sent) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = requests_.size();
  Request r;
  r.sent = sent;
  requests_.push_back(r);
  for (uint64_t k : keys) pending_keys_[k] = id;
  return id;
}

void Tracer::end_request(uint64_t id, Clock::time_point received) {
  std::lock_guard<std::mutex> lock(mu_);
  Request& r = requests_.at(id);
  r.received = received;
  r.answered = true;
}

std::vector<uint64_t> Tracer::attribute(const std::vector<const serve::PoseInput*>& poses,
                                        Clock::time_point batch_start) {
  std::vector<uint64_t> keys;
  keys.reserve(poses.size());
  for (const serve::PoseInput* p : poses) keys.push_back(ligand_key(p->ligand));
  std::set<uint64_t> ids;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t k : keys) {
    auto it = pending_keys_.find(k);
    if (it == pending_keys_.end()) continue;  // warm-up poses carry no request
    ids.insert(it->second);
    pending_keys_.erase(it);
  }
  for (uint64_t id : ids) {
    Request& r = requests_[id];
    if (!r.seen || batch_start < r.first_batch) r.first_batch = batch_start;
    r.seen = true;
  }
  return {ids.begin(), ids.end()};
}

void Tracer::record_batch(Batch b) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t id : b.requests) {
    Request& r = requests_[id];
    r.last_batch_end = std::max(r.last_batch_end, b.collect_end);
  }
  batches_.push_back(std::move(b));
}

std::vector<Metric> Tracer::scorer_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double n = static_cast<double>(std::max<size_t>(1, batches_.size()));
  double feat = 0.0, fwd = 0.0, submit_wait = 0.0, stage_wait = 0.0;
  std::map<int, std::vector<std::pair<Clock::time_point, Clock::time_point>>> busy_by_replica;
  for (const Batch& b : batches_) {
    feat += b.featurize_s;
    fwd += b.forward_s;
    submit_wait += seconds(b.submit_begin, b.submit_end);
    // Self time of a pipelined collect: the worker waiting for the
    // featurize stage before it can run the forward.
    if (b.pipelined) {
      stage_wait += std::max(0.0, seconds(b.collect_begin, b.collect_end) - b.forward_s);
    }
    busy_by_replica[b.replica].emplace_back(b.submit_begin, b.collect_end);
  }
  // A replica is busy while it holds at least one batch: the union of its
  // [submit, collect end] intervals.
  double busy = 0.0;
  for (auto& [replica, iv] : busy_by_replica) {
    std::sort(iv.begin(), iv.end());
    Clock::time_point lo = iv.front().first, hi = iv.front().second;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        busy += seconds(lo, hi);
        lo = a;
      }
      hi = std::max(hi, b);
    }
    busy += seconds(lo, hi);
  }
  return {
      {"scorer.featurize_ms_per_batch", feat / n * 1e3, "ms"},
      {"scorer.forward_ms_per_batch", fwd / n * 1e3, "ms"},
      {"scorer.busy_ms_per_batch", busy / n * 1e3, "ms"},
      {"scorer.overlap", busy > 0.0 ? (feat + fwd) / busy : 0.0, "ratio"},
      {"scorer.featurize_share", busy > 0.0 ? feat / busy : 0.0, "ratio"},
      {"scorer.submit_wait_ms_per_batch", submit_wait / n * 1e3, "ms"},
      {"scorer.stage_wait_ms_per_batch", stage_wait / n * 1e3, "ms"},
      {"scorer.batches", static_cast<double>(batches_.size()), "count"},
  };
}

std::vector<Metric> Tracer::request_metrics(bool wire) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> queue_wait, transport;
  for (const Request& r : requests_) {
    if (!r.seen || !r.answered) continue;
    queue_wait.push_back(seconds(r.sent, r.first_batch) * 1e3);
    const double in_scorer = seconds(r.first_batch, r.last_batch_end);
    transport.push_back((seconds(r.sent, r.received) - in_scorer) * 1e3);
  }
  std::vector<Metric> out = {
      percentile_metric("service.queue_wait_ms_p50", queue_wait, 0.50, "ms"),
      percentile_metric("service.queue_wait_ms_p99", queue_wait, 0.99, "ms"),
  };
  if (wire) out.push_back(percentile_metric("wire.transport_ms_p50", transport, 0.50, "ms"));
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  const auto sep = [&] {
    std::fprintf(f, first ? "  " : ",\n  ");
    first = false;
  };
  for (size_t t = 0; t < tracks_.size(); ++t) {
    sep();
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
                 "\"args\": {\"name\": \"%s\"}}",
                 t + 1, tracks_[t].c_str());
  }
  for (const Span& s : spans_) {
    sep();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}",
                 s.name.c_str(), s.layer, s.track, s.ts_us, s.dur_us, s.args.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- TracedScorer -----------------------------------------------------------

class TracedScorer::Pipeline : public serve::ScorerPipeline {
 public:
  Pipeline(TracedScorer& owner, serve::ScorerPipeline& inner) : owner_(owner), inner_(inner) {}

  int depth() const override { return inner_.depth(); }
  size_t in_flight() const override { return inner_.in_flight(); }

  void submit(std::vector<const serve::PoseInput*> poses) override {
    Tracer::Batch b;
    b.replica = owner_.replica_;
    b.pipelined = true;
    b.poses = poses.size();
    b.requests = owner_.tracer_.attribute(poses, Clock::now());
    b.submit_begin = Clock::now();  // after attribution: tracing cost stays out
    inner_.submit(std::move(poses));
    b.submit_end = Clock::now();
    in_flight_.push_back(std::move(b));
  }

  std::vector<float> collect() override {
    if (in_flight_.empty()) return inner_.collect();  // throws: nothing in flight
    Tracer::Batch b = std::move(in_flight_.front());
    in_flight_.pop_front();
    const auto before = owner_.inner_->phase_stats();
    b.collect_begin = Clock::now();
    std::vector<float> out = inner_.collect();
    b.collect_end = Clock::now();
    const auto after = owner_.inner_->phase_stats();
    b.featurize_s = after.featurize_seconds - before.featurize_seconds;
    b.forward_s = after.forward_seconds - before.forward_seconds;
    owner_.finish(std::move(b));
    return out;
  }

 private:
  TracedScorer& owner_;
  serve::ScorerPipeline& inner_;
  std::deque<Tracer::Batch> in_flight_;
};

TracedScorer::TracedScorer(std::unique_ptr<serve::RegressorScorer> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer), replica_(tracer.next_replica()) {
  worker_track_ = tracer_.track("replica " + std::to_string(replica_) + " worker");
  stage_track_ = tracer_.track("replica " + std::to_string(replica_) + " featurize stage");
  set_pipeline_depth(inner_->pipeline() != nullptr ? inner_->pipeline()->depth() : 0);
}

TracedScorer::~TracedScorer() = default;

serve::ScorerPipeline* TracedScorer::pipeline() { return pipeline_.get(); }

void TracedScorer::set_pipeline_depth(int depth) {
  pipeline_.reset();
  inner_->set_pipeline_depth(depth);
  if (inner_->pipeline() != nullptr) {
    pipeline_ = std::make_unique<Pipeline>(*this, *inner_->pipeline());
  }
}

std::vector<float> TracedScorer::score(const std::vector<const serve::PoseInput*>& poses) {
  Tracer::Batch b;
  b.replica = replica_;
  b.poses = poses.size();
  b.requests = tracer_.attribute(poses, Clock::now());
  b.submit_begin = b.submit_end = b.collect_begin = Clock::now();
  const auto before = inner_->phase_stats();
  std::vector<float> out = inner_->score(poses);
  const auto after = inner_->phase_stats();
  b.collect_end = Clock::now();
  b.featurize_s = after.featurize_seconds - before.featurize_seconds;
  b.forward_s = after.forward_seconds - before.forward_seconds;
  finish(std::move(b));
  return out;
}

void TracedScorer::finish(Tracer::Batch b) {
  const auto dur = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const std::string args = "\"poses\": " + std::to_string(b.poses) +
                           ", \"requests\": " + std::to_string(b.requests.size());
  // The stage thread featurizes batches in submit order, one at a time, so
  // each featurize span starts when its batch was handed over or when the
  // previous one ended, whichever is later.
  const Clock::time_point feat_begin = std::max(b.submit_end, stage_free_);
  stage_free_ = feat_begin + dur(b.featurize_s);
  if (b.pipelined) {
    tracer_.span("submit", "serve.scorer", worker_track_, b.submit_begin, b.submit_end, args);
    tracer_.span("collect", "serve.scorer", worker_track_, b.collect_begin, b.collect_end, args);
    tracer_.span("featurize", "chem", stage_track_, feat_begin, stage_free_, args);
  } else {
    tracer_.span("score", "serve.scorer", worker_track_, b.submit_begin, b.collect_end, args);
    tracer_.span("featurize", "chem", worker_track_, b.submit_begin,
                 b.submit_begin + dur(b.featurize_s), args);
  }
  tracer_.span("forward", "models", worker_track_, b.collect_end - dur(b.forward_s),
               b.collect_end, args);
  tracer_.record_batch(std::move(b));
}

}  // namespace df::bench::screening
