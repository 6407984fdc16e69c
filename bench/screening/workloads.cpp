#include "workloads.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/rng.h"
#include "dock/conveyorlc.h"
#include "fixtures.h"
#include "screen/campaign.h"
#include "screen/job.h"
#include "screen/writer.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "trace.h"

namespace df::bench::screening {

namespace fs = std::filesystem;

namespace {

// ---- shape of the system under test ----------------------------------------
// nproc = 4 on the reference host: 2 service workers, each with a depth-2
// stage pipeline, are 4 compute threads.
constexpr int kWorkers = 2;
constexpr int kPipelineDepth = 2;
constexpr size_t kCacheTargets = 4;
constexpr int kPosesPerBatch = 32;
constexpr int kRankClients = 2;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// The correctness gates re-score every kGateEvery-th request (micro-batch
// chunk for the ordered jobs) on private sequential replicas.
constexpr size_t kGateEvery = 16;
constexpr int kGateThreads = 4;

// ---- rescore_* ---------------------------------------------------------------
constexpr int kJobs = 8;
constexpr int kPosesPerJob = 2048;
constexpr int kDistinctLigands = 512;
constexpr int kWarmPoses = 256;
constexpr int kHotReceptors = 4;
constexpr int kChurnReceptors = 64;

// ---- campaign_docking --------------------------------------------------------
constexpr int kLibraryCompounds = 24;
constexpr uint64_t kLibrarySeed = 2021;
constexpr int kCampaignPosesPerJob = 64;
constexpr int kCheckpointEveryUnits = 4;

// ---- wire_open_loop ----------------------------------------------------------
constexpr int kPosesPerRequest = 4;
constexpr int kGenerators = 4;
constexpr int kWarmRequests = 64;
// Frozen open-loop rates (requests/s), ~30/60/90% of the reference host's
// measured capacity (README.md). Never derived inside a run.
constexpr double kRateLow = 110.0;
constexpr double kRateNominal = 220.0;
constexpr double kRateHigh = 325.0;
// p99 latency limit (from each request's due time) for max_rps_at_slo.
constexpr double kLatencyLimitMs = 50.0;

// Input stream tags, one per workload family.
constexpr uint64_t kTagRescore = 0x5245534352ULL;
constexpr uint64_t kTagCampaign = 0x43414d50ULL;
constexpr uint64_t kTagWire = 0x57495245ULL;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

serve::ServiceConfig service_config(bool ordered) {
  serve::ServiceConfig sc;
  sc.workers = kWorkers;
  sc.poses_per_batch = kPosesPerBatch;
  sc.ordered_stream = ordered;
  sc.pipeline_depth = kPipelineDepth;
  sc.pocket_cache_targets = kCacheTargets;
  return sc;
}

/// The benchmark scorer under its registry name; in the traced run the
/// decorator is registered in its place.
serve::ModelRegistry make_registry(Tracer* tracer) {
  serve::ModelRegistry reg;
  reg.add(kScorerName, [tracer]() -> std::unique_ptr<serve::Scorer> {
    std::unique_ptr<serve::RegressorScorer> plain = make_fusion_scorer();
    if (tracer == nullptr) return plain;
    return std::make_unique<TracedScorer>(std::move(plain), *tracer);
  });
  return reg;
}

screen::JobConfig job_config() {
  screen::JobConfig jc;
  jc.nodes = 1;
  jc.gpus_per_node = kRankClients;
  jc.seed = 99;
  return jc;
}

serve::PoseInput to_pose(const screen::PoseWorkItem& item) {
  serve::PoseInput p;
  p.ligand = item.ligand;
  p.pocket = item.pocket;
  p.site_center = item.site_center;
  return p;
}

/// Builds the system `count` times, timing each build into `samples`, and
/// keeps the last one.
template <typename Rig>
std::unique_ptr<Rig> timed_setups(int count, std::vector<double>& samples,
                                  const std::function<std::unique_ptr<Rig>()>& make) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < count; ++i) {
    rig.reset();  // tear the previous system down outside the timer
    const auto t0 = Clock::now();
    rig = make();
    samples.push_back(seconds_since(t0));
  }
  return rig;
}

// ---- correctness gate -----------------------------------------------------------

/// Scores `batches` on private sequential replicas: no pocket cache, no
/// pipeline, no service.
std::vector<std::vector<float>> reference_scores(
    const std::vector<std::vector<serve::PoseInput>>& batches) {
  std::vector<std::vector<float>> out(batches.size());
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (int t = 0; t < kGateThreads; ++t) {
    threads.emplace_back([&] {
      try {
        std::unique_ptr<serve::RegressorScorer> scorer = make_fusion_scorer();
        for (size_t i; (i = next.fetch_add(1)) < batches.size();) {
          std::vector<const serve::PoseInput*> ptrs;
          for (const serve::PoseInput& p : batches[i]) ptrs.push_back(&p);
          out[i] = scorer->score(ptrs);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return out;
}

/// Compares system outputs against reference scores: bitwise when
/// `tolerance` < 0, within |diff| <= tolerance otherwise.
struct Gate {
  double tolerance = -1.0;
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  double max_abs_diff = 0.0;

  void compare(const float* got, size_t n, const std::vector<float>& want) {
    if (want.size() != n) {
      mismatched += n;
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      ++checked;
      const double d = std::fabs(static_cast<double>(got[i]) - want[i]);
      max_abs_diff = std::max(max_abs_diff, d);
      const bool same = tolerance < 0 ? std::memcmp(&got[i], &want[i], sizeof(float)) == 0
                                      : d <= tolerance;
      if (!same) ++mismatched;
    }
  }
  bool ok() const { return checked > 0 && mismatched == 0; }
  std::string json() const {
    return "\"rule\": \"" +
           (tolerance < 0 ? std::string("bitwise") : fmt("abs_diff<=%g", tolerance)) +
           "\", \"reference\": \"private sequential replica\", \"sample_every\": " +
           std::to_string(kGateEvery) + ", \"checked\": " + std::to_string(checked) +
           ", \"mismatched\": " + std::to_string(mismatched) +
           ", \"max_abs_diff\": " + fmt("%.9g", max_abs_diff);
  }
};

// ---- shared metric helpers ---------------------------------------------------------

Metric setup_metric(const std::vector<double>& samples) {
  std::string list;
  for (double s : samples) list += (list.empty() ? "" : ", ") + fmt("%.6f", s);
  return {"setup_s", median(samples), "s",
          "\"samples\": " + std::to_string(samples.size()) + ", \"values\": [" + list + "]"};
}

Metric failed_share(uint64_t failed, uint64_t attempted) {
  return {"failed_share",
          attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
          "fraction"};
}

/// serve.service and serve.pocket_cache layer metrics. Service counts cover
/// the measured phase (deltas from `before`); cache counts cover the
/// service's lifetime, so the warm-up's builds are included.
std::vector<Metric> service_layers(const serve::ScoringService& service,
                                   const serve::ServiceStats& before) {
  const serve::ServiceStats s = service.stats();
  const double batches = static_cast<double>(s.batches - before.batches);
  const double poses = static_cast<double>(s.poses - before.poses);
  std::vector<Metric> out = {
      {"service.batch_fill", batches > 0 ? poses / (batches * kPosesPerBatch) : 0.0, "ratio"},
      {"service.coalesced_share",
       batches > 0 ? static_cast<double>(s.coalesced_batches - before.coalesced_batches) / batches
                   : 0.0,
       "ratio"},
      {"service.peak_queued_poses", static_cast<double>(s.peak_queued_poses), "count"},
  };
  if (const auto cache = service.pocket_cache()) {
    const serve::PocketCache::Stats c = cache->stats();
    const double lookups = static_cast<double>(c.hits + c.misses);
    out.push_back({"pocket_cache.hit_ratio",
                   lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0, "ratio"});
    out.push_back({"pocket_cache.misses", static_cast<double>(c.misses), "count"});
    out.push_back({"pocket_cache.evictions", static_cast<double>(c.evictions), "count"});
  }
  return out;
}

void append(std::vector<Metric>& to, const std::vector<Metric>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---- rescore_hot_targets / rescore_target_churn ------------------------------------

struct JobPhase {
  double seconds = 0.0;
  uint64_t poses = 0;
  uint64_t jobs = 0;
  uint64_t failed = 0;
  std::vector<double> job_ms;
  std::vector<std::pair<size_t, std::vector<float>>> outputs;  // (job input, predictions)
};

/// Closed loop: one job after another until `seconds` have passed.
JobPhase run_jobs(serve::ScoringService& service,
                  const std::vector<std::vector<screen::PoseWorkItem>>& jobs, double seconds,
                  Tracer* tracer) {
  std::vector<std::vector<uint64_t>> keys;
  int track = -1;
  if (tracer != nullptr) {
    track = tracer->track("job client");
    for (const auto& job : jobs) {
      keys.emplace_back();
      for (const screen::PoseWorkItem& item : job) keys.back().push_back(ligand_key(item.ligand));
    }
  }
  const screen::FusionScoringJob job(job_config());
  JobPhase ph;
  const auto start = Clock::now();
  for (size_t j = 0; j == 0 || seconds_since(start) < seconds; ++j) {
    const size_t input = j % jobs.size();
    const auto t0 = Clock::now();
    const uint64_t id = tracer != nullptr ? tracer->begin_request(keys[input], t0) : 0;
    try {
      screen::JobReport r = job.run(jobs[input], service, kScorerName);
      ph.poses += static_cast<uint64_t>(r.poses_scored);
      if (r.failed) {
        ++ph.failed;
      } else {
        ph.outputs.emplace_back(input, std::move(r.predictions));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_screening: job failed: %s\n", e.what());
      ++ph.failed;
    }
    const auto t1 = Clock::now();
    ++ph.jobs;
    ph.job_ms.push_back(ms_between(t0, t1));
    if (tracer != nullptr) {
      tracer->end_request(id, t1);
      tracer->span("job", "screen", track, t0, t1,
                   "\"poses\": " + std::to_string(jobs[input].size()));
    }
  }
  ph.seconds = seconds_since(start);
  return ph;
}

/// Every kGateEvery-th micro-batch chunk of each job input's first run is
/// re-scored; a repeated job must reproduce its first run bit for bit.
void gate_jobs(const std::vector<std::vector<screen::PoseWorkItem>>& jobs, const JobPhase& ph,
               Gate& gate) {
  std::map<size_t, const std::vector<float>*> first_run;
  std::vector<std::vector<serve::PoseInput>> batches;
  std::vector<const float*> got;
  for (const auto& [input, pred] : ph.outputs) {
    const auto& items = jobs[input];
    if (pred.size() != items.size()) {
      gate.mismatched += items.size();
      continue;
    }
    const auto [it, first] = first_run.emplace(input, &pred);
    if (!first) {
      gate.compare(pred.data(), pred.size(), *it->second);
      continue;
    }
    for (size_t b = 0; b < items.size(); b += kPosesPerBatch * kGateEvery) {
      batches.emplace_back();
      for (size_t i = b; i < std::min(items.size(), b + kPosesPerBatch); ++i) {
        batches.back().push_back(to_pose(items[i]));
      }
      got.push_back(pred.data() + b);
    }
  }
  const std::vector<std::vector<float>> want = reference_scores(batches);
  for (size_t k = 0; k < batches.size(); ++k) gate.compare(got[k], batches[k].size(), want[k]);
}

Result run_rescore(const Options& opt, bool churn) {
  Result res;
  core::Rng panel_rng(core::derive_stream(opt.seed, kTagRescore, 0));
  core::Rng stream_rng(core::derive_stream(opt.seed, kTagRescore, 2));
  // Churn's panel starts with hot's four receptors.
  const std::vector<Receptor> panel =
      make_panel(churn ? kChurnReceptors : kHotReceptors, panel_rng);
  const std::vector<chem::Molecule> stream =
      make_pose_stream(kJobs * kPosesPerJob, kDistinctLigands, stream_rng);
  const auto jobs = make_jobs(stream, panel, kJobs, kPosesPerJob);
  const auto warm = make_jobs(stream, panel, 1, kWarmPoses);

  Digest d;
  for (const auto& cloud : panel) d.atoms(cloud);
  for (const chem::Molecule& m : stream) d.molecule(m);
  res.input_digest = d.hex();
  res.inputs = "\"receptors\": " + std::to_string(panel.size()) +
               ", \"receptor_atoms\": " + std::to_string(kReceptorAtoms) +
               ", \"jobs\": " + std::to_string(kJobs) +
               ", \"poses_per_job\": " + std::to_string(kPosesPerJob) +
               ", \"distinct_ligands\": " + std::to_string(kDistinctLigands) +
               ", \"rank_clients\": " + std::to_string(kRankClients) +
               ", \"pocket_cache_targets\": " + std::to_string(kCacheTargets);

  const auto setup = [&](Tracer* tracer) {
    return [&, tracer] {
      auto service =
          std::make_unique<serve::ScoringService>(make_registry(tracer), service_config(true));
      screen::FusionScoringJob(job_config()).run(warm[0], *service, kScorerName);
      return service;
    };
  };

  std::vector<double> setup_s;
  const double measure_s = opt.traced() ? opt.seconds / 2 : opt.seconds;
  auto service = timed_setups<serve::ScoringService>(opt.traced() ? 1 : kSetups, setup_s,
                                                     setup(nullptr));
  const JobPhase plain = run_jobs(*service, jobs, measure_s, nullptr);
  service.reset();

  Gate gate;
  gate_jobs(jobs, plain, gate);
  res.attempted = plain.jobs;
  res.failed = plain.failed;
  res.metrics = {
      setup_metric(setup_s),
      {"poses_per_s", static_cast<double>(plain.poses) / plain.seconds, "poses/s"},
      percentile_metric("latency_p50_ms", plain.job_ms, 0.50, "ms"),
      percentile_metric("latency_p99_ms", plain.job_ms, 0.99, "ms"),
      failed_share(plain.failed, plain.jobs),
  };

  if (opt.traced()) {
    Tracer tracer;
    service = setup(&tracer)();
    const serve::ServiceStats before = service->stats();
    const JobPhase traced = run_jobs(*service, jobs, measure_s, &tracer);
    res.layers = tracer.scorer_metrics();
    append(res.layers, service_layers(*service, before));
    append(res.layers, tracer.request_metrics(false));
    const double plain_pps = static_cast<double>(plain.poses) / plain.seconds;
    const double traced_pps = static_cast<double>(traced.poses) / traced.seconds;
    res.layers.push_back({"trace.overhead", plain_pps / traced_pps, "ratio"});
    service.reset();
    gate_jobs(jobs, traced, gate);
    res.attempted += traced.jobs;
    res.failed += traced.failed;
    if (!tracer.write_chrome_trace(opt.trace_path)) {
      throw std::runtime_error("cannot write " + opt.trace_path);
    }
  }
  res.correct = gate.ok();
  res.correctness = gate.json();
  return res;
}

// ---- campaign_docking ---------------------------------------------------------------

/// Digest of everything a campaign report holds except its timings.
std::string report_digest(const screen::CampaignReport& r) {
  Digest d;
  for (const screen::CompoundScreenResult& c : r.results) {
    d.bytes(c.compound_id.data(), c.compound_id.size());
    d.u64(static_cast<uint64_t>(c.target_index));
    for (float v : {c.fusion_pk, c.vina_score, c.mmgbsa_score, c.ampl_mmgbsa_score, c.true_pk,
                    c.percent_inhibition}) {
      d.bytes(&v, sizeof(v));
    }
    d.u64(static_cast<uint64_t>(c.poses));
  }
  for (int v : {r.jobs_run, r.jobs_failed, r.compounds_rejected, r.poses_generated, r.units_total,
                r.units_exhausted, r.checkpoints_written}) {
    d.u64(static_cast<uint64_t>(v));
  }
  return d.hex();
}

/// The shards a campaign streamed must hold every scored pose, and the
/// report's per-(compound, target) Fusion prediction must be the maximum
/// over them, bit for bit.
bool shards_match_report(const screen::CampaignReport& report,
                         const std::vector<data::LibraryCompound>& library) {
  std::map<std::pair<int64_t, int64_t>, float> best;
  int64_t rows = 0;
  for (const std::string& path : report.shard_files) {
    const screen::ShardScan scan = screen::scan_shard_stream(path);
    if (!scan.damage.empty()) return false;
    for (const screen::ShardBlock& b : scan.blocks) {
      for (size_t i = 0; i < b.rows(); ++i) {
        const auto key = std::make_pair(b.compound_ids[i], b.target_ids[i]);
        auto [it, inserted] = best.try_emplace(key, b.predictions[i]);
        if (!inserted) it->second = std::max(it->second, b.predictions[i]);
        ++rows;
      }
    }
  }
  if (rows != report.poses_generated || report.units_exhausted != 0) return false;
  std::map<std::string, int64_t> index;
  for (size_t i = 0; i < library.size(); ++i) index[library[i].id] = static_cast<int64_t>(i);
  for (const screen::CompoundScreenResult& c : report.results) {
    const auto it = best.find({index.at(c.compound_id), c.target_index});
    if (it == best.end() || std::memcmp(&it->second, &c.fusion_pk, sizeof(float)) != 0) {
      return false;
    }
  }
  return !report.results.empty();
}

uint64_t bytes_under(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

struct CampaignPhase {
  double seconds = 0.0;
  uint64_t runs = 0;
  uint64_t units = 0;
  uint64_t exhausted = 0;
  uint64_t compounds = 0;
  uint64_t poses = 0;
  std::vector<double> run_ms;
  double dock_s = 0.0, mmgbsa_s = 0.0, fusion_s = 0.0;
  uint64_t rescored_poses = 0;
  uint64_t bytes_written = 0;
  uint64_t checkpoints = 0;
  uint64_t shard_mismatches = 0;
  std::vector<std::string> digests;
};

CampaignPhase run_campaigns(serve::ScoringService& service,
                            const std::vector<data::LibraryCompound>& library,
                            const std::vector<data::Target>& targets, const Options& opt,
                            double seconds, Tracer* tracer) {
  const int track = tracer != nullptr ? tracer->track("campaign driver") : -1;
  screen::CampaignConfig cfg;
  cfg.job = job_config();
  cfg.job.voxel = voxel_config();
  cfg.job.graph = graph_config();
  cfg.poses_per_job = kCampaignPosesPerJob;
  cfg.pipeline.docking.num_runs = 4;
  cfg.pipeline.docking.steps_per_run = 50;
  cfg.pipeline.docking.max_poses = 4;
  cfg.pipeline.rescore_top_n = 2;
  cfg.threads = kRankClients;
  cfg.seed = opt.seed;
  cfg.checkpoint_every_jobs = kCheckpointEveryUnits;

  CampaignPhase ph;
  const fs::path dir = fs::path(opt.workdir) / "campaign";
  const auto start = Clock::now();
  for (size_t run = 0; run == 0 || seconds_since(start) < seconds; ++run) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    cfg.output_prefix = (dir / "screen").string();
    cfg.checkpoint_path = (dir / "screen.ckpt").string();
    screen::ScreeningCampaign campaign(cfg, targets);
    const auto t0 = Clock::now();
    const screen::CampaignReport r = campaign.run(library, service, kScorerName);
    const auto t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->span("campaign", "screen", track, t0, t1,
                   "\"poses\": " + std::to_string(r.poses_generated));
    }
    ++ph.runs;
    ph.run_ms.push_back(ms_between(t0, t1));
    ph.units += static_cast<uint64_t>(r.units_total);
    ph.exhausted += static_cast<uint64_t>(r.units_exhausted);
    ph.compounds += library.size();
    ph.poses += static_cast<uint64_t>(r.poses_generated);
    ph.dock_s += r.docking_seconds;
    ph.mmgbsa_s += r.mmgbsa_seconds;
    ph.fusion_s += r.fusion_seconds;
    for (const screen::CompoundScreenResult& c : r.results) {
      ph.rescored_poses += static_cast<uint64_t>(std::min(c.poses, 2));
    }
    ph.checkpoints += static_cast<uint64_t>(r.checkpoints_written);
    ph.bytes_written += bytes_under(dir);
    if (!shards_match_report(r, library)) ++ph.shard_mismatches;
    ph.digests.push_back(report_digest(r));
  }
  ph.seconds = seconds_since(start);
  fs::remove_all(dir);
  return ph;
}

Result run_campaign(const Options& opt) {
  if (opt.workdir.empty()) throw std::invalid_argument("campaign_docking needs --workdir");
  Result res;
  // The library and the four targets are fixed, so every seed screens the
  // same chemistry (docking cost depends on the compounds); the seed drives
  // the campaign's docking search, fault and assay streams, and the warm-up
  // poses.
  core::Rng rng(kLibrarySeed);
  const std::vector<data::LibraryCompound> library = make_library(kLibraryCompounds, rng);
  const std::vector<data::Target> targets = data::make_sars_cov2_targets(rng);

  // Warm pass: poses at each target's docking site, so the replicas, arenas
  // and the four pocket-cache entries exist before the campaign starts.
  core::Rng warm_rng(core::derive_stream(opt.seed, kTagCampaign, 1));
  const std::vector<chem::Molecule> warm_stream = make_pose_stream(kPosesPerBatch * 4, 8, warm_rng);
  serve::ScoreRequest warm;
  warm.scorer = kScorerName;
  for (size_t i = 0; i < warm_stream.size(); ++i) {
    const data::Target& t = targets[(i / kPosesPerBatch) % targets.size()];
    serve::PoseInput p;
    p.ligand = warm_stream[i];
    p.site_center = dock::ConveyorLC::prepare_receptor(t.pocket).site_center;
    p.ligand.translate(p.site_center);
    p.pocket = &t.pocket;
    warm.poses.push_back(std::move(p));
  }

  Digest d;
  for (const data::LibraryCompound& c : library) {
    d.bytes(c.id.data(), c.id.size());
    d.bytes(c.smiles.data(), c.smiles.size());
    d.molecule(c.molecule);
  }
  for (const data::Target& t : targets) d.atoms(t.pocket);
  for (const serve::PoseInput& p : warm.poses) d.molecule(p.ligand);
  d.u64(opt.seed);
  res.input_digest = d.hex();
  res.inputs = "\"library\": \"Enamine\", \"compounds\": " + std::to_string(library.size()) +
               ", \"targets\": " + std::to_string(targets.size()) +
               ", \"poses_per_unit\": " + std::to_string(kCampaignPosesPerJob) +
               ", \"checkpoint_every_units\": " + std::to_string(kCheckpointEveryUnits);

  const auto setup = [&](Tracer* tracer) {
    return [&, tracer] {
      auto service =
          std::make_unique<serve::ScoringService>(make_registry(tracer), service_config(true));
      const serve::ScoreResponse r = service->score(warm);
      if (r.error != serve::ScoreError::kNone) {
        throw std::runtime_error("warm-up failed: " + r.message);
      }
      return service;
    };
  };

  std::vector<double> setup_s;
  const double measure_s = opt.traced() ? opt.seconds / 2 : opt.seconds;
  auto service = timed_setups<serve::ScoringService>(opt.traced() ? 1 : kSetups, setup_s,
                                                     setup(nullptr));
  const CampaignPhase plain = run_campaigns(*service, library, targets, opt, measure_s, nullptr);
  service.reset();

  res.attempted = plain.units;
  res.failed = plain.exhausted;
  res.metrics = {
      setup_metric(setup_s),
      {"poses_per_s", static_cast<double>(plain.poses) / plain.seconds, "poses/s"},
      percentile_metric("latency_p50_ms", plain.run_ms, 0.50, "ms"),
      percentile_metric("latency_p99_ms", plain.run_ms, 0.99, "ms"),
      {"compounds_per_s", static_cast<double>(plain.compounds) / plain.seconds, "compounds/s"},
      failed_share(plain.exhausted, plain.units),
  };
  std::vector<std::string> digests = plain.digests;
  uint64_t shard_mismatches = plain.shard_mismatches;

  if (opt.traced()) {
    Tracer tracer;
    service = setup(&tracer)();
    const serve::ServiceStats before = service->stats();
    const CampaignPhase traced = run_campaigns(*service, library, targets, opt, measure_s, &tracer);
    res.layers = tracer.scorer_metrics();
    append(res.layers, service_layers(*service, before));
    const double compound_targets = static_cast<double>(traced.compounds * targets.size());
    const double runs = static_cast<double>(traced.runs);
    const double rescored = static_cast<double>(std::max<uint64_t>(1, traced.rescored_poses));
    append(res.layers,
           {
               {"dock.ms_per_compound_target",
                (traced.dock_s - traced.mmgbsa_s) / compound_targets * 1e3, "ms"},
               {"dock.mmgbsa_ms_per_pose", traced.mmgbsa_s / rescored * 1e3, "ms"},
               {"dock.share", traced.dock_s / traced.seconds, "ratio"},
               {"screen.scoring_share", traced.fusion_s / traced.seconds, "ratio"},
               {"screen.bytes_written", static_cast<double>(traced.bytes_written) / runs, "bytes"},
               {"screen.checkpoints_written", static_cast<double>(traced.checkpoints) / runs,
                "count"},
           });
    const double plain_pps = static_cast<double>(plain.poses) / plain.seconds;
    const double traced_pps = static_cast<double>(traced.poses) / traced.seconds;
    res.layers.push_back({"trace.overhead", plain_pps / traced_pps, "ratio"});
    service.reset();
    res.attempted += traced.units;
    res.failed += traced.exhausted;
    digests.insert(digests.end(), traced.digests.begin(), traced.digests.end());
    shard_mismatches += traced.shard_mismatches;
    if (!tracer.write_chrome_trace(opt.trace_path)) {
      throw std::runtime_error("cannot write " + opt.trace_path);
    }
  }

  // Every campaign run of the same library must produce the same report.
  bool deterministic = true;
  for (const std::string& v : digests) deterministic = deterministic && v == digests.front();
  res.correct = deterministic && shard_mismatches == 0;
  res.correctness = "\"rule\": \"shards equal report, identical report every run\", \"runs\": " +
                    std::to_string(digests.size()) +
                    ", \"shard_mismatches\": " + std::to_string(shard_mismatches) +
                    ", \"deterministic\": " + (deterministic ? "true" : "false") +
                    ", \"report_digest\": \"" + digests.front() + "\"";
  std::printf("campaign report digest: %s\n", digests.front().c_str());
  return res;
}

// ---- wire_open_loop -----------------------------------------------------------------

// Rate steps in run order: low, nominal, high.
constexpr double kStepRates[] = {kRateLow, kRateNominal, kRateHigh};

struct StepResult {
  std::vector<double> latency_ms;  // from due time; failed requests count as +inf
  std::vector<double> lag_ms;      // send time - due time
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t poses = 0;
  double wall_s = 0.0;
};

/// Open loop: request i is due at `due[i]` after the step starts, whatever
/// happened to earlier requests. kGenerators threads take requests in due
/// order over one pooled client with kGenerators connections.
StepResult run_step(serve::ScoreClient& client, const std::vector<serve::ScoreRequest>& reqs,
                    const std::vector<double>& due, Tracer* tracer, const std::vector<int>& tracks,
                    std::vector<std::vector<float>>& scores) {
  const size_t n = reqs.size();
  std::vector<double> latency(n, 0.0), lag(n, 0.0);
  std::vector<char> ok(n, 0);
  std::vector<Clock::time_point> received(n);
  std::vector<std::vector<uint64_t>> keys(tracer != nullptr ? n : 0);
  if (tracer != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      for (const serve::PoseInput& p : reqs[i].poses) keys[i].push_back(ligand_key(p.ligand));
    }
  }
  std::atomic<size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int g = 0; g < kGenerators; ++g) {
    threads.emplace_back([&, g] {
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        const auto due_at = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(due_at);
        const auto sent = Clock::now();
        const uint64_t id = tracer != nullptr ? tracer->begin_request(keys[i], sent) : 0;
        serve::ScoreResponse r = client.score(reqs[i]);
        const auto got = Clock::now();
        if (tracer != nullptr) {
          tracer->end_request(id, got);
          tracer->span("request", "serve.client", tracks[static_cast<size_t>(g)], sent, got,
                       "\"poses\": " + std::to_string(reqs[i].poses.size()));
        }
        lag[i] = ms_between(due_at, sent);
        latency[i] = ms_between(due_at, got);
        received[i] = got;
        ok[i] = r.error == serve::ScoreError::kNone && r.scores.size() == reqs[i].poses.size();
        if (ok[i]) scores[i] = std::move(r.scores);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  StepResult s;
  s.sent = n;
  Clock::time_point last = start;
  for (size_t i = 0; i < n; ++i) {
    s.lag_ms.push_back(lag[i]);
    // A failed request misses any latency limit.
    s.latency_ms.push_back(ok[i] ? latency[i] : HUGE_VAL);
    if (ok[i]) {
      s.poses += reqs[i].poses.size();
    } else {
      ++s.failed;
    }
    last = std::max(last, received[i]);
  }
  s.wall_s = std::chrono::duration<double>(last - start).count();
  return s;
}

/// The request rate at which p99 latency crosses the limit, interpolated
/// linearly between the measured steps. Past the highest step without a
/// crossing, the highest rate (a lower bound).
double max_rps_at_slo(const std::vector<std::pair<double, double>>& rate_p99) {
  if (rate_p99.front().second > kLatencyLimitMs) return rate_p99.front().first;
  for (size_t i = 1; i < rate_p99.size(); ++i) {
    const auto [r0, p0] = rate_p99[i - 1];
    const auto [r1, p1] = rate_p99[i];
    if (p1 > kLatencyLimitMs) {
      if (!std::isfinite(p1)) return r0;
      return r0 + (r1 - r0) * (kLatencyLimitMs - p0) / (p1 - p0);
    }
  }
  return rate_p99.back().first;
}

// Members are destroyed in reverse order: the client's connections first,
// then the server (which borrows the service), then the service.
struct WireRig {
  std::unique_ptr<serve::ScoringService> service;
  std::unique_ptr<serve::ScoreServer> server;
  std::unique_ptr<serve::ScoreClient> client;
};

struct WirePhase {
  std::vector<StepResult> steps;
  uint64_t attempted = 0, failed = 0;
};

struct WireSchedule {
  std::vector<std::vector<serve::ScoreRequest>> reqs;  // [step][request]
  std::vector<std::vector<double>> due;                // [step][request], seconds
};

/// The next docking run of the pose stream as one request: kPosesPerRequest
/// poses against one receptor.
serve::ScoreRequest next_request(const std::vector<chem::Molecule>& stream,
                                 const std::vector<Receptor>& panel, size_t& pos) {
  serve::ScoreRequest r;
  r.scorer = kScorerName;
  for (int p = 0; p < kPosesPerRequest; ++p, ++pos) {
    serve::PoseInput pose;
    pose.ligand = stream[pos % stream.size()];
    pose.pocket = &panel[receptor_of(pos, panel.size())];
    r.poses.push_back(std::move(pose));
  }
  return r;
}

/// The requests of every step and their seeded due times.
WireSchedule make_schedule(const std::vector<chem::Molecule>& stream,
                           const std::vector<Receptor>& panel, size_t& pos, double step_s,
                           uint64_t seed, uint64_t phase) {
  WireSchedule s;
  for (size_t k = 0; k < std::size(kStepRates); ++k) {
    // Poisson arrivals conditioned on their count: that many uniform due
    // times, sorted.
    const size_t n = static_cast<size_t>(std::llround(kStepRates[k] * step_s));
    core::Rng rng(core::derive_stream(seed, kTagWire, 16 + phase * 8 + k));
    std::vector<double> due(n);
    for (double& t : due) t = rng.uniform_d(0.0, step_s);
    std::sort(due.begin(), due.end());
    std::vector<serve::ScoreRequest> reqs;
    for (size_t i = 0; i < n; ++i) reqs.push_back(next_request(stream, panel, pos));
    s.reqs.push_back(std::move(reqs));
    s.due.push_back(std::move(due));
  }
  return s;
}

WirePhase run_wire_phase(serve::ScoreClient& client, const WireSchedule& sched, Tracer* tracer,
                         Gate& gate) {
  WirePhase ph;
  std::vector<int> tracks;
  for (int g = 0; tracer != nullptr && g < kGenerators; ++g) {
    tracks.push_back(tracer->track("generator " + std::to_string(g)));
  }
  std::vector<std::vector<serve::PoseInput>> batches;
  std::vector<std::vector<float>> got;
  size_t global = 0;
  for (size_t k = 0; k < sched.reqs.size(); ++k) {
    std::vector<std::vector<float>> scores(sched.reqs[k].size());
    ph.steps.push_back(run_step(client, sched.reqs[k], sched.due[k], tracer, tracks, scores));
    ph.attempted += ph.steps.back().sent;
    ph.failed += ph.steps.back().failed;
    for (size_t i = 0; i < scores.size(); ++i, ++global) {
      if (global % kGateEvery != 0 || scores[i].empty()) continue;
      batches.push_back(sched.reqs[k][i].poses);
      got.push_back(std::move(scores[i]));
    }
  }
  const std::vector<std::vector<float>> want = reference_scores(batches);
  for (size_t i = 0; i < batches.size(); ++i) gate.compare(got[i].data(), got[i].size(), want[i]);
  return ph;
}

/// Exact request size on the wire, and the CPU cost of encoding and
/// decoding it, over a sample of the run's requests.
std::vector<Metric> wire_codec_metrics(const std::vector<serve::ScoreRequest>& sample) {
  double bytes = 0.0;
  std::vector<std::string> payloads;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < sample.size(); ++i) {
    std::string frame = serve::wire::encode_frame(serve::wire::FrameType::kScoreRequest,
                                                  serve::wire::pack_request(sample[i], i).encode());
    bytes += static_cast<double>(frame.size());
    payloads.push_back(std::move(frame));
  }
  const auto t1 = Clock::now();
  constexpr size_t kHeader = 12, kTrailer = 4;  // magic|version|type|len ... crc
  size_t poses = 0;
  for (const std::string& frame : payloads) {
    const serve::wire::ScoreRequestPayload p = serve::wire::ScoreRequestPayload::decode(
        std::string_view(frame).substr(kHeader, frame.size() - kHeader - kTrailer));
    poses += serve::wire::unpack_request(p).poses.size();
  }
  const auto t2 = Clock::now();
  const double n = static_cast<double>(std::max<size_t>(1, sample.size()));
  if (poses != sample.size() * kPosesPerRequest) {
    throw std::runtime_error("wire codec round trip lost poses");
  }
  return {
      {"wire.request_bytes", bytes / n, "bytes"},
      {"wire.encode_us", ms_between(t0, t1) * 1e3 / n, "us"},
      {"wire.decode_us", ms_between(t1, t2) * 1e3 / n, "us"},
  };
}

Result run_wire(const Options& opt) {
  Result res;
  core::Rng panel_rng(core::derive_stream(opt.seed, kTagWire, 0));
  core::Rng stream_rng(core::derive_stream(opt.seed, kTagWire, 1));
  const std::vector<Receptor> panel = make_panel(kHotReceptors, panel_rng);
  const double measure_s = opt.traced() ? opt.seconds / 2 : opt.seconds;
  const double step_s = measure_s / static_cast<double>(std::size(kStepRates));
  // Enough distinct poses that no key repeats within a run.
  double total_rate = 0.0;
  for (double r : kStepRates) total_rate += r;
  const int stream_poses =
      static_cast<int>(std::ceil(total_rate * step_s * 2 + kWarmRequests)) * kPosesPerRequest;
  const std::vector<chem::Molecule> stream =
      make_pose_stream(stream_poses, kDistinctLigands, stream_rng);

  size_t pos = 0;
  const WireSchedule plain_sched = make_schedule(stream, panel, pos, step_s, opt.seed, 0);
  const WireSchedule traced_sched =
      opt.traced() ? make_schedule(stream, panel, pos, step_s, opt.seed, 1) : WireSchedule{};
  std::vector<serve::ScoreRequest> warm;
  for (int i = 0; i < kWarmRequests; ++i) warm.push_back(next_request(stream, panel, pos));

  Digest d;
  for (const auto& cloud : panel) d.atoms(cloud);
  for (const chem::Molecule& m : stream) d.molecule(m);
  for (const auto& step : plain_sched.due) {
    for (double t : step) d.bytes(&t, sizeof(t));
  }
  res.input_digest = d.hex();
  res.inputs = "\"receptors\": " + std::to_string(panel.size()) +
               ", \"receptor_atoms\": " + std::to_string(kReceptorAtoms) +
               ", \"poses_per_request\": " + std::to_string(kPosesPerRequest) +
               ", \"generators\": " + std::to_string(kGenerators) +
               ", \"connections\": " + std::to_string(kGenerators) +
               ", \"step_seconds\": " + fmt("%.3f", step_s) + ", \"rates_rps\": [" +
               fmt("%.1f", kRateLow) + ", " + fmt("%.1f", kRateNominal) + ", " +
               fmt("%.1f", kRateHigh) + "], \"latency_limit_ms\": " + fmt("%.1f", kLatencyLimitMs);

  const auto setup = [&](Tracer* tracer) {
    return [&, tracer] {
      auto rig = std::make_unique<WireRig>();
      rig->service =
          std::make_unique<serve::ScoringService>(make_registry(tracer), service_config(false));
      rig->server = std::make_unique<serve::ScoreServer>(*rig->service);
      serve::ClientConfig cc;
      cc.port = rig->server->port();
      cc.connections = kGenerators;
      rig->client = std::make_unique<serve::ScoreClient>(cc);
      // Closed-loop warm pass over every connection.
      std::atomic<size_t> next{0};
      std::atomic<bool> failed{false};
      std::vector<std::thread> threads;
      for (int g = 0; g < kGenerators; ++g) {
        threads.emplace_back([&] {
          for (size_t i; (i = next.fetch_add(1)) < warm.size();) {
            if (rig->client->score(warm[i]).error != serve::ScoreError::kNone) failed = true;
          }
        });
      }
      for (std::thread& t : threads) t.join();
      if (failed) throw std::runtime_error("wire warm-up failed");
      return rig;
    };
  };

  Gate gate;
  gate.tolerance = 1e-4;
  std::vector<double> setup_s;
  std::unique_ptr<WireRig> rig =
      timed_setups<WireRig>(opt.traced() ? 1 : kSetups, setup_s, setup(nullptr));
  const WirePhase plain = run_wire_phase(*rig->client, plain_sched, nullptr, gate);
  rig.reset();

  // Appends the end-to-end metrics of a phase; returns its headline p50.
  const auto summarize = [](const WirePhase& ph, std::vector<Metric>& out) {
    std::vector<std::pair<double, double>> rate_p99;
    double poses = 0.0, wall = 0.0;
    std::vector<double> lag;
    for (size_t k = 0; k < ph.steps.size(); ++k) {
      const StepResult& s = ph.steps[k];
      rate_p99.emplace_back(kStepRates[k], percentile(s.latency_ms, 0.99).value);
      poses += static_cast<double>(s.poses);
      wall += s.wall_s;
      lag.insert(lag.end(), s.lag_ms.begin(), s.lag_ms.end());
    }
    out.push_back({"poses_per_s", poses / wall, "poses/s"});
    // The headline latency is the low step's: there queueing is small and
    // the per-request path dominates, so it repeats on a noisy host; the
    // loaded steps are reported beside it.
    const auto& low = ph.steps[0].latency_ms;
    out.push_back(percentile_metric("latency_p50_ms", low, 0.50, "ms"));
    out.push_back(percentile_metric("latency_p99_ms", low, 0.99, "ms"));
    for (size_t k = 1; k < ph.steps.size(); ++k) {
      const std::string step = k == 1 ? "_nominal" : "_high";
      out.push_back(percentile_metric("latency_p50_ms" + step, ph.steps[k].latency_ms, 0.50, "ms"));
      out.push_back(percentile_metric("latency_p99_ms" + step, ph.steps[k].latency_ms, 0.99, "ms"));
    }
    out.push_back({"max_rps_at_slo", max_rps_at_slo(rate_p99), "req/s"});
    out.push_back(percentile_metric("loadgen.lag_ms_p99", lag, 0.99, "ms"));
    return percentile(low, 0.50).value;
  };

  res.attempted = plain.attempted;
  res.failed = plain.failed;
  res.metrics = {setup_metric(setup_s)};
  const double plain_p50 = summarize(plain, res.metrics);
  res.metrics.push_back(failed_share(plain.failed, plain.attempted));

  if (opt.traced()) {
    Tracer tracer;
    rig = setup(&tracer)();
    const serve::ServiceStats before = rig->service->stats();
    const serve::ClientStats client_before = rig->client->stats();
    const WirePhase traced = run_wire_phase(*rig->client, traced_sched, &tracer, gate);
    res.layers = tracer.scorer_metrics();
    append(res.layers, service_layers(*rig->service, before));
    append(res.layers, tracer.request_metrics(true));
    append(res.layers, wire_codec_metrics(traced_sched.reqs[1]));
    const serve::ClientStats cs = rig->client->stats();
    res.layers.push_back(
        {"client.retries", static_cast<double>(cs.retries - client_before.retries), "count"});
    res.layers.push_back(
        {"client.transport_failures",
         static_cast<double>(cs.transport_failures - client_before.transport_failures), "count"});
    std::vector<Metric> traced_e2e;
    const double traced_p50 = summarize(traced, traced_e2e);
    for (const Metric& m : traced_e2e) {
      if (m.name == "loadgen.lag_ms_p99") res.layers.push_back(m);
    }
    // Open loop: the offered rate is fixed, so the overhead shows in latency.
    res.layers.push_back({"trace.overhead", traced_p50 / plain_p50, "ratio"});
    rig.reset();
    res.attempted += traced.attempted;
    res.failed += traced.failed;
    if (!tracer.write_chrome_trace(opt.trace_path)) {
      throw std::runtime_error("cannot write " + opt.trace_path);
    }
  }
  res.correct = gate.ok();
  res.correctness = gate.json();
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rescore_hot_targets", "rescore_target_churn",
                                                 "campaign_docking", "wire_open_loop"};
  return names;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "rescore_hot_targets") return run_rescore(opt, false);
  if (opt.workload == "rescore_target_churn") return run_rescore(opt, true);
  if (opt.workload == "campaign_docking") return run_campaign(opt);
  if (opt.workload == "wire_open_loop") return run_wire(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace df::bench::screening
