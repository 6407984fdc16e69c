// Cluster load generator — drives a fleet of real score_server_node
// processes at two layers and reports throughput, tail latency, and the
// cost of chaos:
//
//  1. Wire clients — C threads hammering the fleet through ScoreClient
//     (retries + backoff on): requests/sec, p50/p99, retries,
//     transport failures.
//  2. ClusterController — the campaign's scheduling layer: a feeder keeps
//     the unit pipeline full, units/sec and unit-latency percentiles come
//     out, plus requeues and node death/revival counts.
//
// With --kill-every-ms=K a killer thread SIGKILLs fleet nodes round-robin
// every K ms and respawns them on the same port, so the numbers include
// real node-death recovery, not just the happy path.
//
// Run modes:
//   bench_cluster_loadgen [--nodes=3] [--clients=4] [--seconds=5]
//                         [--kill-every-ms=0] [--json[=PATH]]
// The server binary is $DF_SERVER_BIN, or score_server_node next to this
// binary when unset.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "chem/conformer.h"
#include "screen/controller.h"
#include "serve/client.h"
#include "serve/latency.h"

using namespace df;
using namespace df::bench;
namespace fs = std::filesystem;
using namespace std::chrono_literals;

namespace {

constexpr int kPosesPerRequest = 6;
constexpr int kPosesPerBatch = 8;

int int_flag(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 60s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// One score_server_node child; SIGKILL-able and respawnable on its port.
/// Model flags mirror the chaos suite's tiny SG-CNN so every node (and
/// every respawn) serves identical scores.
class ServerProcess {
 public:
  ServerProcess(std::string bin, fs::path dir) : bin_(std::move(bin)), dir_(std::move(dir)) {}
  ~ServerProcess() { kill_hard(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool spawn(int port) {
    static std::atomic<int> counter{0};
    const std::string tag = "loadgen" + std::to_string(counter.fetch_add(1));
    const fs::path port_file = dir_ / (tag + ".port");
    std::error_code ec;
    fs::remove(port_file, ec);
    std::vector<std::string> args = {
        bin_,
        "--port=" + std::to_string(port),
        "--port-file=" + port_file.string(),
        "--node-id=" + tag,
        "--scorer=sgcnn",
        "--model-seed=31",
        "--voxel-grid=8",
        "--gather-cov=8",
        "--gather-noncov=12",
        "--k-cov=2",
        "--k-noncov=2",
        "--workers=2",
        "--poses-per-batch=" + std::to_string(kPosesPerBatch),
        "--ordered=1",
    };
    pid_ = ::fork();
    if (pid_ == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(bin_.c_str(), argv.data());
      _exit(127);
    }
    if (pid_ < 0) return false;
    if (!eventually([&] { return fs::exists(port_file); })) return false;
    std::ifstream in(port_file);
    int bound = 0;
    in >> bound;
    if (bound <= 0) return false;
    port_ = bound;
    return true;
  }

  void kill_hard() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int st = 0;
    ::waitpid(pid_, &st, 0);
    pid_ = -1;
  }

  bool respawn() { return spawn(port_); }
  int port() const { return port_; }

 private:
  std::string bin_;
  fs::path dir_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// SIGKILL one fleet node every `every_ms`, round-robin, respawning it on
/// the same port right away. Runs until stop; counts kills.
class Killer {
 public:
  Killer(std::vector<std::unique_ptr<ServerProcess>>& fleet, int every_ms)
      : fleet_(fleet), every_ms_(every_ms) {
    if (every_ms_ > 0) thread_ = std::thread([this] { run(); });
  }
  ~Killer() { stop(); }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t kills() const { return kills_.load(); }

 private:
  void run() {
    size_t next = 0;
    while (!stop_.load()) {
      const auto wake = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(every_ms_);
      while (std::chrono::steady_clock::now() < wake) {
        if (stop_.load()) return;
        std::this_thread::sleep_for(5ms);
      }
      ServerProcess& victim = *fleet_[next % fleet_.size()];
      ++next;
      victim.kill_hard();
      kills_.fetch_add(1);
      if (!victim.respawn()) {
        std::fprintf(stderr, "loadgen: respawn failed, stopping killer\n");
        return;
      }
    }
  }

  std::vector<std::unique_ptr<ServerProcess>>& fleet_;
  int every_ms_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> kills_{0};
  std::thread thread_;
};

struct Workload {
  std::vector<chem::Atom> pocket;
  std::vector<serve::PoseInput> poses;  // kPosesPerRequest poses, shared
};

Workload make_workload() {
  Workload w;
  core::Rng rng(17);
  w.pocket = data::make_pocket({5.0f, 32, 0.7f, 0.5f, 0.1f}, rng);
  for (int i = 0; i < kPosesPerRequest; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    serve::PoseInput p;
    p.ligand = std::move(lig);
    p.pocket = &w.pocket;
    w.poses.push_back(std::move(p));
  }
  return w;
}

struct ClientPhase {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;       // typed non-kNone verdicts
  uint64_t retries = 0;
  uint64_t transport_failures = 0;
  uint64_t timeouts = 0;
  uint64_t kills = 0;
  double seconds = 0;
  serve::LatencyHistogram latency;
};

ClientPhase run_client_phase(std::vector<std::unique_ptr<ServerProcess>>& fleet,
                             const Workload& w, int clients, int seconds, int kill_every_ms) {
  ClientPhase out;
  std::vector<std::unique_ptr<serve::ScoreClient>> pool;
  for (const auto& s : fleet) {
    serve::ClientConfig cc;
    cc.port = s->port();
    cc.connections = clients;
    cc.max_retries = 4;
    cc.backoff_base_ms = 20;
    cc.backoff_max_ms = 300;
    cc.request_timeout_ms = 15000;  // bound a request that straddles a kill
    pool.push_back(std::make_unique<serve::ScoreClient>(cc));
  }

  Killer killer(fleet, kill_every_ms);
  std::vector<serve::LatencyHistogram> hists(static_cast<size_t>(clients));
  std::vector<uint64_t> oks(static_cast<size_t>(clients), 0);
  std::vector<uint64_t> errs(static_cast<size_t>(clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      uint64_t seq = static_cast<uint64_t>(c);
      while (std::chrono::steady_clock::now() < deadline) {
        serve::ScoreClient& client = *pool[seq % pool.size()];
        ++seq;
        serve::ScoreRequest req;
        req.scorer = "sgcnn";
        req.poses = w.poses;
        const auto r0 = std::chrono::steady_clock::now();
        const serve::ScoreResponse resp = client.score(req);
        hists[static_cast<size_t>(c)].record_seconds(seconds_since(r0));
        if (resp.error == serve::ScoreError::kNone) {
          ++oks[static_cast<size_t>(c)];
        } else {
          ++errs[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = seconds_since(t0);
  killer.stop();
  out.kills = killer.kills();
  for (int c = 0; c < clients; ++c) {
    out.latency.merge(hists[static_cast<size_t>(c)]);
    out.ok += oks[static_cast<size_t>(c)];
    out.errors += errs[static_cast<size_t>(c)];
  }
  for (const auto& client : pool) {
    const serve::ClientStats s = client->stats();
    out.requests += s.requests;
    out.retries += s.retries;
    out.transport_failures += s.transport_failures;
    out.timeouts += s.timeouts;
  }
  return out;
}

struct ControllerPhase {
  uint64_t units = 0;
  uint64_t ok = 0;
  uint64_t kills = 0;
  double seconds = 0;
  serve::LatencyHistogram latency;
  screen::ControllerStats stats;
};

ControllerPhase run_controller_phase(std::vector<std::unique_ptr<ServerProcess>>& fleet,
                                     const Workload& w, int seconds, int kill_every_ms) {
  ControllerPhase out;
  screen::ControllerConfig cfg;
  cfg.scorer = "sgcnn";
  cfg.client.connect_timeout_ms = 1000;
  cfg.client.io_timeout_ms = 10000;
  cfg.client.backoff_base_ms = 1;
  cfg.client.backoff_max_ms = 10;
  cfg.heartbeat_interval_ms = 50;
  cfg.heartbeat_misses = 2;
  cfg.inflight_per_node = 2;
  screen::ClusterController controller(cfg);
  for (const auto& s : fleet) {
    std::string error;
    if (!controller.register_node("127.0.0.1", s->port(), &error)) {
      std::fprintf(stderr, "loadgen: register failed: %s\n", error.c_str());
      return out;
    }
  }

  Killer killer(fleet, kill_every_ms);
  std::mutex mu;
  std::map<uint32_t, std::chrono::steady_clock::time_point> submitted;
  const size_t pipeline = fleet.size() * 2 * 2;  // 2x the fleet's wire slots
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(seconds);
  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    uint32_t next_id = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      if (controller.outstanding() >= pipeline) {
        std::this_thread::sleep_for(1ms);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        submitted[next_id] = std::chrono::steady_clock::now();
      }
      controller.submit_unit(next_id, w.poses);
      ++next_id;
    }
    feeding.store(false);
  });
  // Collect concurrently with feeding — outstanding() only drops here, so
  // the >0 check cannot be raced into a throwing wait_unit().
  while (feeding.load() || controller.outstanding() > 0) {
    if (controller.outstanding() == 0) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    const screen::UnitResult r = controller.wait_unit();
    std::chrono::steady_clock::time_point s0;
    {
      std::lock_guard<std::mutex> lock(mu);
      s0 = submitted.at(r.unit_id);
      submitted.erase(r.unit_id);
    }
    out.latency.record_seconds(seconds_since(s0));
    ++out.units;
    if (r.ok) ++out.ok;
  }
  feeder.join();
  out.seconds = seconds_since(t0);
  killer.stop();
  out.kills = killer.kills();
  out.stats = controller.stats();
  controller.stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = int_flag(argc, argv, "--nodes", 3);
  const int clients = int_flag(argc, argv, "--clients", 4);
  const int seconds = int_flag(argc, argv, "--seconds", 5);
  const int kill_every_ms = int_flag(argc, argv, "--kill-every-ms", 0);
  const std::string json_path = json_flag_path(argc, argv, "BENCH_cluster_loadgen.json");

  std::string bin;
  if (const char* env = std::getenv("DF_SERVER_BIN")) {
    bin = env;
  } else {
    const fs::path sibling = fs::path(argv[0]).parent_path() / "score_server_node";
    if (fs::exists(sibling)) bin = sibling.string();
  }
  if (bin.empty()) {
    std::fprintf(stderr,
                 "bench_cluster_loadgen: set DF_SERVER_BIN or build score_server_node "
                 "next to this binary\n");
    return 1;
  }

  const fs::path dir = fs::temp_directory_path() / ("df_loadgen_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<std::unique_ptr<ServerProcess>> fleet;
  for (int i = 0; i < nodes; ++i) {
    fleet.push_back(std::make_unique<ServerProcess>(bin, dir));
    if (!fleet.back()->spawn(0)) {
      std::fprintf(stderr, "bench_cluster_loadgen: failed to spawn node %d\n", i);
      return 1;
    }
  }
  const Workload w = make_workload();

  print_header("Cluster load generator");
  std::printf("fleet: %d nodes x %d-pose batches, %d clients, %d s per phase, "
              "kill every %d ms%s\n\n",
              nodes, kPosesPerBatch, clients, seconds, kill_every_ms,
              kill_every_ms > 0 ? "" : " (chaos off)");

  const ClientPhase cp = run_client_phase(fleet, w, clients, seconds, kill_every_ms);
  const double rps = static_cast<double>(cp.requests) / cp.seconds;
  std::printf("%-26s %10s %10s %10s %10s %8s\n", "phase", "req/s", "p50 ms", "p99 ms",
              "retries", "kills");
  print_rule(80);
  std::printf("%-26s %10.1f %10.3f %10.3f %10llu %8llu\n", "wire clients", rps,
              cp.latency.p50_ms(), cp.latency.p99_ms(),
              static_cast<unsigned long long>(cp.retries),
              static_cast<unsigned long long>(cp.kills));

  const ControllerPhase kp = run_controller_phase(fleet, w, seconds, kill_every_ms);
  const double ups = kp.seconds > 0 ? static_cast<double>(kp.units) / kp.seconds : 0.0;
  std::printf("%-26s %10.1f %10.3f %10.3f %10llu %8llu\n", "cluster controller", ups,
              kp.latency.p50_ms(), kp.latency.p99_ms(),
              static_cast<unsigned long long>(kp.stats.requeues),
              static_cast<unsigned long long>(kp.kills));
  print_rule(80);
  std::printf("clients: %llu ok, %llu typed errors, %llu transport failures, %llu timeouts\n",
              static_cast<unsigned long long>(cp.ok),
              static_cast<unsigned long long>(cp.errors),
              static_cast<unsigned long long>(cp.transport_failures),
              static_cast<unsigned long long>(cp.timeouts));
  std::printf("controller: %llu units (%llu ok), %llu dispatches, %llu requeues, "
              "%llu deaths, %llu revivals\n",
              static_cast<unsigned long long>(kp.units),
              static_cast<unsigned long long>(kp.ok),
              static_cast<unsigned long long>(kp.stats.dispatches),
              static_cast<unsigned long long>(kp.stats.requeues),
              static_cast<unsigned long long>(kp.stats.node_deaths),
              static_cast<unsigned long long>(kp.stats.node_revivals));

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_cluster_loadgen: cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"bench_cluster_loadgen.v1\",\n"
                 "  \"config\": {\"nodes\": %d, \"clients\": %d, \"seconds\": %d, "
                 "\"kill_every_ms\": %d, \"poses_per_request\": %d, \"poses_per_batch\": %d},\n"
                 "  \"clients\": {\"requests\": %llu, \"requests_per_second\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ok\": %llu, \"typed_errors\": %llu, "
                 "\"retries\": %llu, \"transport_failures\": %llu, \"timeouts\": %llu, "
                 "\"kills\": %llu},\n"
                 "  \"controller\": {\"units\": %llu, \"units_per_second\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ok\": %llu, \"dispatches\": %llu, "
                 "\"requeues\": %llu, \"node_deaths\": %llu, \"node_revivals\": %llu, "
                 "\"heartbeats\": %llu, \"kills\": %llu}\n"
                 "}\n",
                 nodes, clients, seconds, kill_every_ms, kPosesPerRequest, kPosesPerBatch,
                 static_cast<unsigned long long>(cp.requests), rps, cp.latency.p50_ms(),
                 cp.latency.p99_ms(), static_cast<unsigned long long>(cp.ok),
                 static_cast<unsigned long long>(cp.errors),
                 static_cast<unsigned long long>(cp.retries),
                 static_cast<unsigned long long>(cp.transport_failures),
                 static_cast<unsigned long long>(cp.timeouts),
                 static_cast<unsigned long long>(cp.kills),
                 static_cast<unsigned long long>(kp.units), ups, kp.latency.p50_ms(),
                 kp.latency.p99_ms(), static_cast<unsigned long long>(kp.ok),
                 static_cast<unsigned long long>(kp.stats.dispatches),
                 static_cast<unsigned long long>(kp.stats.requeues),
                 static_cast<unsigned long long>(kp.stats.node_deaths),
                 static_cast<unsigned long long>(kp.stats.node_revivals),
                 static_cast<unsigned long long>(kp.stats.heartbeats),
                 static_cast<unsigned long long>(kp.kills));
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
  // Exit 0 regardless of perf: the verdict is the JSON artifact; chaos-mode
  // typed errors (a request caught mid-kill past its retries) are expected.
  return 0;
}
