// The four workloads of bench_screening. Each builds its inputs from the
// seed, sets the system up several times (timing each set-up), measures
// for the given number of seconds, and checks the system's outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace df::bench::screening {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  // non-empty: traced run, Chrome trace written here
  std::string workdir;     // scratch space for campaign shards and checkpoints
  bool traced() const { return !trace_path.empty(); }
};

struct Result {
  std::string input_digest;  // hex FNV-1a over every generated input
  std::string inputs;        // JSON members describing the inputs
  bool correct = true;
  std::string correctness;   // JSON members describing the gate
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end to end, measured with tracing off
  std::vector<Metric> layers;   // per layer, from the traced phase
};

const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
Result run_workload(const Options& opt);

}  // namespace df::bench::screening
