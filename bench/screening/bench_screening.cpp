// bench_screening — the screening benchmark every performance claim in this
// repository is measured with. One workload runs per process:
//
//   bench_screening --workload=<name> --seed=<n> --seconds=<s> --json=<out>
//                   [--trace=<trace.json>] [--workdir=<dir>] [--git-sha=<sha>]
//
// Workloads (README.md says why each exists): rescore_hot_targets,
// rescore_target_churn, campaign_docking, wire_open_loop. Without --trace
// the run measures the end-to-end metrics with tracing off; with --trace
// it measures half the time untraced and half traced, derives the
// per-layer metrics from the traced half and writes the Chrome trace.
// --git-sha is the commit of the sources, stamped into the result as given
// (run.py reads it at run time, so a rebuilt checkout never reports the SHA
// it was first configured at).
//
// Exit codes: 0 done and correct, 3 a correctness gate failed (the JSON is
// still written, with "correct": false), 2 usage error, 1 any other error.
#include <cpuid.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

using namespace df::bench::screening;

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, s.find_last_not_of(' ') - b + 1);
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_metrics(std::FILE* f, const char* key, const std::vector<Metric>& ms) {
  std::fprintf(f, "  \"%s\": {", key);
  for (size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"%s%s}", i ? "," : "",
                 m.name.c_str(), number(m.value).c_str(), m.unit.c_str(),
                 m.detail.empty() ? "" : ", ", m.detail.c_str());
  }
  std::fprintf(f, "\n  }");
}

bool write_json(const std::string& path, const Options& opt, const std::string& git_sha,
                const Result& r, double peak_rss_mb) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"bench_screening.v1\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %s,\n",
               escape(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
               number(opt.seconds).c_str());
  std::fprintf(f, "  \"traced\": %s,\n", opt.traced() ? "true" : "false");
  std::fprintf(f,
               "  \"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"avx512f\": %s, "
               "\"avx512vnni\": %s},\n",
               std::thread::hardware_concurrency(), escape(cpu_model()).c_str(),
               __builtin_cpu_supports("avx512f") ? "true" : "false",
               __builtin_cpu_supports("avx512vnni") ? "true" : "false");
  std::fprintf(f,
               "  \"build\": {\"type\": \"%s\", \"deepfusion_native\": %s, \"git_sha\": \"%s\", "
               "\"compiler\": \"%s\"},\n",
               BENCH_BUILD_TYPE, BENCH_NATIVE ? "true" : "false", escape(git_sha).c_str(),
               escape(__VERSION__).c_str());
  std::fprintf(f, "  \"inputs\": {\"digest\": \"%s\", %s},\n", r.input_digest.c_str(),
               r.inputs.c_str());
  std::fprintf(f, "  \"correct\": %s,\n  \"correctness\": {%s},\n", r.correct ? "true" : "false",
               r.correctness.c_str());
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::vector<Metric> metrics = r.metrics;
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  write_metrics(f, "metrics", metrics);
  std::fprintf(f, ",\n");
  write_metrics(f, "layers", r.layers);
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

bool flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_screening --workload=<name> --seed=<n> --seconds=<s> --json=<out>\n"
               "                       [--trace=<trace.json>] [--workdir=<dir>] [--git-sha=<sha>]\n"
               "workloads:");
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string json_path, seed, seconds, git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (!flag(argv[i], "--workload", &opt.workload) && !flag(argv[i], "--seed", &seed) &&
        !flag(argv[i], "--seconds", &seconds) && !flag(argv[i], "--json", &json_path) &&
        !flag(argv[i], "--trace", &opt.trace_path) && !flag(argv[i], "--workdir", &opt.workdir) &&
        !flag(argv[i], "--git-sha", &git_sha)) {
      return usage();
    }
  }
  char* end = nullptr;
  opt.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return usage();
  opt.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(opt.seconds > 0)) return usage();
  if (json_path.empty() || opt.workload.empty()) return usage();

  try {
    const Result r = run_workload(opt);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    if (!write_json(json_path, opt, git_sha, r, peak_rss_mb)) {
      std::fprintf(stderr, "bench_screening: cannot write %s\n", json_path.c_str());
      return 1;
    }
    if (!r.correct) {
      std::fprintf(stderr, "bench_screening: %s failed its correctness gate: %s\n",
                   opt.workload.c_str(), r.correctness.c_str());
      return 3;
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_screening: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_screening: %s\n", e.what());
    return 1;
  }
}
