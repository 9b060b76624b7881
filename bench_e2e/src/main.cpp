// End-to-end REST benchmark of the qcenv middleware daemon.
//
//   bench_e2e --workload <hybrid_loop|ingest_drain|busy_qpu> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the machine context, every metric by name and unit, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced (bench-side QRMI decorator, trace reads and
// in-process layer probes) and reports the per-layer metrics plus the
// traced run's overhead against the untraced one. Exits non-zero on any
// failed operation or violated correctness check, and with 3 after the
// result when the host stole enough CPU to disturb the figures.
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "common/logging.hpp"
#include "store/journal.hpp"
#include "workloads.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace {
using namespace qcenv::bench_e2e;

std::string number(double value) {
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

void print_context(const Options& options) {
  utsname host{};
  uname(&host);
  std::printf("context: nproc=%u kernel=%s compiler=gcc-%s build=%s\n",
              std::thread::hardware_concurrency(), host.release, __VERSION__,
              BENCH_E2E_BUILD_TYPE);
  std::printf(
      "context: data_dir_fs=%s sync=%s (201 sent before fsync) "
      "http_workers=4\n",
      filesystem_of(options.work_dir).c_str(),
      qcenv::store::to_string(qcenv::store::JournalOptions{}.sync));
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
}

/// Jiffies of the host's aggregate cpu line: {steal, total}. A large
/// steal share means the machine, not the daemon, set the run's pace.
std::pair<double, double> cpu_steal() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  double total = 0, steal = 0, value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

// Host CPU steal above this share of a run's jiffies disturbs an untraced
// run: on hybrid_loop, jobs_per_s fell about twice as fast as steal rose,
// so at 10% steal a run reads some 20% low. Such a run still prints its
// result but exits with kNoisyHost. run.py then measures it again while
// attempts fit in its budget, in a fresh process so that nothing the
// first attempt left in memory counts in peak_rss_mb, and reports the
// attempt with the least steal. The threshold is not lower because each
// retry costs a whole run: on a shared 4-vCPU VM about one attempt in
// twenty exceeded 10%. Traced runs only print the share: per-layer
// metrics carry no bound.
constexpr double kMaxStealFrac = 0.10;
constexpr int kNoisyHost = 3;

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "<hybrid_loop|ingest_drain|busy_qpu> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!known_workload(options.workload)) return usage("unknown workload");
  if (options.seconds <= 0) return usage("--seconds must be positive");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(options.work_dir);
  // Every set-up and restart logs its store and port at info level.
  qcenv::common::Logger::instance().set_level(qcenv::common::LogLevel::kWarn);
  print_context(options);

  Ops ops;
  Metrics metrics;
  Metrics reported;  // printed for the reader, outside the result
  bool noisy = false;
  try {
    const auto before = cpu_steal();
    const RunOutput plain = run_workload(options, false, ops);
    const auto after = cpu_steal();
    const double jiffies = after.second - before.second;
    const double steal =
        jiffies > 0 ? (after.first - before.first) / jiffies : 0.0;
    std::printf("context: cpu_steal_frac=%.4f\n", steal);
    noisy = !options.trace && steal > kMaxStealFrac;
    if (noisy) {
      std::fprintf(stderr, "bench_e2e: host too noisy: CPU steal %.3f > %.2f\n",
                   steal, kMaxStealFrac);
    }
    metrics = plain.end_to_end;
    if (options.trace) {
      const RunOutput traced = run_workload(options, true, ops);
      for (const auto& [name, metric] : traced.end_to_end) {
        std::printf("traced %-32s %14.6f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
      }
      metrics = traced.per_layer;
      const double untraced = plain.end_to_end.at("jobs_per_s").value;
      metrics["trace.overhead_frac"] = {
          1.0 - traced.end_to_end.at("jobs_per_s").value / untraced,
          "fraction"};
    }
    // The client.* figures come from the untraced run in either mode;
    // untraced runs print them for the reader, outside the result.
    for (const auto& [name, metric] : plain.per_layer) {
      (options.trace ? metrics : reported)[name] = metric;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 1;
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("%-40s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [name, metric] : reported) {
    std::printf("%-40s %14.6f %s (reported, not gated)\n", name.c_str(),
                metric.value, metric.unit.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    ops.check(std::isfinite(metric.value), name + " is not a finite number");
  }
  for (const std::string& failure : ops.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  const bool correct = ops.failed() == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted());
  json += ", \"failed\": " + std::to_string(ops.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += quoted(name) + ": {\"value\": " + number(metric.value) +
            ", \"unit\": " + quoted(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  // A failed check is reported, never measured away.
  if (!correct) return 1;
  return noisy ? kNoisyHost : 0;
}
