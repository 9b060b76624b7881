// The three workloads and the metrics one run of them yields.
#pragma once

#include <map>
#include <string>

#include "bench.hpp"

namespace qcenv::bench_e2e {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOutput {
  Metrics end_to_end;
  /// Filled by traced runs only.
  Metrics per_layer;
};

bool known_workload(const std::string& name);

/// Runs `options.workload` once, untraced or traced, counting every
/// operation and correctness check in `ops`. Throws std::runtime_error
/// when the harness itself cannot proceed (daemon fails to start, too
/// few samples for a reported percentile).
RunOutput run_workload(const Options& options, bool traced, Ops& ops);

}  // namespace qcenv::bench_e2e
