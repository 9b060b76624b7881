#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace qcenv::bench_e2e {

namespace {
/// ceil(n * permille / 1000) in integers: in floating point, 100 * (1 - 0.9)
/// samples beyond the p90 of 100 comes out a hair below ten.
std::size_t rank_of(std::size_t n, int permille) {
  const auto p = static_cast<std::size_t>(permille);
  return (n * p + 999) / 1000;
}
}  // namespace

double quantile(std::vector<double> values, int permille) {
  if (values.empty()) return 0;
  const std::size_t rank = std::max<std::size_t>(1, rank_of(values.size(), permille));
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 500);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::size_t samples_beyond(std::size_t n, int permille) {
  return n - std::min(n, rank_of(n, permille));
}

int tail_permille(std::size_t n) {
  for (const int permille : {999, 990, 950, 900, 500}) {
    if (samples_beyond(n, permille) >= 10) return permille;
  }
  return 0;
}

Slicing::Slicing(std::int64_t from, std::int64_t to, std::int64_t slice_ns)
    : from_(from),
      to_(std::max(to, from + 1)),
      count_(static_cast<std::size_t>(
          std::max<std::int64_t>(1, (to_ - from_) / slice_ns))),
      width_((to_ - from_) / static_cast<std::int64_t>(count_)) {}

std::size_t Slicing::index(std::int64_t t) const {
  if (t < from_ || t >= to_) return count_;
  // The last slice also takes the remainder of the integer division.
  return std::min(count_ - 1, static_cast<std::size_t>((t - from_) / width_));
}

TurnaroundParts partition(const JobTimeline& job) {
  TurnaroundParts parts;
  parts.submit_enqueue = job.submitted - job.sent;
  parts.queue_wait = job.dispatched - job.submitted;
  parts.exec = job.finished - job.dispatched;
  parts.seen_lag = job.seen_done - job.finished;
  parts.result_fetch = job.result_done - job.seen_done;
  parts.turnaround = job.result_done - job.sent;
  return parts;
}

std::string partition_error(const JobTimeline& job,
                            std::int64_t resolution_ns) {
  const TurnaroundParts parts = partition(job);
  const std::pair<const char*, std::int64_t> named[] = {
      {"submit_enqueue", parts.submit_enqueue},
      {"queue_wait", parts.queue_wait},
      {"exec", parts.exec},
      {"seen_lag", parts.seen_lag},
      {"result_fetch", parts.result_fetch}};
  for (const auto& [name, value] : named) {
    if (value < -resolution_ns) {
      return std::string(name) + " is negative (" + std::to_string(value) +
             " ns)";
    }
  }
  if (job.submitted > job.acked + resolution_ns) {
    return "daemon submit stamp is after the 201 arrived";
  }
  if (job.result_sent < job.seen_done - resolution_ns ||
      job.result_sent > job.result_done + resolution_ns) {
    return "result request lies outside the result fetch";
  }
  return "";
}

}  // namespace qcenv::bench_e2e
