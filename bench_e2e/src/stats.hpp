// The benchmark's own statistics: quantiles under the "at least ten
// samples beyond" rule, the slicing of a measured window, and the per-job
// turnaround partition check. Kept free of daemon types so the self-test
// can pin them down exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qcenv::bench_e2e {

/// Nearest-rank quantile of `values` (need not be sorted): the smallest
/// sample with at least ceil(q * n) samples at or below it. `permille` is
/// q in thousandths (990 = p99). Returns 0 for an empty sample.
double quantile(std::vector<double> values, int permille);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Samples strictly beyond the nearest-rank `permille` quantile of n.
std::size_t samples_beyond(std::size_t n, int permille);

/// The highest of p50/p90/p95/p99/p99.9 that keeps at least ten samples
/// beyond it, in permille; 0 when even the median has fewer than ten.
int tail_permille(std::size_t n);

/// [from, to) cut into equal slices of at least `slice_ns` each, or one
/// slice when the span is shorter.
class Slicing {
 public:
  Slicing(std::int64_t from, std::int64_t to, std::int64_t slice_ns);
  std::size_t count() const { return count_; }
  double width_s() const { return static_cast<double>(width_) / 1e9; }
  /// The slice holding `t`, or count() when `t` lies outside [from, to).
  std::size_t index(std::int64_t t) const;

 private:
  std::int64_t from_, to_;
  std::size_t count_;
  std::int64_t width_;
};

/// One job as the client and the daemon saw it, all on the host's
/// steady clock (the daemon's WallClock is steady_clock too).
struct JobTimeline {
  std::int64_t sent = 0;         // client: POST /v1/jobs written
  std::int64_t acked = 0;        // client: 201 received
  std::int64_t submitted = 0;    // daemon: submit_time_ns
  std::int64_t dispatched = 0;   // daemon: first_dispatch_time_ns
  std::int64_t finished = 0;     // daemon: finish_time_ns
  std::int64_t seen_done = 0;    // client: terminal status received
  std::int64_t result_sent = 0;  // client: GET /result written
  std::int64_t result_done = 0;  // client: result body received
};

/// Five consecutive pieces of a job's client-observed turnaround
/// (result_done - sent). They meet end to end, so they sum to it by
/// construction and partition it exactly when none is negative, i.e. when
/// the daemon's stamps fall in order between the client's. The submit
/// round trip is not one of them: the job is already queued (and may be
/// running) before its 201 arrives, so the 201's tail overlaps queue_wait.
struct TurnaroundParts {
  std::int64_t submit_enqueue = 0;  // submitted - sent
  std::int64_t queue_wait = 0;      // dispatched - submitted
  std::int64_t exec = 0;            // finished - dispatched
  std::int64_t seen_lag = 0;        // seen_done - finished
  std::int64_t result_fetch = 0;    // result_done - seen_done
  std::int64_t turnaround = 0;      // result_done - sent
};
TurnaroundParts partition(const JobTimeline& job);

/// Empty when the parts partition the turnaround within `resolution_ns`:
/// every part >= -resolution, the daemon's submit stamp precedes the 201,
/// and the result request lies inside the result fetch. Otherwise names
/// the first violated condition.
std::string partition_error(const JobTimeline& job,
                            std::int64_t resolution_ns);

}  // namespace qcenv::bench_e2e
