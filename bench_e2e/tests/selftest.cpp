// Self-test of the benchmark's own statistics: the quantile rule, the
// slicing of a measured window and the turnaround partition check. run.py
// runs it before every benchmark run.
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {
using namespace qcenv::bench_e2e;

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void quantile_rule() {
  // Nearest rank: the smallest sample with ceil(q n) samples at or below.
  expect(quantile(one_to(100), 500) == 50, "p50 of 1..100 is 50");
  expect(quantile(one_to(100), 990) == 99, "p99 of 1..100 is 99");
  expect(quantile(one_to(1000), 990) == 990, "p99 of 1..1000 is 990");
  expect(quantile(one_to(1), 990) == 1, "any quantile of one sample");
  expect(quantile({}, 500) == 0, "empty sample reads 0");
  expect(median({3, 1, 2}) == 2, "median of three");

  // Ten samples must lie beyond a reported percentile. Integer ranks:
  // p90 of 100 samples has exactly 10 beyond it, which floating-point
  // 100 * (1 - 0.9) would put just below ten.
  expect(samples_beyond(100, 900) == 10, "10 beyond p90 of 100");
  expect(samples_beyond(1000, 990) == 10, "10 beyond p99 of 1000");
  expect(samples_beyond(999, 990) == 9, "9 beyond p99 of 999");
  expect(tail_permille(19) == 0, "19 samples support no percentile");
  expect(tail_permille(20) == 500, "20 samples support the median");
  expect(tail_permille(100) == 900, "100 samples support p90");
  expect(tail_permille(999) == 950, "999 samples support p95, not p99");
  expect(tail_permille(1000) == 990, "1000 samples support p99");
  expect(tail_permille(9999) == 990, "9999 samples do not support p99.9");
  expect(tail_permille(10000) == 999, "10000 samples support p99.9");

}

void slicing() {
  const Slicing window(1000, 1000 + 20'500, 2000);
  expect(window.count() == 10, "20.5 units in slices of 2 make 10");
  expect(window.width_s() == 2050 / 1e9, "slices share the remainder");
  expect(window.index(1000) == 0, "the window's start is in slice 0");
  expect(window.index(1000 + 2049) == 0 && window.index(1000 + 2050) == 1,
         "slices meet end to end");
  expect(window.index(1000 + 20'499) == 9, "the last instant is in slice 9");
  expect(window.index(999) == 10 && window.index(1000 + 20'500) == 10,
         "instants outside the window are in no slice");
  const Slicing short_window(0, 1500, 2000);
  expect(short_window.count() == 1 && short_window.index(1499) == 0,
         "a window shorter than a slice is one slice");
}

JobTimeline ordered() {
  JobTimeline job;
  job.sent = 1000;
  job.submitted = 1400;
  job.dispatched = 1500;  // before the 201: a closed loop's tiny job
  job.acked = 1600;
  job.finished = 2500;
  job.seen_done = 2700;
  job.result_sent = 2710;
  job.result_done = 2900;
  return job;
}

void partition_check() {
  const JobTimeline job = ordered();
  const TurnaroundParts parts = partition(job);
  expect(parts.submit_enqueue == 400 && parts.queue_wait == 100 &&
             parts.exec == 1000 && parts.seen_lag == 200 &&
             parts.result_fetch == 200,
         "parts are the gaps between consecutive stamps");
  expect(parts.submit_enqueue + parts.queue_wait + parts.exec +
                 parts.seen_lag + parts.result_fetch ==
             parts.turnaround,
         "parts sum to the turnaround");
  expect(parts.turnaround == 1900, "turnaround is result_done - sent");
  expect(partition_error(job, 0).empty(), "ordered timeline partitions");

  JobTimeline skewed = job;
  skewed.submitted = 900;  // daemon stamp before the client sent
  expect(partition_error(skewed, 0).find("submit_enqueue") == 0,
         "submit stamp before send is caught");
  expect(partition_error(skewed, 99).find("submit_enqueue") == 0,
         "a 99 ns resolution does not excuse 100 ns of skew");
  expect(partition_error(skewed, 100).empty(),
         "skew within the resolution is accepted");

  JobTimeline never_dispatched = job;
  never_dispatched.dispatched = 0;
  expect(partition_error(never_dispatched, 1000).find("queue_wait") == 0,
         "a job without a dispatch stamp fails");

  JobTimeline early_seen = job;
  early_seen.seen_done = 2400;  // client saw completion before finish
  expect(partition_error(early_seen, 0).find("seen_lag") == 0,
         "completion seen before finish is caught");

  JobTimeline late_ack = job;
  late_ack.submitted = 1650;
  late_ack.dispatched = 1700;
  expect(!partition_error(late_ack, 0).empty(),
         "submit stamp after the 201 is caught");

  JobTimeline stray_result = job;
  stray_result.result_sent = 2600;  // before completion was seen
  expect(!partition_error(stray_result, 0).empty(),
         "result request outside the fetch is caught");
}
}  // namespace

int main() {
  quantile_rule();
  slicing();
  partition_check();
  if (failures == 0) std::printf("bench_e2e self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
