// Shared pieces of the end-to-end benchmark: the daemon under test (Node),
// tenants and their sessions, the operation ledger behind the correctness
// gate, and the samples each workload collects.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "keepalive_client.hpp"
#include "stats.hpp"
#include "timing_qrmi.hpp"

namespace qcenv::bench_e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

inline const std::string kAdminKey = daemon::DaemonOptions{}.admin_key;
inline constexpr std::size_t kResources = 2;

/// Every HTTP exchange and every correctness check is one attempted
/// operation; transport errors, unexpected statuses and violated checks
/// are failed ones. Any failure fails the run.
class Ops {
 public:
  bool check(bool condition, const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;  // first few, for the report
};

/// One request over a keep-alive connection, counted in `ops`. Returns the
/// response when the status is `expect`; anything else is a failure.
std::optional<net::HttpResponse> exchange(KeepAliveClient& client, Ops& ops,
                                          const std::string& method,
                                          const std::string& target,
                                          const std::string& body,
                                          const net::Headers& headers,
                                          int expect);
/// Parses a JSON body, counting a parse error as a failure.
std::optional<common::Json> parse_json(const net::HttpResponse& response,
                                       Ops& ops);

/// A generated program: its payload JSON and the shots the correctness
/// gate expects back. The job class comes from the submitting tenant.
struct JobSpec {
  std::string payload;
  std::uint64_t shots = 0;
};

/// Chain of `atoms` atoms under one constant pulse.
JobSpec make_job(std::size_t atoms, std::uint64_t shots,
                 std::int64_t duration_ns, double amplitude);

/// `count` programs whose shots and pulse durations are spread evenly over
/// their ranges (seeded jitter inside each stratum, independent seeded
/// pairing), in seeded order. Every seed asks for the same mix of work, so
/// runs differ in their inputs but not in how much the inputs cost.
std::vector<JobSpec> make_pool(common::Rng& rng, std::size_t count,
                               std::size_t atoms, std::uint64_t min_shots,
                               std::uint64_t max_shots);

struct Tenant {
  std::string user;
  std::string token;
  std::string partition;
  /// 201'd jobs and their shots, in submission order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> jobs;
  std::uint64_t shots = 0;
  net::Headers headers() const { return {{"X-Session-Token", token}}; }
  std::string body(const JobSpec& spec) const {
    return R"({"partition":")" + partition + R"(","payload":)" +
           spec.payload + "}";
  }
  void accepted(std::uint64_t id, std::uint64_t job_shots) {
    jobs.emplace_back(id, job_shots);
    shots += job_shots;
  }
};

/// The daemon under test, configured as shipped: DaemonOptions defaults
/// (tracing on, group-commit journal) over a real data dir, fronting
/// kResources LocalEmulatorQrmi resources. The traced run wraps each
/// emulator in a TimingQrmi.
class Node {
 public:
  Node(const std::string& data_dir, bool traced, std::uint64_t seed);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  daemon::MiddlewareDaemon& daemon() { return *daemon_; }
  std::uint16_t port() const { return port_; }
  const std::vector<std::shared_ptr<TimingQrmi>>& timers() const {
    return timers_;
  }
  const qrmi::QrmiPtr& emulator(std::size_t i) const { return emulators_[i]; }

 private:
  std::vector<qrmi::QrmiPtr> emulators_;
  std::vector<std::shared_ptr<TimingQrmi>> timers_;
  std::unique_ptr<daemon::MiddlewareDaemon> daemon_;
  std::uint16_t port_ = 0;
};

/// Client-side samples of one generator thread; merged after the window.
struct Samples {
  std::vector<double> submit_ack_ms;
  std::vector<double> turnaround_ms;
  std::vector<double> get_job_rtt_ms;
  std::vector<double> get_result_rtt_ms;
  std::vector<double> polls_per_job;
  std::vector<JobTimeline> timelines;  // one per completed job
  std::vector<std::uint64_t> job_shots;  // that job's shots
  double cpu_s = 0;
  void merge(const Samples& other);
};

/// Status of one job as GET /v1/jobs/:id reported it.
struct JobStatus {
  std::string state;
  std::int64_t submitted = 0, dispatched = 0, finished = 0;
};
/// Total shots in a GET /result body (the sum of its counts).
std::optional<std::uint64_t> result_shots(const common::Json& body);

/// One GET /v1/jobs/:id, counted in `ops` and its RTT in `samples`.
/// `received` is when the answer arrived.
std::optional<JobStatus> poll_status(KeepAliveClient& client, Ops& ops,
                                     const Tenant& tenant, std::uint64_t id,
                                     Samples& samples, std::int64_t& received);

/// Finishes a job whose poll answered `status` at `seen_done`: checks that
/// it completed, fetches its result, checks the shot count and records
/// the job's timeline and client samples. `last_done`, when given, learns
/// the id (the monitor reads that job's trace).
bool fetch_result(KeepAliveClient& client, Ops& ops, const Tenant& tenant,
                  std::uint64_t id, std::uint64_t shots,
                  const JobStatus& status, std::int64_t seen_done,
                  std::uint64_t polls, JobTimeline& timeline,
                  Samples& samples, std::atomic<std::uint64_t>* last_done);

/// Polls until the job is terminal, then fetch_result. `poll_sleep_ns`
/// (0 = none) paces polls that find the job unfinished.
bool await_job(KeepAliveClient& client, Ops& ops, const Tenant& tenant,
               std::uint64_t id, std::uint64_t shots,
               std::int64_t poll_sleep_ns, JobTimeline& timeline,
               Samples& samples, std::atomic<std::uint64_t>* last_done);

std::int64_t thread_cpu_ns();

/// Restarts the process's peak-RSS high-water mark (Linux clear_refs 5),
/// so peak_rss_mb() covers only what follows: the measured window, not
/// the bench's own verification afterwards. Freed heap goes back to the
/// system first, so what earlier set-ups left behind does not count.
/// False where unsupported.
bool reset_peak_rss();
/// VmHWM of this process in MB (the daemon runs in-process).
double peak_rss_mb();

}  // namespace qcenv::bench_e2e
