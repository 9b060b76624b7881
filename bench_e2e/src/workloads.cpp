// Workloads of the end-to-end benchmark. Each drives the real daemon over
// loopback HTTP from this process: set-up (timed, kSetups times), the
// measured window with an open-loop monitor beside the load, then
// restarts over the same data dir and the correctness gate. recovery_s
// times the restarts after ingest_drain's last drained cycle and, on the
// closed loops, one restart after each throwaway set-up: a restart after
// their windows would replay however many jobs the window's throughput
// left.
//
//   hybrid_loop   3 closed-loop clients, tiny jobs: mediation dominates.
//   ingest_drain  dispatch paused while N tiny jobs queue up, then drained
//                 and replayed: the layers that scale with queue depth.
//   busy_qpu      mid-size mixed-class jobs with a fixed window per tenant
//                 on 2 emulators: emulation and dispatch dominate. Not in
//                 BENCHMARK.json: it is CPU-bound, and on a shared 4-vCPU
//                 host each vCPU's speed swung up to 1.75x within seconds,
//                 which its throughput followed. Its traced run still sets
//                 REST mediation against QPU time (Figure 2a).
//
// Generator connections stay below the daemon's 4 HTTP workers: each
// keep-alive connection pins one worker; the monitor connects per scrape.
#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "emulator/backend.hpp"
#include "net/http_client.hpp"
#include "quantum/payload.hpp"

namespace qcenv::bench_e2e {
namespace {

constexpr int kSetups = 41;          // setup_s: median of this many
constexpr int kRestarts = 11;        // ingest_drain: timed restarts at the end
// Rates and p50s are taken per slice of measured time: ~2 s of a
// closed-loop window, or one ingest_drain cycle. The run reports their
// median over its slices, so the seconds in which a shared host runs
// slow move the result less than they would move one whole-window figure.
constexpr std::int64_t kSliceNs = 2'000'000'000;
// Samples the reported tails need at least, with margin: ten beyond the
// p99 of 1000 jobs, ten beyond the p95 of 200 scrapes. Windows stay open
// past their deadline until they have them, so a slow host still yields
// every number.
constexpr std::uint64_t kMinJobs = 1100;
constexpr std::uint64_t kMinScrapes = 220;
// The monitor scrapes the five read-only views an operator dashboard
// polls, one after another, 20 times a second.
constexpr double kScrapeHz = 20;
constexpr std::pair<const char*, const char*> kMonitorRoutes[] = {
    {"metrics", "/metrics"},
    {"queue", "/v1/queue"},
    {"admin_status", "/admin/status"},
    {"resources", "/v1/resources"},
    {"job_trace", nullptr}};  // the watched job's /v1/jobs/:id/trace
constexpr int kLayerSampleEvery = 2;  // traced: in-process probe per N scrapes
constexpr int kProbePairs = 100;     // mediation probe: REST vs in-process
constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kIngestJobs = 2000;
constexpr std::int64_t kMs = 1'000'000;

double secs(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}
double msecs(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

struct MonitorSamples {
  std::vector<double> scrape_ms;  // tick -> last response of the scrape
  std::vector<std::int64_t> scrape_due_ns;  // that scrape's tick
  std::vector<double> late_ms;    // scrape start minus its tick
  std::map<std::string, std::vector<double>> rtt_ms;
  std::vector<double> metrics_bytes;
  // Traced runs only.
  std::vector<double> eta_ms, snapshot_ms, depth;
  std::map<std::string, std::vector<double>> self_ms;
  std::vector<double> spans_per_job;
  std::set<std::uint64_t> traced_jobs;
  double cpu_s = 0;
};

/// Self time of each span stage in a GET /v1/jobs/:id/trace body: the
/// span's duration minus that of its direct children.
void add_self_times(const common::Json& trace, MonitorSamples& out) {
  const common::Json& spans = trace.at_or_null("spans");
  if (!spans.is_array()) return;
  const auto& list = spans.as_array();
  out.spans_per_job.push_back(static_cast<double>(list.size()));
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto depth = list[i].at_or_null("depth").as_int();
    const common::Json& duration = list[i].at_or_null("duration_ns");
    if (!duration.is_number()) continue;
    double self = duration.as_double();
    for (std::size_t j = i + 1; j < list.size(); ++j) {
      const auto child_depth = list[j].at_or_null("depth").as_int();
      if (child_depth <= depth) break;
      const common::Json& child = list[j].at_or_null("duration_ns");
      if (child_depth == depth + 1 && child.is_number()) {
        self -= child.as_double();
      }
    }
    out.self_ms[list[i].at_or_null("stage").as_string()].push_back(self / 1e6);
  }
}

struct Fleet {
  std::string dir;
  std::unique_ptr<Node> node;
  std::vector<Tenant> tenants;
};

struct StoreNumbers {
  double appends = 0, fsyncs = 0, journal_bytes_per_event = 0;
};

class Runner {
 public:
  Runner(const Options& options, bool traced, Ops& ops)
      : options_(options),
        traced_(traced),
        ops_(ops),
        rng_(options.seed),
        setup_job_(make_pool(rng_, 1, 2, 20, 60).front()) {
    work_dir_ = options.work_dir + (traced ? "/traced" : "/plain");
    std::filesystem::remove_all(work_dir_);
    std::filesystem::create_directories(work_dir_);
  }
  ~Runner() { std::filesystem::remove_all(work_dir_); }

  RunOutput run();

 private:
  // ---- generated inputs ----------------------------------------------------
  /// Generator `k` of `n` walks the pool from its own offset, so the run
  /// submits the pool's mix of work in seeded order.
  struct PoolWalk {
    const std::vector<JobSpec>* pool;
    std::size_t next;
    const JobSpec& operator()() { return (*pool)[next++ % pool->size()]; }
  };
  static PoolWalk walk(const std::vector<JobSpec>& pool, std::size_t k,
                       std::size_t n) {
    return PoolWalk{&pool, k * pool.size() / n};
  }

  // ---- daemon lifecycle ----------------------------------------------------
  /// One tenant (user prefix + index, one session) per entry of
  /// `partitions`, which names the class of that tenant's jobs. Set-up
  /// ends at the 201 of tenant 0's first job, setup_job_.
  Fleet setup(const std::vector<std::string>& partitions,
              const std::string& prefix);
  /// `count` set-ups, each followed by `restarts` timed restarts (see
  /// restart_and_verify) or, with 0, simply discarded.
  void throwaway_setups(const std::vector<std::string>& partitions,
                        const std::string& prefix, int count, int restarts);
  /// Restarts the daemon over its data dir `timed` times, each timed
  /// into recovery_s (once, untimed, when `timed` is 0), checks that
  /// every job, result and ledger entry came back, and discards the fleet.
  void restart_and_verify(Fleet& fleet, int timed);
  /// Stops the daemon and deletes its data dir.
  static void discard(Fleet& fleet);
  void verify(Fleet& fleet);
  void check_ledger(Fleet& fleet, const char* when);
  /// One admin POST over its own short-lived connection, so no fourth
  /// keep-alive connection pins the last free HTTP worker.
  bool admin_post(Fleet& fleet, const std::string& target);
  double qpu_seconds(Fleet& fleet);

  // ---- measurement ---------------------------------------------------------
  std::jthread start_monitor(Fleet& fleet, MonitorSamples& out);
  /// Ends a window of hybrid_loop or busy_qpu opened at `began` with
  /// `qpu_before` QPU seconds charged: stops the monitor, adds the
  /// window's figures to the run's, takes a traced run's layer numbers
  /// and probes (with `probe`), then restarts once and verifies.
  void finish_window(Fleet& fleet, std::jthread& monitor, std::int64_t began,
                     const JobSpec& probe, double qpu_before);
  bool submit(KeepAliveClient& client, Tenant& tenant, const JobSpec& spec,
              JobTimeline& timeline, Samples& samples);
  void probe_layers(Fleet& fleet, const JobSpec& spec);
  /// Awaits tenant 0's jobs from index `from` on (the probe jobs).
  void await_from(Fleet& fleet, std::size_t from);
  void collect_layers(Fleet& fleet, double window_s);
  /// Adds the slices of a closed-loop window [from, to): jobs by when
  /// their result arrived, submits by when their 201 did, scrapes by when
  /// they were due.
  void add_slices(std::int64_t from, std::int64_t to);
  /// Counts a closed-loop job as done. The kMinJobs-th one reads the peak
  /// RSS, so memory is reported at a fixed amount of work, not at however
  /// many jobs the window's throughput left in the daemon.
  void job_completed() {
    if (completed_.fetch_add(1) + 1 == kMinJobs) rss_at_min_jobs_ = peak_rss_mb();
  }

  void hybrid_loop();
  void ingest_drain();
  void busy_qpu();

  // Generator threads keep their connection and tenants to themselves;
  // this runs `body(i)` on `n` threads and merges their samples.
  void on_threads(std::size_t n,
                  const std::function<void(std::size_t, Samples&)>& body);

  const Options& options_;
  const bool traced_;
  Ops& ops_;
  common::Rng rng_;
  // The first job of every set-up: the same kind of tiny job on every
  // workload. With busy_qpu's own 10-atom jobs, the first 201 took either
  // ~0.3 ms or 4-5 ms from one set-up to the next, which made setup_s
  // bimodal.
  const JobSpec setup_job_;
  std::string work_dir_;
  int dirs_ = 0;

  std::atomic<std::uint64_t> watched_job_{0};   // tenant 0's last completed
  std::atomic<std::uint64_t> latest_job_{0};    // last accepted submission
  std::atomic<std::uint64_t> completed_{0};     // generator jobs finished
  std::atomic<std::uint64_t> scrapes_{0};
  bool window_open(std::int64_t deadline) const {
    return steady_now_ns() < deadline || completed_.load() < kMinJobs ||
           scrapes_.load() < kMinScrapes;
  }

  // Collected across the run.
  std::vector<double> setup_s_, recovery_s_, replay_s_;
  Samples samples_;
  struct {
    std::vector<double> jobs_per_s, shots_per_s, submits_per_s;
    std::vector<double> turnaround_ms, submit_ack_ms, scrape_ms;  // p50s
  } slices_;
  double dispatch_window_s_ = 0;  // time jobs ran while clients waited
  double qpu_busy_s_ = 0;
  std::vector<double> peak_rss_mb_;  // one per measured window; median
  double rss_at_min_jobs_ = 0;
  MonitorSamples monitor_;
  // Traced runs only.
  std::vector<double> rest_submit_ms_, inproc_submit_ms_;
  std::vector<double> rest_device_ms_, direct_device_ms_;
  std::vector<double> emulator_run_ms_;
  std::vector<double> flush_ms_;
  StoreNumbers store_;
  std::uint64_t store_jobs_ = 0;
  std::vector<TimingQrmi::Report> qrmi_{kResources};
  double qrmi_window_s_ = 0;
};

Fleet Runner::setup(const std::vector<std::string>& partitions,
                    const std::string& prefix) {
  Fleet fleet;
  fleet.dir = work_dir_ + "/data-" + std::to_string(dirs_++);
  const std::int64_t began = steady_now_ns();
  fleet.node = std::make_unique<Node>(fleet.dir, traced_, options_.seed);
  KeepAliveClient client(fleet.node->port());
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    Tenant tenant;
    tenant.user = prefix + std::to_string(i);
    tenant.partition = partitions[i];
    common::Json body = common::Json::object();
    body["user"] = tenant.user;
    body["class"] = tenant.partition;
    auto response =
        exchange(client, ops_, "POST", "/v1/sessions", body.dump(), {}, 201);
    if (!response) throw std::runtime_error("cannot open a session");
    auto json = parse_json(*response, ops_);
    if (!json || !json->get_string("token").ok()) {
      throw std::runtime_error("session without a token");
    }
    tenant.token = json->get_string("token").value();
    fleet.tenants.push_back(std::move(tenant));
  }
  JobTimeline timeline;
  Samples ignored;
  if (!submit(client, fleet.tenants[0], setup_job_, timeline, ignored)) {
    throw std::runtime_error("first submission failed");
  }
  setup_s_.push_back(secs(began, steady_now_ns()));
  const auto [id, shots] = fleet.tenants[0].jobs.back();
  watched_job_ = id;
  await_job(client, ops_, fleet.tenants[0], id, shots, 0, timeline, ignored,
            nullptr);
  return fleet;
}

void Runner::throwaway_setups(const std::vector<std::string>& partitions,
                              const std::string& prefix, int count,
                              int restarts) {
  for (int i = 0; i < count; ++i) {
    Fleet fleet = setup(partitions, prefix);
    if (restarts > 0) {
      restart_and_verify(fleet, restarts);
    } else {
      discard(fleet);
    }
  }
}

bool Runner::submit(KeepAliveClient& client, Tenant& tenant,
                    const JobSpec& spec, JobTimeline& timeline,
                    Samples& samples) {
  timeline = JobTimeline{};
  timeline.sent = steady_now_ns();
  auto response = exchange(client, ops_, "POST", "/v1/jobs",
                           tenant.body(spec), tenant.headers(), 201);
  timeline.acked = steady_now_ns();
  if (!response) return false;
  auto json = parse_json(*response, ops_);
  if (!json) return false;
  auto id = json->get_int("job_id");
  if (!ops_.check(id.ok() && id.value() > 0, "201 without a job id")) {
    return false;
  }
  samples.submit_ack_ms.push_back(msecs(timeline.sent, timeline.acked));
  tenant.accepted(static_cast<std::uint64_t>(id.value()), spec.shots);
  latest_job_.store(static_cast<std::uint64_t>(id.value()),
                    std::memory_order_relaxed);
  return true;
}

void Runner::on_threads(
    std::size_t n, const std::function<void(std::size_t, Samples&)>& body) {
  std::vector<Samples> per_thread(n);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        const std::int64_t cpu = thread_cpu_ns();
        body(i, per_thread[i]);
        per_thread[i].cpu_s = static_cast<double>(thread_cpu_ns() - cpu) / 1e9;
      });
    }
  }
  for (const auto& samples : per_thread) samples_.merge(samples);
}

std::jthread Runner::start_monitor(Fleet& fleet, MonitorSamples& out) {
  if (!reset_peak_rss()) throw std::runtime_error("cannot reset peak RSS");
  return std::jthread([this, &fleet, &out](const std::stop_token& stop) {
    const std::int64_t cpu = thread_cpu_ns();
    const net::Headers headers = {{"X-Admin-Key", kAdminKey},
                                  {"X-Session-Token", fleet.tenants[0].token}};
    const auto period = static_cast<std::int64_t>(1e9 / kScrapeHz);
    const std::int64_t start = steady_now_ns();
    std::int64_t tick = 0;
    for (std::uint64_t k = 0; !stop.stop_requested(); ++k) {
      // Open loop on a fixed tick grid. A scrape is timed from its tick,
      // so a stall also charges the scrape that had to wait for it; ticks
      // that fall due while a scrape is in flight are coalesced into that
      // one late scrape, as a scraper skips overlapping scrapes.
      const std::int64_t due = start + tick * period;
      const std::int64_t wait = due - steady_now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      if (stop.stop_requested()) break;
      const std::int64_t began = steady_now_ns();
      const std::uint64_t job = watched_job_.load();
      // One connection per scrape, closed after it: it holds an HTTP
      // worker for the scrape only, never for the whole window.
      KeepAliveClient scraper(fleet.node->port());
      bool ok = true;
      std::int64_t done = began;
      for (const auto& [name, path] : kMonitorRoutes) {
        const std::string target =
            path != nullptr ? path
                            : "/v1/jobs/" + std::to_string(job) + "/trace";
        const std::int64_t sent = steady_now_ns();
        auto response =
            exchange(scraper, ops_, "GET", target, "", headers, 200);
        done = steady_now_ns();
        if (!response) {
          ok = false;
          continue;
        }
        out.rtt_ms[name].push_back(msecs(sent, done));
        const std::string& body = response->body;
        if (path == nullptr && traced_ && !out.traced_jobs.count(job)) {
          auto trace = common::Json::parse(body);
          if (trace.ok() && trace.value().contains("finish_ns")) {
            out.traced_jobs.insert(job);
            add_self_times(trace.value(), out);
          }
        }
        if (std::string_view(name) == "metrics") {
          out.metrics_bytes.push_back(static_cast<double>(body.size()));
        }
      }
      scraper.close();
      tick = std::max(tick + 1, (began - start) / period + 1);
      if (!ok) continue;
      out.scrape_ms.push_back(msecs(due, done));
      out.scrape_due_ns.push_back(due);
      out.late_ms.push_back(msecs(due, began));
      scrapes_.fetch_add(1);
      if (traced_ && k % kLayerSampleEvery == 0) {
        // In-process samples of the two depth-linear reads on the submit
        // path, at whatever depth the workload holds right now. Sparse:
        // at depth they take milliseconds and hold the queue shards.
        auto& daemon = fleet.node->daemon();
        out.depth.push_back(
            static_cast<double>(daemon.dispatcher().queued_total()));
        const std::int64_t t0 = steady_now_ns();
        (void)daemon.eta().estimate(latest_job_.load());
        const std::int64_t t1 = steady_now_ns();
        (void)daemon.dispatcher().pending_snapshot();
        const std::int64_t t2 = steady_now_ns();
        out.eta_ms.push_back(msecs(t0, t1));
        out.snapshot_ms.push_back(msecs(t1, t2));
      }
    }
    out.cpu_s += static_cast<double>(thread_cpu_ns() - cpu) / 1e9;
  });
}

bool Runner::admin_post(Fleet& fleet, const std::string& target) {
  net::HttpClient http(fleet.node->port());
  http.set_default_header("X-Admin-Key", kAdminKey);
  auto response = http.post(target, "");
  return ops_.check(response.ok() && response.value().status == 200,
                    "POST " + target + " failed");
}

double Runner::qpu_seconds(Fleet& fleet) {
  KeepAliveClient client(fleet.node->port());
  double total = 0;
  for (const Tenant& tenant : fleet.tenants) {
    auto response =
        exchange(client, ops_, "GET", "/v1/usage", "", tenant.headers(), 200);
    if (!response) continue;
    auto json = parse_json(*response, ops_);
    if (!json) continue;
    total += json->at_or_null("raw").at_or_null("qpu_seconds").as_double();
  }
  return total;
}

void Runner::check_ledger(Fleet& fleet, const char* when) {
  KeepAliveClient client(fleet.node->port());
  for (const Tenant& tenant : fleet.tenants) {
    auto response =
        exchange(client, ops_, "GET", "/v1/usage", "", tenant.headers(), 200);
    if (!response) continue;
    auto json = parse_json(*response, ops_);
    if (!json) continue;
    const common::Json& shots = json->at_or_null("raw").at_or_null("shots");
    const auto charged =
        shots.is_number() ? static_cast<std::uint64_t>(shots.as_int()) : 0;
    ops_.check(charged == tenant.shots,
               std::string("ledger ") + when + ": " + tenant.user +
                   " charged " + std::to_string(charged) + " shots, submitted " +
                   std::to_string(tenant.shots));
  }
}

void Runner::verify(Fleet& fleet) {
  const std::uint16_t port = fleet.node->port();
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      KeepAliveClient client(port);
      for (std::size_t i = t; i < fleet.tenants.size(); i += 3) {
        const Tenant& tenant = fleet.tenants[i];
        auto listed =
            exchange(client, ops_, "GET", "/v1/jobs", "", tenant.headers(), 200);
        if (!listed) continue;
        auto json = parse_json(*listed, ops_);
        if (!json || !ops_.check(json->is_array(), "/v1/jobs is no array")) {
          continue;
        }
        std::map<std::uint64_t, const common::Json*> by_id;
        for (const auto& job : json->as_array()) {
          by_id[static_cast<std::uint64_t>(job.at_or_null("id").as_int())] = &job;
        }
        for (const auto& [id, shots] : tenant.jobs) {
          const std::string name = "job " + std::to_string(id);
          const auto it = by_id.find(id);
          if (!ops_.check(it != by_id.end(), name + " lost in restart")) continue;
          const common::Json& job = *it->second;
          ops_.check(job.at_or_null("state").as_string() == "completed" &&
                         static_cast<std::uint64_t>(
                             job.at_or_null("shots_done").as_int()) == shots &&
                         static_cast<std::uint64_t>(
                             job.at_or_null("total_shots").as_int()) == shots,
                     name + " not completed with its shots after restart");
          auto result = exchange(client, ops_, "GET",
                                 "/v1/jobs/" + std::to_string(id) + "/result",
                                 "", tenant.headers(), 200);
          if (!result) continue;
          auto body = parse_json(*result, ops_);
          if (!body) continue;
          ops_.check(result_shots(*body) == shots,
                     name + " result lost shots after restart");
        }
      }
    });
  }
}

void Runner::restart_and_verify(Fleet& fleet, int timed) {
  check_ledger(fleet, "before restart");
  const std::string probe =
      "/v1/jobs/" + std::to_string(fleet.tenants[0].jobs.front().first);
  for (int r = 0; r < std::max(timed, 1); ++r) {
    fleet.node.reset();
    const std::int64_t began = steady_now_ns();
    fleet.node = std::make_unique<Node>(fleet.dir, traced_, options_.seed);
    KeepAliveClient client(fleet.node->port());
    auto served = exchange(client, ops_, "GET", probe, "",
                           fleet.tenants[0].headers(), 200);
    if (!served) throw std::runtime_error("restarted daemon serves nothing");
    if (timed == 0) continue;
    recovery_s_.push_back(secs(began, steady_now_ns()));
    replay_s_.push_back(
        fleet.node->daemon().state_store()->status().replay.replay_seconds);
  }
  verify(fleet);
  check_ledger(fleet, "after restart");
  discard(fleet);
}

void Runner::discard(Fleet& fleet) {
  fleet.node.reset();
  std::filesystem::remove_all(fleet.dir);
}

/// Per-layer probes of the traced run, made with the generator idle. The
/// probe jobs join tenant 0's list; the caller awaits them (await_from).
void Runner::probe_layers(Fleet& fleet, const JobSpec& spec) {
  auto& daemon = fleet.node->daemon();
  Tenant& tenant = fleet.tenants[0];
  {
    const std::int64_t t0 = steady_now_ns();
    ops_.check(daemon.state_store()->flush().ok(), "store flush failed");
    flush_ms_.push_back(msecs(t0, steady_now_ns()));
  }
  auto payload_json = common::Json::parse(spec.payload);
  if (!payload_json.ok()) throw std::runtime_error("probe payload unparsable");
  auto payload = quantum::Payload::from_json(payload_json.value());
  if (!payload.ok()) throw std::runtime_error("probe payload unparsable");
  KeepAliveClient client(fleet.node->port());
  Samples ignored;
  for (int i = 0; i < kProbePairs; ++i) {
    JobTimeline timeline;
    if (submit(client, tenant, spec, timeline, ignored)) {
      rest_submit_ms_.push_back(msecs(timeline.sent, timeline.acked));
    }
    daemon::MiddlewareDaemon::SubmitHints hints;
    hints.partition = tenant.partition;
    const std::int64_t t0 = steady_now_ns();
    auto submitted = daemon.submit_job(tenant.token, payload.value(), hints);
    const std::int64_t t1 = steady_now_ns();
    if (ops_.check(submitted.ok(), "in-process submit_job failed")) {
      inproc_submit_ms_.push_back(msecs(t0, t1));
      tenant.accepted(submitted.value().id, spec.shots);
    }
    const std::int64_t t2 = steady_now_ns();
    auto device = exchange(client, ops_, "GET", "/v1/device", "", {}, 200);
    const std::int64_t t3 = steady_now_ns();
    ops_.check(fleet.node->emulator(0)->target().ok(), "target() failed");
    const std::int64_t t4 = steady_now_ns();
    if (device) rest_device_ms_.push_back(msecs(t2, t3));
    direct_device_ms_.push_back(msecs(t3, t4));
  }
  auto backend = emulator::make_emulator_backend("sv");
  if (!backend.ok()) throw std::runtime_error("no sv backend");
  for (int i = 0; i < 10; ++i) {
    const std::int64_t t0 = steady_now_ns();
    ops_.check(backend.value()->run(payload.value()).ok(), "emulator run failed");
    emulator_run_ms_.push_back(msecs(t0, steady_now_ns()));
  }
}

void Runner::await_from(Fleet& fleet, std::size_t from) {
  KeepAliveClient client(fleet.node->port());
  Tenant& tenant = fleet.tenants[0];
  Samples ignored;
  for (std::size_t j = from; j < tenant.jobs.size(); ++j) {
    JobTimeline timeline;
    await_job(client, ops_, tenant, tenant.jobs[j].first,
              tenant.jobs[j].second, 1'000'000, timeline, ignored, nullptr);
  }
}

/// Store and decorator numbers of the traced run, read right after a
/// measured window of `window_s` seconds.
void Runner::collect_layers(Fleet& fleet, double window_s) {
  const auto status = fleet.node->daemon().state_store()->status();
  store_.appends += static_cast<double>(status.appends_total);
  store_.fsyncs += static_cast<double>(status.fsyncs_total);
  if (status.journal_events > 0) {
    store_.journal_bytes_per_event = static_cast<double>(status.journal_bytes) /
                                     static_cast<double>(status.journal_events);
  }
  for (const Tenant& tenant : fleet.tenants) store_jobs_ += tenant.jobs.size();
  const auto& timers = fleet.node->timers();
  for (std::size_t r = 0; r < timers.size(); ++r) {
    qrmi_[r].merge(timers[r]->report());
  }
  qrmi_window_s_ += window_s;
}

void Runner::add_slices(std::int64_t from, std::int64_t to) {
  const Slicing slicing(from, to, kSliceNs);
  const std::size_t n = slicing.count();
  std::vector<double> jobs(n), shots(n), submits(n);
  std::vector<std::vector<double>> turnaround(n), ack(n), scrape(n);
  for (std::size_t j = 0; j < samples_.timelines.size(); ++j) {
    const JobTimeline& job = samples_.timelines[j];
    if (const std::size_t k = slicing.index(job.result_done); k < n) {
      jobs[k] += 1;
      shots[k] += static_cast<double>(samples_.job_shots[j]);
      turnaround[k].push_back(msecs(job.sent, job.result_done));
    }
    if (const std::size_t k = slicing.index(job.acked); k < n) {
      submits[k] += 1;
      ack[k].push_back(msecs(job.sent, job.acked));
    }
  }
  for (std::size_t i = 0; i < monitor_.scrape_ms.size(); ++i) {
    if (const std::size_t k = slicing.index(monitor_.scrape_due_ns[i]); k < n) {
      scrape[k].push_back(monitor_.scrape_ms[i]);
    }
  }
  const double width_s = slicing.width_s();
  const auto add_median = [](std::vector<double>& into,
                             const std::vector<double>& values) {
    if (!values.empty()) into.push_back(median(values));
  };
  for (std::size_t k = 0; k < n; ++k) {
    slices_.jobs_per_s.push_back(jobs[k] / width_s);
    slices_.shots_per_s.push_back(shots[k] / width_s);
    slices_.submits_per_s.push_back(submits[k] / width_s);
    add_median(slices_.turnaround_ms, turnaround[k]);
    add_median(slices_.submit_ack_ms, ack[k]);
    add_median(slices_.scrape_ms, scrape[k]);
  }
}

void Runner::finish_window(Fleet& fleet, std::jthread& monitor,
                           std::int64_t began, const JobSpec& probe,
                           double qpu_before) {
  const std::int64_t ended = steady_now_ns();
  const double window = secs(began, ended);
  monitor.request_stop();
  monitor.join();
  add_slices(began, ended);
  peak_rss_mb_.push_back(rss_at_min_jobs_);
  dispatch_window_s_ += window;
  qpu_busy_s_ += qpu_seconds(fleet) - qpu_before;
  if (traced_) {
    collect_layers(fleet, window);
    const std::size_t from = fleet.tenants[0].jobs.size();
    probe_layers(fleet, probe);
    await_from(fleet, from);
  }
  restart_and_verify(fleet, 0);
}

// ---- hybrid_loop -----------------------------------------------------------

void Runner::hybrid_loop() {
  constexpr std::size_t kClients = 3;
  // Polls come a quarter millisecond apart: fast against the ~1 ms a tiny
  // batch holds a lane, but they no longer saturate the 4 cores on their
  // own (unpaced, the clients poll ~30 times per job), which made every
  // number track how much CPU the host left the run.
  constexpr std::int64_t kPollPause = kMs / 4;
  const std::vector<std::string> partitions(kClients, "test");
  const auto jobs = make_pool(rng_, kPoolSize, 2, 20, 60);
  throwaway_setups(partitions, "hybrid", kSetups - 1, 1);
  Fleet fleet = setup(partitions, "hybrid");
  const double qpu_before = qpu_seconds(fleet);
  auto monitor = start_monitor(fleet, monitor_);
  const std::int64_t began = steady_now_ns();
  const std::int64_t deadline =
      began + static_cast<std::int64_t>(options_.seconds * 1e9);
  on_threads(kClients, [&](std::size_t i, Samples& samples) {
    KeepAliveClient client(fleet.node->port());
    PoolWalk next = walk(jobs, i, kClients);
    Tenant& tenant = fleet.tenants[i];
    while (window_open(deadline)) {
      const JobSpec& spec = next();
      JobTimeline timeline;
      if (!submit(client, tenant, spec, timeline, samples)) return;
      if (!await_job(client, ops_, tenant, tenant.jobs.back().first,
                     spec.shots, kPollPause, timeline, samples,
                     i == 0 ? &watched_job_ : nullptr)) {
        return;
      }
      job_completed();
    }
  });
  finish_window(fleet, monitor, began, jobs[0], qpu_before);
}

// ---- busy_qpu --------------------------------------------------------------

void Runner::busy_qpu() {
  constexpr std::size_t kThreads = 2;
  constexpr std::int64_t kPollSleep = 5 * kMs;
  // One production and one test tenant with a single job outstanding
  // each, beside six development tenants with two each: the higher
  // classes preempt development work at every batch boundary but cannot
  // occupy both resources all the time, so development jobs are delayed,
  // not starved.
  const std::vector<std::string> partitions = {"production", "test", "dev",
                                               "dev", "dev", "dev", "dev",
                                               "dev"};
  const std::vector<std::size_t> windows = {1, 1, 2, 2, 2, 2, 2, 2};
  const auto jobs = make_pool(rng_, kPoolSize, 10, 100, 400);
  throwaway_setups(partitions, "busy", kSetups - 1, 1);
  Fleet fleet = setup(partitions, "busy");
  const double qpu_before = qpu_seconds(fleet);
  auto monitor = start_monitor(fleet, monitor_);
  const std::int64_t began = steady_now_ns();
  const std::int64_t deadline =
      began + static_cast<std::int64_t>(options_.seconds * 1e9);
  on_threads(kThreads, [&](std::size_t t, Samples& samples) {
    KeepAliveClient client(fleet.node->port());
    PoolWalk next = walk(jobs, t, kThreads);
    struct Outstanding {
      std::size_t tenant;
      std::uint64_t id, shots;
      JobTimeline timeline;
      std::uint64_t polls = 0;
    };
    std::vector<Outstanding> outstanding;
    const auto submit_one = [&](std::size_t tenant) {
      const JobSpec& spec = next();
      Outstanding job{tenant, 0, spec.shots, {}, 0};
      if (!submit(client, fleet.tenants[tenant], spec, job.timeline, samples)) {
        return false;
      }
      job.id = fleet.tenants[tenant].jobs.back().first;
      outstanding.push_back(job);
      return true;
    };
    for (std::size_t i = t; i < partitions.size(); i += kThreads) {
      for (std::size_t w = 0; w < windows[i]; ++w) {
        if (!submit_one(i)) return;
      }
    }
    while (!outstanding.empty()) {
      bool progressed = false;
      for (std::size_t k = 0; k < outstanding.size();) {
        Outstanding& job = outstanding[k];
        const Tenant& tenant = fleet.tenants[job.tenant];
        std::int64_t received = 0;
        const auto status =
            poll_status(client, ops_, tenant, job.id, samples, received);
        if (!status) return;
        ++job.polls;
        if (status->state == "queued" || status->state == "running") {
          ++k;
          continue;
        }
        if (!fetch_result(client, ops_, tenant, job.id, job.shots, *status,
                          received, job.polls, job.timeline, samples,
                          job.tenant == 0 ? &watched_job_ : nullptr)) {
          return;
        }
        const std::size_t tenant_index = job.tenant;
        outstanding.erase(outstanding.begin() +
                          static_cast<std::ptrdiff_t>(k));
        progressed = true;
        job_completed();
        if (window_open(deadline) && !submit_one(tenant_index)) return;
      }
      if (!progressed && !outstanding.empty()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kPollSleep));
      }
    }
  });
  finish_window(fleet, monitor, began, jobs[0], qpu_before);
}

// ---- ingest_drain ----------------------------------------------------------

void Runner::ingest_drain() {
  constexpr std::size_t kTenants = 32;
  constexpr std::size_t kConnections = 3;
  constexpr std::int64_t kPollSleep = 1 * kMs;
  const std::vector<std::string> partitions(kTenants, "test");
  const auto jobs = make_pool(rng_, kPoolSize, 2, 20, 60);
  throwaway_setups(partitions, "ingest", kSetups - 1, 0);
  const std::int64_t deadline =
      steady_now_ns() + static_cast<std::int64_t>(options_.seconds * 1e9);
  // Cycles repeat while another as long as the last fits before the
  // deadline. Only the last one is restarted: restarts take seconds, most
  // of them idle, that the run spends better on more cycles, over which
  // the drain figures are medians.
  for (bool last = false; !last;) {
    const std::int64_t cycle_began = steady_now_ns();
    Fleet fleet = setup(partitions, "ingest");
    if (!admin_post(fleet, "/admin/drain")) {
      throw std::runtime_error("cannot pause dispatch");
    }
    auto monitor = start_monitor(fleet, monitor_);

    // Phase 1: queue depth grows 0 -> N with dispatch paused. Each
    // connection serves every third tenant, round robin.
    struct Queued {
      std::size_t tenant;
      std::uint64_t id, shots;
      JobTimeline timeline;
    };
    std::vector<std::vector<Queued>> queued(kConnections);
    std::vector<std::unique_ptr<KeepAliveClient>> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(std::make_unique<KeepAliveClient>(fleet.node->port()));
    }
    const std::size_t jobs_from = samples_.timelines.size();
    const std::size_t scrapes_from = monitor_.scrape_ms.size();
    const std::int64_t phase1 = steady_now_ns();
    on_threads(kConnections, [&](std::size_t c, Samples& samples) {
      PoolWalk next = walk(jobs, c, kConnections);
      std::size_t tenant = c;
      for (std::size_t j = c; j < kIngestJobs; j += kConnections) {
        const JobSpec& spec = next();
        Queued job{tenant, 0, spec.shots, {}};
        if (!submit(*clients[c], fleet.tenants[tenant], spec, job.timeline,
                    samples)) {
          return;
        }
        job.id = fleet.tenants[tenant].jobs.back().first;
        queued[c].push_back(job);
        tenant += kConnections;
        if (tenant >= kTenants) tenant = c;
      }
    });
    const double fill = secs(phase1, steady_now_ns());
    const std::size_t probes_from = fleet.tenants[0].jobs.size();
    if (traced_) probe_layers(fleet, jobs[0]);

    // Phase 2: resume and wait, per connection, for each job in the order
    // it was submitted.
    const double qpu_before = qpu_seconds(fleet);
    const std::int64_t phase2 = steady_now_ns();
    if (!admin_post(fleet, "/admin/resume")) {
      throw std::runtime_error("cannot resume dispatch");
    }
    on_threads(kConnections, [&](std::size_t c, Samples& samples) {
      for (Queued& job : queued[c]) {
        if (!await_job(*clients[c], ops_, fleet.tenants[job.tenant], job.id,
                       job.shots, kPollSleep, job.timeline, samples,
                       job.tenant == 0 ? &watched_job_ : nullptr)) {
          return;
        }
      }
    });
    // Probe jobs (traced) queued behind phase 1 finish in the drain too.
    await_from(fleet, probes_from);
    const double drain = secs(phase2, steady_now_ns());
    dispatch_window_s_ += drain;
    monitor.request_stop();
    monitor.join();
    peak_rss_mb_.push_back(peak_rss_mb());
    for (auto& client : clients) client->close();
    qpu_busy_s_ += qpu_seconds(fleet) - qpu_before;
    if (traced_) collect_layers(fleet, drain);

    // The cycle is one slice: its fill and drain rates and its p50s.
    std::vector<double> turnaround, ack;
    double shots = 0;
    for (std::size_t j = jobs_from; j < samples_.timelines.size(); ++j) {
      const JobTimeline& job = samples_.timelines[j];
      turnaround.push_back(msecs(job.sent, job.result_done));
      ack.push_back(msecs(job.sent, job.acked));
      shots += static_cast<double>(samples_.job_shots[j]);
    }
    const auto done = static_cast<double>(turnaround.size());
    slices_.jobs_per_s.push_back(done / drain);
    slices_.shots_per_s.push_back(shots / drain);
    slices_.submits_per_s.push_back(done / fill);
    slices_.turnaround_ms.push_back(median(turnaround));
    slices_.submit_ack_ms.push_back(median(ack));
    slices_.scrape_ms.push_back(median(std::vector<double>(
        monitor_.scrape_ms.begin() +
            static_cast<std::ptrdiff_t>(scrapes_from),
        monitor_.scrape_ms.end())));

    // Phase 3, after the last cycle: restart over the same data dir; every
    // job must come back. Earlier cycles check the ledger and are dropped.
    const std::int64_t now = steady_now_ns();
    last = now + (now - cycle_began) >= deadline &&
           scrapes_.load() >= kMinScrapes;
    if (last) {
      restart_and_verify(fleet, kRestarts);
    } else {
      check_ledger(fleet, "after the drain");
      discard(fleet);
    }
  }
}

RunOutput Runner::run() {
  if (options_.workload == "hybrid_loop") {
    hybrid_loop();
  } else if (options_.workload == "ingest_drain") {
    ingest_drain();
  } else {
    busy_qpu();
  }
  RunOutput out;
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = {median(setup_s_), "s"};
  e2e["turnaround_ms.p50"] = {median(slices_.turnaround_ms), "ms"};
  e2e["jobs_per_s"] = {median(slices_.jobs_per_s), "1/s"};
  e2e["shots_per_s"] = {median(slices_.shots_per_s), "1/s"};
  e2e["qpu_busy_frac"] = {qpu_busy_s_ / (dispatch_window_s_ * kResources), "fraction"};
  e2e["peak_rss_mb"] = {median(peak_rss_mb_), "MB"};

  // What the clients saw beyond the gated figures, in every run: reported,
  // not gated. Each is a single request path or a burst on one core, and
  // on a shared 4-vCPU host such a figure follows the host's CPU speed and
  // wake-up latency from one run to the next by more than the largest
  // bound a gate may take (0.25): sub-millisecond round trips, the
  // ETA-bound ingest, replay, and the tails. The tails are the highest
  // percentile the sample holds ten samples beyond.
  auto& layer = out.per_layer;
  layer["client.submit_ack_ms.p50"] = {median(slices_.submit_ack_ms), "ms"};
  layer["client.submits_per_s"] = {median(slices_.submits_per_s), "1/s"};
  layer["client.recovery_s"] = {median(recovery_s_), "s"};
  layer["client.monitor_scrape_ms.p50"] = {median(slices_.scrape_ms), "ms"};
  const auto tail = [](const char* name, const std::vector<double>& values,
                       int permille) {
    if (tail_permille(values.size()) < permille) {
      throw std::runtime_error(std::string(name) + ": only " +
                               std::to_string(values.size()) + " samples");
    }
    return Metric{quantile(values, permille), "ms"};
  };
  layer["client.turnaround_ms.p99"] = tail("turnaround", samples_.turnaround_ms, 990);
  layer["client.submit_ack_ms.p99"] = tail("submit_ack", samples_.submit_ack_ms, 990);
  layer["client.monitor_scrape_ms.p95"] = tail("monitor_scrape", monitor_.scrape_ms, 950);
  if (!traced_) return out;

  // net
  layer["net.post_jobs_rtt_ms"] = {median(samples_.submit_ack_ms), "ms"};
  layer["net.get_job_rtt_ms"] = {median(samples_.get_job_rtt_ms), "ms"};
  layer["net.get_result_rtt_ms"] = {median(samples_.get_result_rtt_ms), "ms"};
  for (const auto& [route, rtts] : monitor_.rtt_ms) {
    layer["net.monitor_rtt_ms." + route] = {median(rtts), "ms"};
  }
  layer["net.status_polls_per_job"] = {mean(samples_.polls_per_job), "count"};
  layer["net.mediation_ms"] = {median(rest_submit_ms_) - median(inproc_submit_ms_), "ms"};
  layer["net.device_mediation_ms"] = {median(rest_device_ms_) - median(direct_device_ms_), "ms"};
  // eta + dispatcher at depth
  layer["eta.estimate_ms"] = {median(monitor_.eta_ms), "ms"};
  layer["dispatcher.pending_snapshot_ms"] = {median(monitor_.snapshot_ms), "ms"};
  layer["dispatcher.sampled_depth"] = {mean(monitor_.depth), "count"};
  // turnaround partition
  std::vector<double> enqueue, wait, exec, lag, fetch;
  for (const JobTimeline& job : samples_.timelines) {
    const std::string error = partition_error(job, 1000);
    ops_.check(error.empty(), "turnaround partition: " + error);
    const TurnaroundParts parts = partition(job);
    enqueue.push_back(static_cast<double>(parts.submit_enqueue) / 1e6);
    wait.push_back(static_cast<double>(parts.queue_wait) / 1e6);
    exec.push_back(static_cast<double>(parts.exec) / 1e6);
    lag.push_back(static_cast<double>(parts.seen_lag) / 1e6);
    fetch.push_back(static_cast<double>(parts.result_fetch) / 1e6);
  }
  layer["partition.jobs_checked"] = {static_cast<double>(samples_.timelines.size()), "count"};
  layer["net.submit_enqueue_ms"] = {median(enqueue), "ms"};
  layer["dispatcher.queue_wait_ms"] = {median(wait), "ms"};
  layer["dispatcher.exec_ms"] = {median(exec), "ms"};
  layer["dispatcher.completion_seen_lag_ms"] = {median(lag), "ms"};
  layer["net.result_fetch_ms"] = {median(fetch), "ms"};
  // qrmi, broker, emulator
  TimingQrmi::Report all;
  std::uint64_t tasks = 0;
  for (const auto& report : qrmi_) tasks += report.tasks;
  for (std::size_t r = 0; r < kResources; ++r) {
    const auto& report = qrmi_[r];
    const std::string name = "emu-" + std::to_string(r);
    layer["qrmi.busy_frac." + name] = {
        static_cast<double>(report.busy_ns) / 1e9 / qrmi_window_s_, "fraction"};
    layer["broker.batch_share." + name] = {
        tasks > 0 ? static_cast<double>(report.tasks) / static_cast<double>(tasks) : 0,
        "fraction"};
    all.merge(report);
  }
  layer["qrmi.task_start_us"] = {median(all.start_us), "us"};
  layer["qrmi.task_status_us"] = {median(all.status_us), "us"};
  layer["qrmi.task_result_us"] = {median(all.result_us), "us"};
  layer["qrmi.polls_per_task"] = {mean(all.polls), "count"};
  layer["qrmi.exec_ms"] = {median(all.exec_ms), "ms"};
  // Figure 2a's claim as a number: REST mediation of a submit against the
  // time a batch holds the QPU.
  layer["net.mediation_per_qrmi_exec"] = {
      layer["net.mediation_ms"].value / median(all.exec_ms), "fraction"};
  layer["dispatcher.dispatch_gap_ms"] = {median(all.gap_ms), "ms"};
  layer["dispatcher.batches_per_job"] = {
      store_jobs_ > 0 ? static_cast<double>(tasks) / static_cast<double>(store_jobs_) : 0,
      "count"};
  layer["emulator.run_ms"] = {median(emulator_run_ms_), "ms"};
  // store
  layer["store.appends"] = {store_.appends, "count"};
  layer["store.fsyncs"] = {store_.fsyncs, "count"};
  layer["store.appends_per_fsync"] = {
      store_.fsyncs > 0 ? store_.appends / store_.fsyncs : 0, "count"};
  layer["store.journal_bytes_per_job"] = {
      store_.journal_bytes_per_event * store_.appends /
          static_cast<double>(std::max<std::uint64_t>(1, store_jobs_)),
      "B"};
  layer["store.flush_ms"] = {median(flush_ms_), "ms"};
  layer["store.replay_s"] = {median(replay_s_), "s"};
  // telemetry
  layer["telemetry.metrics_bytes"] = {median(monitor_.metrics_bytes), "B"};
  layer["telemetry.spans_per_job"] = {mean(monitor_.spans_per_job), "count"};
  for (const char* stage : {"admission", "journal_append", "queue_wait",
                            "qrmi_execute", "qrmi_poll", "result_fetch"}) {
    const auto it = monitor_.self_ms.find(stage);
    layer[std::string("telemetry.self_ms.") + stage] = {
        it != monitor_.self_ms.end() ? median(it->second) : 0, "ms"};
  }
  // loadgen
  layer["loadgen.late_ms.p95"] = {quantile(monitor_.late_ms, 950), "ms"};
  layer["loadgen.cpu_s"] = {samples_.cpu_s + monitor_.cpu_s, "s"};
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "hybrid_loop" || name == "ingest_drain" || name == "busy_qpu";
}

RunOutput run_workload(const Options& options, bool traced, Ops& ops) {
  Runner runner(options, traced, ops);
  return runner.run();
}

}  // namespace qcenv::bench_e2e
