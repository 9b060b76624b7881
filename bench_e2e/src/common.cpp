#include <malloc.h>
#include <time.h>

#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "qrmi/local_emulator.hpp"
#include "qrmi/registry.hpp"
#include "quantum/payload.hpp"
#include "quantum/sequence.hpp"

namespace qcenv::bench_e2e {

bool Ops::check(bool condition, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (condition) return true;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  if (failures_.size() < 20) failures_.push_back(what);
  return false;
}

std::vector<std::string> Ops::failures() const {
  std::scoped_lock lock(mutex_);
  return failures_;
}

std::optional<net::HttpResponse> exchange(KeepAliveClient& client, Ops& ops,
                                          const std::string& method,
                                          const std::string& target,
                                          const std::string& body,
                                          const net::Headers& headers,
                                          int expect) {
  auto response = client.send(method, target, body, headers);
  const bool ok = response.ok() && response.value().status == expect;
  if (!ops.check(ok, method + " " + target + ": " +
                         (!response.ok()
                              ? response.error().to_string()
                              : "answered " +
                                    std::to_string(response.value().status) +
                                    " " + response.value().body.substr(0, 200)))) {
    return std::nullopt;
  }
  return std::move(response).value();
}

std::optional<common::Json> parse_json(const net::HttpResponse& response,
                                       Ops& ops) {
  auto json = common::Json::parse(response.body);
  if (!ops.check(json.ok(), "unparsable body: " + response.body.substr(0, 200))) {
    return std::nullopt;
  }
  return std::move(json).value();
}

JobSpec make_job(std::size_t atoms, std::uint64_t shots,
                 std::int64_t duration_ns, double amplitude) {
  quantum::Sequence sequence(quantum::AtomRegister::linear_chain(atoms, 6.0));
  const auto duration = static_cast<quantum::DurationNsQ>(duration_ns);
  sequence.add_pulse(
      quantum::Pulse{quantum::Waveform::constant(duration, amplitude),
                     quantum::Waveform::constant(duration, 0.0), 0.0});
  return JobSpec{
      quantum::Payload::from_sequence(sequence, shots).to_json().dump(), shots};
}

std::vector<JobSpec> make_pool(common::Rng& rng, std::size_t count,
                               std::size_t atoms, std::uint64_t min_shots,
                               std::uint64_t max_shots) {
  const auto shuffled = [&] {
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    for (std::size_t i = count; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    return order;
  };
  const auto stratum = [&](std::size_t i, double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(i) + rng.uniform()) /
                    static_cast<double>(count);
  };
  const std::vector<std::size_t> duration_of = shuffled();
  std::vector<JobSpec> pool;
  for (std::size_t i = 0; i < count; ++i) {
    const auto shots = static_cast<std::uint64_t>(stratum(
        i, static_cast<double>(min_shots), static_cast<double>(max_shots) + 1));
    // Pulse durations on the 4 ns grid between 100 and 400 ns; amplitudes
    // well inside the emulator spec's limit, so every program is admissible.
    const auto duration = 4 * static_cast<std::int64_t>(
                                  stratum(duration_of[i], 25, 101));
    pool.push_back(make_job(atoms, shots, duration, rng.uniform(1.0, 4.0)));
  }
  std::vector<JobSpec> ordered;
  for (const std::size_t i : shuffled()) ordered.push_back(pool[i]);
  return ordered;
}

Node::Node(const std::string& data_dir, bool traced, std::uint64_t seed) {
  qrmi::ResourceRegistry fleet;
  for (std::size_t i = 0; i < kResources; ++i) {
    emulator::RunOptions run;
    run.seed = seed * 1000 + i;
    const std::string name = "emu-" + std::to_string(i);
    auto emulator = qrmi::LocalEmulatorQrmi::create(name, "sv", run);
    if (!emulator.ok()) {
      throw std::runtime_error("emulator: " + emulator.error().to_string());
    }
    emulators_.push_back(emulator.value());
    if (traced) {
      timers_.push_back(std::make_shared<TimingQrmi>(emulator.value()));
      fleet.add(name, timers_.back());
    } else {
      fleet.add(name, emulator.value());
    }
  }
  static common::WallClock clock;
  daemon::DaemonOptions options;
  options.store.data_dir = data_dir;
  daemon_ = std::make_unique<daemon::MiddlewareDaemon>(options, fleet,
                                                       nullptr, &clock);
  auto port = daemon_->start();
  if (!port.ok()) {
    throw std::runtime_error("daemon start: " + port.error().to_string());
  }
  port_ = port.value();
  if (daemon_->state_store() == nullptr) {
    throw std::runtime_error("daemon runs without its store at " + data_dir);
  }
  for (const auto& timer : timers_) {
    timer->set_pending_probe(
        [this] { return daemon_->dispatcher().queued_total() > 0; });
  }
}

Node::~Node() {
  // The probes read the daemon: unhook them before it goes away.
  for (const auto& timer : timers_) timer->set_pending_probe(nullptr);
  daemon_->stop();
}

void Samples::merge(const Samples& other) {
  const auto append = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  append(submit_ack_ms, other.submit_ack_ms);
  append(turnaround_ms, other.turnaround_ms);
  append(get_job_rtt_ms, other.get_job_rtt_ms);
  append(get_result_rtt_ms, other.get_result_rtt_ms);
  append(polls_per_job, other.polls_per_job);
  append(timelines, other.timelines);
  append(job_shots, other.job_shots);
  cpu_s += other.cpu_s;
}

std::optional<std::uint64_t> result_shots(const common::Json& body) {
  const common::Json& counts = body.at_or_null("counts");
  if (!counts.is_object()) return std::nullopt;
  std::uint64_t total = 0;
  for (const auto& [bits, count] : counts.as_object()) {
    if (!count.is_int() || count.as_int() < 0) return std::nullopt;
    total += static_cast<std::uint64_t>(count.as_int());
  }
  return total;
}

namespace {
double ms_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

/// The fields of a GET /v1/jobs/:id body the benchmark reads.
std::optional<JobStatus> read_status(const common::Json& body) {
  auto state = body.get_string("state");
  auto submitted = body.get_int("submit_time_ns");
  auto dispatched = body.get_int("first_dispatch_time_ns");
  auto finished = body.get_int("finish_time_ns");
  if (!state.ok() || !submitted.ok() || !dispatched.ok() || !finished.ok()) {
    return std::nullopt;
  }
  return JobStatus{state.value(), submitted.value(), dispatched.value(),
                   finished.value()};
}
}  // namespace

std::optional<JobStatus> poll_status(KeepAliveClient& client, Ops& ops,
                                     const Tenant& tenant, std::uint64_t id,
                                     Samples& samples, std::int64_t& received) {
  const std::string target = "/v1/jobs/" + std::to_string(id);
  const std::int64_t sent = steady_now_ns();
  auto response = exchange(client, ops, "GET", target, "", tenant.headers(), 200);
  received = steady_now_ns();
  if (!response) return std::nullopt;
  samples.get_job_rtt_ms.push_back(ms_between(sent, received));
  auto json = parse_json(*response, ops);
  if (!json) return std::nullopt;
  auto status = read_status(*json);
  ops.check(status.has_value(), "status without timestamps: " + target);
  return status;
}

bool fetch_result(KeepAliveClient& client, Ops& ops, const Tenant& tenant,
                  std::uint64_t id, std::uint64_t shots,
                  const JobStatus& status, std::int64_t seen_done,
                  std::uint64_t polls, JobTimeline& timeline,
                  Samples& samples, std::atomic<std::uint64_t>* last_done) {
  const std::string target = "/v1/jobs/" + std::to_string(id);
  if (!ops.check(status.state == "completed",
                 target + " ended " + status.state)) {
    return false;
  }
  timeline.submitted = status.submitted;
  timeline.dispatched = status.dispatched;
  timeline.finished = status.finished;
  timeline.seen_done = seen_done;
  timeline.result_sent = steady_now_ns();
  auto response =
      exchange(client, ops, "GET", target + "/result", "", tenant.headers(), 200);
  timeline.result_done = steady_now_ns();
  if (!response) return false;
  auto json = parse_json(*response, ops);
  if (!json) return false;
  const auto got = result_shots(*json);
  if (!ops.check(got.has_value() && *got == shots,
                 target + " returned " + std::to_string(got.value_or(0)) +
                     " shots, submitted " + std::to_string(shots))) {
    return false;
  }
  samples.get_result_rtt_ms.push_back(
      ms_between(timeline.result_sent, timeline.result_done));
  samples.turnaround_ms.push_back(
      ms_between(timeline.sent, timeline.result_done));
  samples.polls_per_job.push_back(static_cast<double>(polls));
  samples.timelines.push_back(timeline);
  samples.job_shots.push_back(shots);
  if (last_done != nullptr) last_done->store(id, std::memory_order_relaxed);
  return true;
}

bool await_job(KeepAliveClient& client, Ops& ops, const Tenant& tenant,
               std::uint64_t id, std::uint64_t shots,
               std::int64_t poll_sleep_ns, JobTimeline& timeline,
               Samples& samples, std::atomic<std::uint64_t>* last_done) {
  for (std::uint64_t polls = 1;; ++polls) {
    std::int64_t received = 0;
    const auto status = poll_status(client, ops, tenant, id, samples, received);
    if (!status) return false;
    if (status->state != "queued" && status->state != "running") {
      return fetch_result(client, ops, tenant, id, shots, *status, received,
                          polls, timeline, samples, last_done);
    }
    if (poll_sleep_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(poll_sleep_ns));
    }
  }
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace qcenv::bench_e2e
