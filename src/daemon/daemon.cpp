#include "daemon/daemon.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <system_error>

#include "common/strings.hpp"

#define QCENV_LOG_COMPONENT "daemon"
#include "common/logging.hpp"

namespace qcenv::daemon {

using common::Json;
using common::Result;
using common::Status;
using net::HttpRequest;
using net::HttpResponse;
using net::PathParams;

namespace {

int http_status_for(common::ErrorCode code) {
  switch (code) {
    case common::ErrorCode::kNotFound: return 404;
    case common::ErrorCode::kInvalidArgument: return 400;
    case common::ErrorCode::kProtocol: return 400;
    case common::ErrorCode::kPermissionDenied: return 401;
    case common::ErrorCode::kFailedPrecondition: return 409;
    case common::ErrorCode::kResourceExhausted: return 429;
    case common::ErrorCode::kCancelled: return 410;
    case common::ErrorCode::kUnavailable: return 503;
    default: return 500;
  }
}

/// A nonzero `trace_id` names the trace which recorded the rejection, so a
/// 429/500/503 can be correlated with `/metrics` and the event log.
HttpResponse error_response(const common::Error& error,
                            telemetry::TraceId trace_id = 0) {
  Json body = Json::object();
  body["error"] = error.message();
  body["code"] = common::to_string(error.code());
  if (trace_id != 0) body["trace_id"] = static_cast<long long>(trace_id);
  return HttpResponse::json(http_status_for(error.code()), body.dump());
}

/// Queued jobs per class, as `/v1/queue` and `/admin/status` report them.
Json depths_to_json(const std::map<JobClass, std::size_t>& depths) {
  Json out = Json::object();
  for (const auto& [cls, depth] : depths) {
    out[to_string(cls)] = static_cast<long long>(depth);
  }
  return out;
}

Json job_to_json(const DaemonJob& job) {
  Json out = Json::object();
  out["id"] = static_cast<long long>(job.id);
  out["user"] = job.user;
  out["class"] = to_string(job.job_class);
  out["state"] = to_string(job.state);
  out["total_shots"] = static_cast<long long>(job.total_shots);
  out["shots_done"] = static_cast<long long>(job.shots_done);
  out["submit_time_ns"] = job.submit_time;
  out["first_dispatch_time_ns"] = job.first_dispatch_time;
  out["finish_time_ns"] = job.finish_time;
  out["resource"] = job.resource;
  if (!job.error.empty()) out["error"] = job.error;
  return out;
}

using Reply = Result<HttpResponse>;

/// Who may call a route. The route wrapper checks it before the handler
/// runs, so a 401 always comes before any 400 the handler would give.
enum class Access {
  kPublic,
  kSession,   // X-Session-Token names a live session
  kOwnedJob,  // a session, and `:id` names one of the caller's jobs
  kAdmin,     // X-Admin-Key matches the daemon's admin key
};

/// One request as a route handler sees it, after its access check. The
/// typed query accessors return `fallback` for an absent parameter and a
/// 400 naming the parameter for a bad one.
struct Call {
  const HttpRequest& request;
  const PathParams& params;
  Session session;  // kSession and kOwnedJob routes
  DaemonJob job;    // kOwnedJob routes

  Result<Json> body() const { return Json::parse(request.body); }

  /// A plain non-negative decimal: `since=abc` must not silently become 0,
  /// nor `since=-1` wrap to 2^64-1.
  Result<std::uint64_t> u64(const char* name, std::uint64_t fallback) const {
    const auto raw = request.query_param(name);
    if (!raw) return fallback;
    return common::parse_decimal(*raw, name);
  }

  /// Same, for nanosecond timestamps and windows (within TimeNs range).
  Result<common::TimeNs> time_ns(const char* name,
                                 common::TimeNs fallback) const {
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t value,
                           u64(name, static_cast<std::uint64_t>(fallback)));
    if (value > static_cast<std::uint64_t>(
                    std::numeric_limits<common::TimeNs>::max())) {
      return common::err::invalid_argument(std::string(name) +
                                           " is out of range");
    }
    return static_cast<common::TimeNs>(value);
  }

  /// A share fraction in [0, 1] written as a plain decimal ("0.05"): no
  /// exponent, nan or inf.
  Result<double> fraction(const char* name, double fallback) const {
    const auto raw = request.query_param(name);
    if (!raw) return fallback;
    const char* const end = raw->data() + raw->size();
    double value = -1.0;
    const auto [stop, ec] =
        std::from_chars(raw->data(), end, value, std::chars_format::fixed);
    if (ec != std::errc{} || stop != end || !(value >= 0.0 && value <= 1.0)) {
      return common::err::invalid_argument(
          std::string(name) + " must be a decimal fraction in [0, 1], got '" +
          *raw + "'");
    }
    return value;
  }

  /// The choice `name` selects from `choices`; nullopt when absent.
  template <typename T>
  Result<std::optional<T>> one_of(
      const char* name,
      std::initializer_list<std::pair<const char*, T>> choices) const {
    const auto raw = request.query_param(name);
    if (!raw) return std::optional<T>();
    std::string labels;
    for (const auto& [label, value] : choices) {
      if (*raw == label) return std::optional<T>(value);
      if (!labels.empty()) labels += '|';
      labels += label;
    }
    return common::err::invalid_argument(std::string(name) + " must be " +
                                         labels);
  }
};

// Optional request-body fields: each leaves `out` alone when `key` is
// absent or null, and is a 400 naming the field when its value has the
// wrong type or range.

Status string_field(const Json& body, const char* key, std::string& out) {
  if (body.at_or_null(key).is_null()) return {};
  QCENV_ASSIGN_OR_RETURN(out, body.get_string(key));
  return {};
}

/// A finite number >= 0.
Status number_field(const Json& body, const char* key, double& out) {
  const Json& value = body.at_or_null(key);
  if (value.is_null()) return {};
  if (!value.is_number() || !std::isfinite(value.as_double()) ||
      value.as_double() < 0) {
    return common::err::invalid_argument(std::string("'") + key +
                                         "' must be a number >= 0");
  }
  out = value.as_double();
  return {};
}

/// A whole number in [0, 2^63). JSON doubles such as 1e3 pass; 2.5 (a
/// silent truncation) and 1e30 (a float-to-int cast that overflows) fail.
Status count_field(const Json& body, const char* key, std::uint64_t& out) {
  const Json& value = body.at_or_null(key);
  if (value.is_null()) return {};
  if (value.is_int() && value.as_int() >= 0) {
    out = static_cast<std::uint64_t>(value.as_int());
    return {};
  }
  const double number = value.is_double() ? value.as_double() : -1.0;
  if (number >= 0 && number < 0x1p63 && std::trunc(number) == number) {
    out = static_cast<std::uint64_t>(number);
    return {};
  }
  return common::err::invalid_argument(std::string("'") + key +
                                       "' must be a non-negative integer");
}

/// The 201 body both submit routes answer with.
Json submitted_to_json(const MiddlewareDaemon::Submitted& submitted) {
  Json out = Json::object();
  out["job_id"] = static_cast<long long>(submitted.id);
  out["class"] = to_string(submitted.job_class);
  out["resource"] = submitted.resource;
  if (!submitted.forwarded_to.empty()) {
    out["forwarded_to"] = submitted.forwarded_to;
  }
  return out;
}

/// The `payload` and `partition` fields both submit routes read.
Result<quantum::Payload> submit_fields(const Json& body,
                                       MiddlewareDaemon::SubmitHints& hints) {
  QCENV_ASSIGN_OR_RETURN(
      quantum::Payload payload,
      quantum::Payload::from_json(body.at_or_null("payload")));
  QCENV_RETURN_IF_ERROR(string_field(body, "partition", hints.partition));
  return payload;
}

/// The subsystem a route needs, or a 409 saying why it is unavailable.
template <typename T>
Result<T*> require(T* subsystem, const char* why) {
  if (subsystem == nullptr) return common::err::failed_precondition(why);
  return subsystem;
}

qrmi::ResourceRegistry single_resource_fleet(const qrmi::QrmiPtr& resource) {
  qrmi::ResourceRegistry fleet;
  fleet.add(resource->resource_id(), resource);
  return fleet;
}

store::SessionRecord to_session_record(const Session& session) {
  store::SessionRecord record;
  record.id = session.id.value;
  record.user = session.user;
  record.token = session.token;
  record.job_class = session.job_class;
  record.created = session.created;
  record.last_active = session.last_active;
  return record;
}

Session from_session_record(const store::SessionRecord& record) {
  Session session;
  session.id = common::SessionId{record.id};
  session.user = record.user;
  session.token = record.token;
  session.job_class = record.job_class;
  session.created = record.created;
  session.last_active = record.last_active;
  return session;
}

}  // namespace

MiddlewareDaemon::MiddlewareDaemon(DaemonOptions options,
                                   const qrmi::ResourceRegistry& fleet,
                                   qpu::QpuDevice* device,
                                   common::Clock* clock)
    : options_(std::move(options)),
      device_(device),
      clock_(clock),
      traces_(options_.telemetry.tracing
                  ? std::make_unique<telemetry::TraceStore>(
                        options_.telemetry.trace_capacity,
                        options_.telemetry.trace_shards)
                  : nullptr),
      events_(options_.telemetry.event_capacity),
      profiler_(options_.telemetry.profile_capacity),
      sessions_(options_.sessions, clock),
      admission_(options_.admission),
      accounting_(options_.accounting, clock, &metrics_),
      broker_(std::make_shared<broker::ResourceBroker>(options_.broker,
                                                       clock, &metrics_)),
      server_(net::HttpServerOptions{options_.port, 4,
                                     10 * common::kSecond}) {
  // Availability transitions must be logged before the first resource can
  // transition — the ETA engine replays them for drain/outage overlap.
  broker_->set_event_log(&events_);
  auto seeded = broker_->add_all(fleet);
  if (!seeded.ok()) {
    QCENV_LOG(Error) << "fleet seeding failed: " << seeded.to_string();
  }
  const auto names = broker_->names();
  if (!names.empty()) {
    primary_ = broker_->resource(names.front()).value();
  }
  // Recover durable state BEFORE the dispatcher exists, so restored jobs
  // are queued before any lane or client can race them.
  std::uint64_t next_job_id = 1;
  std::vector<store::JobRecord> recovered_jobs;
  if (options_.store.enabled()) {
    recovered_jobs = open_store(next_job_id);
  }
  dispatcher_ = std::make_unique<Dispatcher>(broker_, options_.queue_policy,
                                             clock, &metrics_, store_.get(),
                                             &accounting_, traces_.get(),
                                             &events_);
  dispatcher_->set_terminal_retention(options_.store.terminal_job_retention,
                                      options_.store.terminal_job_cap);
  dispatcher_->set_slow_job_threshold(options_.telemetry.slow_job_threshold);
  // Before any job can finish, restored ones included: lanes fold terminal
  // traces into the critical-path profiler from finish_locked.
  dispatcher_->set_profiler(&profiler_);
  if (store_ != nullptr) {
    dispatcher_->restore(recovered_jobs, next_job_id);
    store_->set_snapshot_provider([this] { return build_snapshot(); });
  }
  if (options_.telemetry.observability.enabled) {
    ObservabilityOptions obs = options_.telemetry.observability;
    if (obs.dump_path.empty() && options_.store.enabled()) {
      obs.dump_path = options_.store.data_dir + "/flight.json";
    }
    observability_ = std::make_unique<ObservabilityPipeline>(
        obs, &metrics_, &events_, clock_);
    observability_->attach(dispatcher_.get(), broker_.get());
    dispatcher_->set_latency_slo(obs.latency_slo);
    dispatcher_->set_lane_heartbeat([this](const std::string& lane) {
      observability_->recorder().heartbeat(lane);
    });
    if (store_ != nullptr) {
      store_->set_writer_heartbeat([this] {
        observability_->recorder().heartbeat("journal_writer");
      });
      // Journal disk death: capture the black box while the failure is
      // fresh. The hook runs once, after the journal_fail_stop event is
      // logged, so the dump's event tail names the failure itself.
      store_->set_fail_stop_hook([this](const std::string& error) {
        auto dumped =
            observability_->recorder().dump("journal_fail_stop: " + error);
        if (dumped.ok()) {
          QCENV_LOG(Warn) << "flight recorder dumped to "
                          << dumped.value();
        } else {
          QCENV_LOG(Error) << "flight dump failed: "
                           << dumped.error().to_string();
        }
      });
    }
    observability_->start();
  }
  EtaEngine::Deps eta_deps;
  eta_deps.dispatcher = dispatcher_.get();
  eta_deps.broker = broker_.get();
  eta_deps.accounting = &accounting_;
  eta_deps.tsdb =
      observability_ != nullptr ? &observability_->tsdb() : nullptr;
  eta_deps.events = &events_;
  eta_deps.clock = clock_;
  eta_deps.policy = options_.queue_policy;
  eta_ = std::make_unique<EtaEngine>(eta_deps, options_.telemetry.eta);
  if (options_.federation.enabled) {
    federation_ = std::make_unique<federation::FederationRouter>(
        options_.federation,
        [this] {
          federation::FederationRouter::LocalStatus status;
          status.queue_depth = dispatcher_->queued_total();
          const auto fleet = broker_->summarize();
          status.healthy_resources = fleet.healthy;
          status.mean_score = fleet.mean_score;
          return status;
        },
        clock_, &metrics_, &events_);
    if (options_.store.enabled()) {
      // The durable fencing epoch lives next to the journal: a daemon
      // restarted after being promoted resumes AT its promoted epoch,
      // not at 0 (where the old leader's WAL could out-fence it again).
      federation_->set_data_dir(options_.store.data_dir);
      auto epoch = federation::read_epoch(options_.store.data_dir);
      if (epoch.ok()) {
        federation_->set_epoch(epoch.value());
      } else {
        QCENV_LOG(Error) << "unreadable federation epoch file: "
                         << epoch.error().to_string();
      }
    }
  }
  install_routes();
}

std::vector<store::JobRecord> MiddlewareDaemon::open_store(
    std::uint64_t& next_job_id) {
  store_ = std::make_unique<store::StateStore>(options_.store, clock_,
                                               &metrics_);
  // Before open(): the group-commit writer thread starts there, and its
  // fail-stop / fsync-stall events must have somewhere to go from the
  // first batch.
  store_->set_event_log(&events_);
  auto recovered = store_->open();
  if (!recovered.ok()) {
    // Refusing to start would take the whole access node down with the
    // store; running in-memory keeps users working and screams in the log.
    // Quarantine the data-dir so a LATER restart cannot replay state that
    // went stale during the in-memory period (resurrecting closed
    // sessions' tokens and re-running old jobs).
    QCENV_LOG(Error) << "store unusable, continuing WITHOUT durability: "
                     << recovered.error().to_string();
    store_.reset();
    const std::string quarantine = options_.store.data_dir + ".unusable-" +
                                   std::to_string(clock_->now());
    std::error_code ec;
    std::filesystem::rename(options_.store.data_dir, quarantine, ec);
    if (ec) {
      QCENV_LOG(Error) << "could not quarantine '"
                       << options_.store.data_dir << "': " << ec.message();
    } else {
      QCENV_LOG(Warn) << "quarantined unusable store data-dir to '"
                      << quarantine << "'";
    }
    return {};
  }
  for (const auto& session : recovered.value().sessions) {
    sessions_.restore(from_session_record(session));
  }
  // Rebuild the usage ledger: snapshot records first, then the journal's
  // newer batch/completion charges on top — decayed usage survives the
  // restart exactly, so post-recovery fair-share ordering matches a run
  // that never crashed.
  accounting_.restore(recovered.value().usage,
                      recovered.value().usage_deltas);
  next_job_id = recovered.value().next_job_id;
  return std::move(recovered).value().jobs;
}

store::StoreSnapshot MiddlewareDaemon::build_snapshot() {
  // Job state carries its own exact watermark (read under the dispatcher
  // lock). For sessions, read the watermark BEFORE listing: any session
  // event at or below it committed its mutation first, so the list below
  // reflects it; later events replay idempotently on top.
  store::StoreSnapshot snapshot = dispatcher_->durable_snapshot();
  snapshot.sessions_seq = store_->journal().last_seq();
  for (const auto& session : sessions_.list()) {
    snapshot.sessions.push_back(to_session_record(session));
  }
  return snapshot;
}

std::size_t MiddlewareDaemon::session_removed(const Session& session) {
  const std::size_t cancelled =
      dispatcher_->cancel_for_session(session.id);
  if (store_ != nullptr) store_->session_closed(session.token);
  if (cancelled > 0) {
    QCENV_LOG(Info) << "session " << session.id.to_string() << " of '"
                    << session.user << "' closed; cancelled " << cancelled
                    << " orphaned job(s)";
  }
  return cancelled;
}

MiddlewareDaemon::MiddlewareDaemon(DaemonOptions options,
                                   qrmi::QrmiPtr resource,
                                   qpu::QpuDevice* device,
                                   common::Clock* clock)
    : MiddlewareDaemon(std::move(options), single_resource_fleet(resource),
                       device, clock) {}

MiddlewareDaemon::~MiddlewareDaemon() { stop(); }

Result<std::uint16_t> MiddlewareDaemon::start() {
  auto port = server_.start();
  if (port.ok()) {
    QCENV_LOG(Info) << "middleware daemon on 127.0.0.1:" << port.value();
    if (federation_ != nullptr) federation_->start();
  }
  return port;
}

void MiddlewareDaemon::stop() {
  // Peer polling first: a poll landing mid-teardown would read members
  // this function is about to destroy state under.
  if (federation_ != nullptr) federation_->stop();
  server_.stop();
  // No scrapes may run once subsystems start tearing down: the samplers
  // read the dispatcher and broker.
  if (observability_ != nullptr) observability_->stop();
  // Stop the compaction thread while the dispatcher (whose state the
  // snapshot provider reads) is still alive, and make the journal durable.
  if (store_ != nullptr) store_->shutdown();
}

JobClass MiddlewareDaemon::resolve_class(const std::string& partition,
                                         JobClass session_default) const {
  if (partition.empty()) return session_default;
  const auto it = options_.partition_class.find(partition);
  return it != options_.partition_class.end() ? it->second : session_default;
}

Result<Session> MiddlewareDaemon::open_session(const std::string& user,
                                               JobClass cls) {
  auto session = sessions_.create(user, cls);
  if (!session.ok()) return session.error();
  if (store_ != nullptr) {
    store_->session_created(to_session_record(session.value()));
  }
  return session;
}

Result<std::size_t> MiddlewareDaemon::close_session(
    const std::string& token) {
  QCENV_ASSIGN_OR_RETURN(const Session session, sessions_.authenticate(token));
  return end_session(session);
}

Result<std::size_t> MiddlewareDaemon::end_session(const Session& session) {
  QCENV_RETURN_IF_ERROR(sessions_.close(session.token));
  // A closed session must not leave orphans in the queue.
  return session_removed(session);
}

Result<Session> MiddlewareDaemon::ingress_session(const std::string& user) {
  {
    std::scoped_lock lock(ingress_mutex_);
    const auto it = ingress_tokens_.find(user);
    // Re-authenticate the cached token: idle expiry may have reaped the
    // session between forwards.
    if (it != ingress_tokens_.end()) {
      if (auto session = sessions_.authenticate(it->second); session.ok()) {
        return session;
      }
    }
  }
  // The session default class is a placeholder — forwarded submissions
  // carry their partition, and resolve_class overrides per job.
  auto session = open_session(user, JobClass::kDevelopment);
  if (!session.ok()) return session.error();
  std::scoped_lock lock(ingress_mutex_);
  ingress_tokens_[user] = session.value().token;
  return session;
}

Result<MiddlewareDaemon::Submitted> MiddlewareDaemon::submit_job(
    const std::string& token, quantum::Payload payload,
    const SubmitHints& hints, telemetry::TraceId* trace_out) {
  QCENV_ASSIGN_OR_RETURN(const Session session, sessions_.authenticate(token));
  return submit_as(session, std::move(payload), hints, trace_out);
}

Result<MiddlewareDaemon::Submitted> MiddlewareDaemon::submit_as(
    const Session& session, quantum::Payload payload,
    const SubmitHints& hints, telemetry::TraceId* trace_out) {
  const std::string& user = session.user;
  // Federation: when this daemon cannot take the job (demoted to
  // standby, fleet down, queue saturated — choose_peer decides), route
  // it to the best-scored peer BEFORE touching local admission state.
  // A failed forward falls through to the normal local path below: a
  // submission always lands in exactly one daemon's queue, never
  // nowhere. Resource-pinned jobs and peer-forwarded arrivals stay put.
  if (federation_ != nullptr && !hints.no_forward &&
      hints.resource.empty()) {
    if (const auto peer = federation_->choose_peer("")) {
      auto forwarded = federation_->forward(*peer, user, hints.partition,
                                            payload.to_json());
      if (forwarded.ok()) {
        events_.log(clock_->now(), telemetry::Severity::kInfo,
                    "job_forwarded",
                    "submission routed to peer '" + *peer + "' as job " +
                        std::to_string(forwarded.value().remote_id),
                    user, forwarded.value().remote_id);
        Submitted submitted;
        submitted.id = forwarded.value().remote_id;
        submitted.job_class = resolve_class(hints.partition, session.job_class);
        submitted.resource = forwarded.value().resource;
        submitted.forwarded_to = *peer;
        return submitted;
      }
      events_.log(clock_->now(), telemetry::Severity::kWarn,
                  "forward_failed",
                  "peer '" + *peer + "' refused a forwarded submission (" +
                      forwarded.error().message() +
                      "); falling back to the local queue",
                  user);
    }
  }
  // Every traced submission's timeline starts here: the `admission` stage
  // covers validation and accounting, and it opens BEFORE any check can
  // reject — so 429/500/503 responses carry a trace id too.
  telemetry::TraceId trace = 0;
  const common::TimeNs trace_start = clock_->now();
  if (traces_ != nullptr) {
    // One relaxed fetch_add; the trace's spans materialize off the hot
    // path (at first claim/finish/read, or in `rejected` below).
    trace = traces_->allocate();
    if (trace_out != nullptr) *trace_out = trace;
  }
  const auto rejected = [&](const common::Error& error) -> common::Error {
    if (trace != 0) {
      traces_->record_rejected(trace, user, trace_start, clock_->now());
    }
    events_.log(clock_->now(), telemetry::Severity::kWarn,
                "submit_rejected", error.message(), user, 0, trace);
    // Rejection-ratio SLO input (cold path by definition).
    if (observability_ != nullptr) observability_->note_rejected(user);
    return error;
  };
  const JobClass cls = resolve_class(hints.partition, session.job_class);
  Dispatcher::SubmitOptions placement;
  placement.resource = hints.resource;
  placement.policy = hints.policy;
  placement.trace_id = trace;
  placement.trace_start = trace_start;
  // Validate against the spec of the resource the job is pinned to (or
  // the primary when the broker places it freely).
  qrmi::QrmiPtr spec_source = primary_;
  if (!placement.resource.empty()) {
    auto pinned = broker_->resource(placement.resource);
    if (!pinned.ok()) return rejected(pinned.error());
    spec_source = std::move(pinned).value();
  }
  if (spec_source == nullptr) {
    return rejected(common::err::failed_precondition(
        "no resources registered with this daemon"));
  }
  auto spec = spec_source->target();
  if (!spec.ok()) return rejected(spec.error());
  AdmissionContext context;
  context.user = user;
  // One relaxed atomic load — the submit hot path must not walk (and
  // lock) every queue shard just to read the global depth.
  context.queue_depth = dispatcher_->queued_total();
  context.user_pending = dispatcher_->pending_for_user(context.user);
  const auto pending_override = accounting_.pending_limit(context.user);
  if (pending_override.has_value()) {
    context.user_pending_limit = static_cast<std::size_t>(*pending_override);
  }
  auto admitted = admission_.validate(payload, cls, spec.value(), context);
  if (!admitted.ok()) return rejected(admitted.error());
  // Per-user rate limits and in-flight shot caps (HTTP 429). Consumes a
  // token and reserves the shots; released as batches execute or if the
  // submission fails below.
  const std::uint64_t shots = payload.shots();
  auto reserved = accounting_.admit_submission(context.user, shots);
  if (!reserved.ok()) return rejected(reserved.error());
  // The dispatcher re-checks the pending cap under its own lock — the
  // only race-free enforcement point for concurrent submits.
  placement.user_pending_limit = context.user_pending_limit.value_or(
      options_.admission.max_pending_per_user);
  auto id = dispatcher_->submit(session.id, user, cls, std::move(payload),
                                placement);
  if (!id.ok()) {
    accounting_.release_submission(context.user, shots);
    return rejected(id.error());
  }
  // Close the submit/close race: if the session died between the
  // authenticate above and this submit, its cancel sweep may have run
  // before the job existed — sweep it ourselves. The dispatcher owns the
  // trace from here (the cancel finishes it), so only log the event.
  if (!sessions_.authenticate(session.token).ok()) {
    (void)dispatcher_->cancel_for_session(session.id);
    events_.log(clock_->now(), telemetry::Severity::kWarn,
                "submit_rejected", "session closed during submission",
                user, id.value(), trace);
    return common::err::permission_denied("session closed during submission");
  }
  Submitted submitted;
  submitted.id = id.value();
  submitted.job_class = cls;
  auto job = dispatcher_->query(id.value());
  if (job.ok()) submitted.resource = job.value().resource;
  return submitted;
}

void MiddlewareDaemon::install_routes() {
  // Instrumentation middleware: count requests per path prefix.
  server_.set_middleware(
      [this](const HttpRequest& request) -> std::optional<HttpResponse> {
        metrics_
            .counter("daemon_http_requests_total",
                     {{"method", request.method}}, "REST requests")
            .increment();
        return std::nullopt;
      });

  // ---- subsystem preconditions and shared lookups --------------------------
  const auto need_observability = [this] {
    return require(observability_.get(), "observability is disabled");
  };
  const auto need_store = [this] {
    return require(store_.get(),
                   "daemon runs without a durable store (no data_dir)");
  };
  const auto need_device = [this] {
    return require(device_, "no local device attached to this daemon");
  };
  const auto need_federation = [this] {
    return require(federation_.get(),
                   "federation is not enabled on this daemon");
  };
  // The leader-fencing epoch: the router's live value, else the durable
  // file (0 when never promoted here, or when the file is unreadable).
  const auto fencing_epoch = [this]() -> std::uint64_t {
    if (federation_ != nullptr) return federation_->epoch();
    if (!options_.store.enabled()) return 0;
    return federation::read_epoch(options_.store.data_dir).value_or(0);
  };

  // ---- user surface --------------------------------------------------------

  const auto open_session_route = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const Json body, call.body());
    QCENV_ASSIGN_OR_RETURN(const std::string user, body.get_string("user"));
    JobClass cls = JobClass::kDevelopment;
    if (body.contains("class")) {
      QCENV_ASSIGN_OR_RETURN(const std::string name, body.get_string("class"));
      QCENV_ASSIGN_OR_RETURN(cls, job_class_from_string(name));
    }
    QCENV_ASSIGN_OR_RETURN(const Session session, open_session(user, cls));
    Json out = Json::object();
    out["session_id"] = session.id.to_string();
    out["token"] = session.token;
    out["class"] = to_string(session.job_class);
    return HttpResponse::json(201, out.dump());
  };

  const auto close_session_route = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const std::size_t cancelled,
                           end_session(call.session));
    Json out = Json::object();
    out["closed"] = true;
    out["cancelled_jobs"] = static_cast<long long>(cancelled);
    return HttpResponse::json(200, out.dump());
  };

  const auto device_spec = [this](const Call&) -> Reply {
    if (primary_ == nullptr) {
      return common::err::failed_precondition(
          "no resources registered with this daemon");
    }
    QCENV_ASSIGN_OR_RETURN(const auto spec, primary_->target());
    return HttpResponse::json(200, spec.to_json().dump());
  };

  const auto resources = [this](const Call&) -> Reply {
    Json out = Json::array();
    for (const auto& status : broker_->snapshot()) {
      out.push_back(status.to_json());
    }
    return HttpResponse::json(200, out.dump());
  };

  const auto submit = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const Json body, call.body());
    SubmitHints hints;
    QCENV_ASSIGN_OR_RETURN(quantum::Payload payload,
                           submit_fields(body, hints));
    QCENV_RETURN_IF_ERROR(string_field(body, "resource", hints.resource));
    if (body.contains("policy")) {
      QCENV_ASSIGN_OR_RETURN(const std::string name,
                             body.get_string("policy"));
      QCENV_ASSIGN_OR_RETURN(hints.policy, broker::policy_from_string(name));
    }
    telemetry::TraceId trace = 0;
    auto submitted = submit_as(call.session, std::move(payload), hints, &trace);
    if (!submitted.ok()) {
      HttpResponse response = error_response(submitted.error(), trace);
      // Rate-limited submissions learn when to come back: the token
      // bucket's refill time, rounded up to whole seconds (HTTP
      // Retry-After), the same number the ETA endpoint reports as the
      // rate_limited wait cause. Caps without a refill (in-flight shots,
      // pending jobs) send no header.
      if (response.status == 429) {
        const common::DurationNs retry = accounting_.rate_limiter().retry_after(
            call.session.user, clock_->now());
        if (retry > 0) {
          response.headers["Retry-After"] = std::to_string(
              (retry + common::kSecond - 1) / common::kSecond);
        }
      }
      return response;
    }
    Json out = submitted_to_json(submitted.value());
    if (trace != 0) out["trace_id"] = static_cast<long long>(trace);
    // The predicted start/finish window rides the 201: REST clients get
    // their ETA without a second round-trip. Off the programmatic hot path
    // on purpose — bench_submit_path drives submit_job directly and never
    // pays for the queue snapshot below. A forwarded job's id belongs to
    // the peer; its ETA does too.
    if (submitted.value().forwarded_to.empty()) {
      if (auto eta = eta_->estimate(submitted.value().id); eta.ok()) {
        out["eta"] = eta.value().to_json();
      }
    }
    return HttpResponse::json(201, out.dump());
  };

  const auto list_jobs = [this](const Call& call) -> Reply {
    Json out = Json::array();
    for (const auto& job : dispatcher_->jobs_snapshot()) {
      if (job.user == call.session.user) out.push_back(job_to_json(job));
    }
    return HttpResponse::json(200, out.dump());
  };

  // Owned-job routes: the wrapper has already parsed `:id`, queried the
  // job once and checked that it belongs to the caller.
  const auto job_status = [](const Call& call) -> Reply {
    return HttpResponse::json(200, job_to_json(call.job).dump());
  };

  const auto job_eta = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const auto eta, eta_->estimate(call.job.id));
    return HttpResponse::json(200, eta.to_json().dump());
  };

  const auto job_explain = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const auto report, eta_->explain(call.job.id));
    return HttpResponse::json(200, report.to_json().dump());
  };

  const auto job_trace = [this](const Call& call) -> Reply {
    if (traces_ == nullptr) {
      return common::err::not_found("tracing is disabled on this daemon");
    }
    // Materializes deferred submit spans on demand, so queued jobs are
    // traceable before their first dispatch.
    auto trace = dispatcher_->trace(call.job.id);
    if (!trace.ok() && trace.error().message() == "trace evicted") {
      return common::err::not_found(
          "trace evicted (raise telemetry.trace_capacity)");
    }
    if (!trace.ok()) return trace.error();
    return HttpResponse::json(
        200, telemetry::TraceStore::to_json(trace.value()).dump());
  };

  const auto job_result = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const auto samples,
                           dispatcher_->result(call.job.id));
    return HttpResponse::json(200, samples.to_json().dump());
  };

  const auto cancel_job = [this](const Call& call) -> Reply {
    QCENV_RETURN_IF_ERROR(dispatcher_->cancel(call.job.id));
    return HttpResponse::json(200, R"({"cancelled":true})");
  };

  const auto queue = [this](const Call&) -> Reply {
    Json out = Json::object();
    out["depths"] = depths_to_json(dispatcher_->queue_depths());
    Json order = Json::array();
    for (const std::uint64_t id : dispatcher_->queue_order()) {
      order.push_back(static_cast<long long>(id));
    }
    out["order"] = std::move(order);
    // Per-resource lane view: queued/running jobs per lane plus the
    // broker's live in-flight batch count.
    std::map<std::string, std::size_t> inflight;
    for (const auto& status : broker_->snapshot()) {
      inflight[status.name] = status.inflight_batches;
    }
    Json lanes = Json::object();
    for (const auto& [name, depth] : dispatcher_->lane_depths()) {
      Json lane = Json::object();
      lane["queued"] = static_cast<long long>(depth.queued);
      lane["running"] = static_cast<long long>(depth.running);
      const auto it = inflight.find(name);
      lane["inflight_batches"] =
          static_cast<long long>(it != inflight.end() ? it->second : 0);
      lanes[name] = std::move(lane);
    }
    out["lanes"] = std::move(lanes);
    // Per-tenant view: queued jobs per user, so a 429'd client can see
    // whose backlog is occupying the queue.
    Json users = Json::object();
    for (const auto& [user, count] : dispatcher_->user_pending_counts()) {
      users[user] = static_cast<long long>(count);
    }
    out["users"] = std::move(users);
    out["draining"] = dispatcher_->draining();
    return HttpResponse::json(200, out.dump());
  };

  const auto usage = [this](const Call& call) -> Reply {
    const std::string& user = call.session.user;
    return HttpResponse::json(
        200,
        accounting_.usage_json(user, dispatcher_->pending_for_user(user))
            .dump());
  };

  const auto prometheus = [this](const Call&) -> Reply {
    HttpResponse response = HttpResponse::text(200, metrics_.expose());
    // The version suffix is the Prometheus exposition-format contract;
    // only this endpoint speaks it.
    response.headers["Content-Type"] = "text/plain; version=0.0.4";
    return response;
  };

  // ---- admin surface -------------------------------------------------------

  const auto admin_status = [this](const Call&) -> Reply {
    Json out = Json::object();
    out["sessions"] = static_cast<long long>(sessions_.count());
    out["draining"] = dispatcher_->draining();
    out["queue"] = depths_to_json(dispatcher_->queue_depths());
    if (device_ != nullptr) {
      const auto counters = device_->counters();
      out["qpu_jobs_executed"] = static_cast<long long>(counters.jobs_executed);
      out["qpu_busy_seconds"] = common::to_seconds(counters.busy_ns);
      out["qpu_fidelity"] = device_->spec().calibration.fidelity_estimate();
    }
    return HttpResponse::json(200, out.dump());
  };

  // Structured-event tail: `?since=<seq>` returns events AFTER that
  // sequence number (0 = from the oldest retained), so operators can poll
  // incrementally; `last_seq` is the cursor for the next call.
  const auto event_tail = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t since, call.u64("since", 0));
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t max, call.u64("max", 256));
    telemetry::EventLog::Filter filter;
    QCENV_ASSIGN_OR_RETURN(filter.severity,
                           call.one_of<telemetry::Severity>(
                               "severity",
                               {{"info", telemetry::Severity::kInfo},
                                {"warn", telemetry::Severity::kWarn},
                                {"error", telemetry::Severity::kError}}));
    filter.kind = call.request.query_param("kind");
    Json out = Json::object();
    Json list = Json::array();
    for (const auto& event : events_.since(since, max, filter)) {
      list.push_back(telemetry::EventLog::to_json(event));
    }
    out["events"] = std::move(list);
    out["last_seq"] = static_cast<long long>(events_.last_seq());
    return HttpResponse::json(200, out.dump());
  };

  const auto tsdb_query = [need_observability](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* obs, need_observability());
    const auto series = call.request.query_param("series");
    if (!series) return common::err::invalid_argument("series= is required");
    QCENV_ASSIGN_OR_RETURN(const auto key,
                           telemetry::SeriesKey::parse(*series));
    constexpr common::TimeNs kOpenEnd =
        std::numeric_limits<common::TimeNs>::max();
    QCENV_ASSIGN_OR_RETURN(const common::TimeNs start,
                           call.time_ns("start", 0));
    QCENV_ASSIGN_OR_RETURN(common::TimeNs end, call.time_ns("end", kOpenEnd));
    QCENV_ASSIGN_OR_RETURN(const common::DurationNs window,
                           call.time_ns("window", 0));
    const telemetry::TimeSeriesDb& tsdb = obs->tsdb();
    Json out = Json::object();
    out["series"] = key.to_string();
    if (window > 0) {
      QCENV_ASSIGN_OR_RETURN(const auto agg,
                             call.one_of<telemetry::Aggregation>(
                                 "agg",
                                 {{"mean", telemetry::Aggregation::kMean},
                                  {"min", telemetry::Aggregation::kMin},
                                  {"max", telemetry::Aggregation::kMax},
                                  {"last", telemetry::Aggregation::kLast},
                                  {"sum", telemetry::Aggregation::kSum},
                                  {"count", telemetry::Aggregation::kCount},
                                  {"rate", telemetry::Aggregation::kRate}}));
      // aggregate() windows cover [start, end); an open end would overflow
      // the window arithmetic, so clamp to the data.
      if (end == kOpenEnd) {
        const auto last = tsdb.last(key);
        end = last ? last->time + 1 : start;
      }
      Json windows = Json::array();
      for (const auto& point :
           tsdb.aggregate(key, start, end, window,
                          agg.value_or(telemetry::Aggregation::kMean))) {
        Json entry = Json::object();
        entry["window_start"] = point.window_start;
        entry["value"] = point.value;
        entry["samples"] = point.samples;
        windows.push_back(std::move(entry));
      }
      out["windows"] = std::move(windows);
    } else {
      common::JsonArray points;
      for (const auto& point : tsdb.query_range(key, start, end)) {
        common::JsonArray pair;
        pair.reserve(2);
        pair.emplace_back(point.time);
        pair.emplace_back(point.value);
        points.emplace_back(std::move(pair));
      }
      out["points"] = Json(std::move(points));
    }
    return HttpResponse::json(200, out.dump());
  };

  const auto tsdb_export = [need_observability](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* obs, need_observability());
    const telemetry::TimeSeriesDb& tsdb = obs->tsdb();
    std::vector<telemetry::SeriesKey> keys;
    if (const auto raw = call.request.query_param("series")) {
      QCENV_ASSIGN_OR_RETURN(auto key, telemetry::SeriesKey::parse(*raw));
      keys.push_back(std::move(key));
    } else {
      keys = tsdb.series();
    }
    std::string body;
    for (const auto& key : keys) {
      QCENV_ASSIGN_OR_RETURN(const std::string lines, tsdb.dump_series(key));
      body += lines;
    }
    return HttpResponse::text(200, body);
  };

  const auto alerts = [need_observability](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* obs, need_observability());
    return HttpResponse::json(200, obs->alerts().to_json().dump());
  };

  const auto slo = [this, need_observability](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* obs, need_observability());
    const common::TimeNs now = obs->collector().last_scrape() >= 0
                                   ? obs->collector().last_scrape()
                                   : clock_->now();
    Json out = Json::object();
    Json burns = Json::array();
    for (const auto& status : obs->alerts().burn_status(obs->tsdb(), now)) {
      burns.push_back(status.to_json());
    }
    out["burn_rates"] = std::move(burns);
    out["objective"] = obs->options().slo_objective;
    out["burn_threshold"] = obs->options().burn_threshold;
    out["short_window_ns"] = obs->short_window();
    out["long_window_ns"] = obs->long_window();
    out["evaluated_at"] = now;
    return HttpResponse::json(200, out.dump());
  };

  // Critical-path profile: collapsed stacks of terminal jobs finishing in
  // the trailing `window` ns (0/absent = everything retained), merged
  // fleet-wide and split per resource / per tenant, plus regressions
  // against the recorded baseline (stacks whose share of total self time
  // grew more than `threshold` share points).
  const auto profile_range =
      [this](const Call& call)
      -> Result<std::pair<common::TimeNs, common::TimeNs>> {
    const common::TimeNs now = clock_->now();
    QCENV_ASSIGN_OR_RETURN(const common::DurationNs window,
                           call.time_ns("window", 0));
    const common::TimeNs since = window > 0 && now > window ? now - window : 0;
    return std::pair{since, now};
  };

  const auto profile = [this, profile_range](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const auto range, profile_range(call));
    QCENV_ASSIGN_OR_RETURN(const double threshold,
                           call.fraction("threshold", 0.05));
    const auto [since, until] = range;
    Json out = profiler_.view(since, until).to_json();
    out["baseline"] = profiler_.has_baseline();
    Json regs = Json::array();
    for (const auto& regression :
         profiler_.regressions(since, until, threshold)) {
      regs.push_back(regression.to_json());
    }
    out["regressions"] = std::move(regs);
    return HttpResponse::json(200, out.dump());
  };

  const auto baseline = [this, profile_range](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const auto range, profile_range(call));
    const auto [since, until] = range;
    profiler_.record_baseline(since, until);
    Json out = Json::object();
    out["recorded"] = true;
    out["since_ns"] = since;
    out["until_ns"] = until;
    out["jobs"] = static_cast<long long>(profiler_.view(since, until).jobs);
    return HttpResponse::json(200, out.dump());
  };

  const auto flight_dump = [this, need_observability](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* obs, need_observability());
    QCENV_ASSIGN_OR_RETURN(const std::string path,
                           obs->recorder().dump("admin_request"));
    events_.log(clock_->now(), telemetry::Severity::kInfo, "flight_dump",
                "operator-requested forensics dump to " + path);
    Json out = Json::object();
    out["path"] = path;
    out["dumps"] = obs->recorder().dump_count();
    return HttpResponse::json(200, out.dump());
  };

  const auto list_sessions = [this](const Call&) -> Reply {
    Json out = Json::array();
    for (const auto& session : sessions_.list()) {
      Json s = Json::object();
      s["id"] = session.id.to_string();
      s["user"] = session.user;
      s["class"] = to_string(session.job_class);
      s["created_ns"] = session.created;
      out.push_back(std::move(s));
    }
    return HttpResponse::json(200, out.dump());
  };

  const auto expire_sessions = [this](const Call&) -> Reply {
    const auto expired = sessions_.expire_idle();
    std::size_t cancelled = 0;
    for (const auto& session : expired) cancelled += session_removed(session);
    Json out = Json::object();
    out["expired"] = static_cast<long long>(expired.size());
    out["cancelled_jobs"] = static_cast<long long>(cancelled);
    return HttpResponse::json(200, out.dump());
  };

  const auto fairshare = [this](const Call&) -> Reply {
    return HttpResponse::json(200, accounting_.fairshare_json().dump());
  };

  // Any field present replaces that knob; the rest keep the user's current
  // values. Every field is checked before any is applied, so a 400 changes
  // nothing. Negative limits are typos, not requests for huge uint64s.
  const auto set_quota = [this](const Call& call) -> Reply {
    const std::string& user = call.params.at("user");
    QCENV_ASSIGN_OR_RETURN(const Json quota, call.body());
    auto share = accounting_.fair_share().share_of(user);
    auto limits = accounting_.rate_limiter().effective(user);
    std::uint64_t pending = 0;
    QCENV_RETURN_IF_ERROR(number_field(quota, "shares", share.shares));
    QCENV_RETURN_IF_ERROR(string_field(quota, "account", share.account));
    QCENV_RETURN_IF_ERROR(
        number_field(quota, "submit_per_sec", limits.submit_per_sec));
    QCENV_RETURN_IF_ERROR(
        number_field(quota, "submit_burst", limits.submit_burst));
    QCENV_RETURN_IF_ERROR(
        count_field(quota, "max_inflight_shots", limits.max_inflight_shots));
    QCENV_RETURN_IF_ERROR(count_field(quota, "max_pending_jobs", pending));
    if (quota.contains("shares") || quota.contains("account")) {
      accounting_.set_shares(user, share.account, share.shares);
    }
    if (quota.contains("submit_per_sec") || quota.contains("submit_burst") ||
        quota.contains("max_inflight_shots")) {
      accounting_.set_rate_limit(user, limits);
    }
    // max_pending_jobs: a count sets the override (0 = unlimited for this
    // user, beating the global policy); null clears it back to the policy
    // default.
    if (quota.contains("max_pending_jobs")) {
      if (quota.at_or_null("max_pending_jobs").is_null()) {
        accounting_.clear_pending_limit(user);
      } else {
        accounting_.set_pending_limit(user, pending);
      }
    }
    return HttpResponse::json(200, accounting_.quota_json(user).dump());
  };

  const auto drain = [this](const Call&) -> Reply {
    dispatcher_->drain();
    return HttpResponse::json(200, R"({"draining":true})");
  };

  const auto resume = [this](const Call&) -> Reply {
    dispatcher_->resume();
    return HttpResponse::json(200, R"({"draining":false})");
  };

  // Rolling maintenance: drain (or return to service) one resource.
  const auto resource_draining = [this](bool draining) {
    return [this, draining](const Call& call) -> Reply {
      const std::string& name = call.params.at("name");
      QCENV_RETURN_IF_ERROR(draining ? dispatcher_->drain_resource(name)
                                     : dispatcher_->resume_resource(name));
      Json out = Json::object();
      out["resource"] = name;
      out["draining"] = draining;
      return HttpResponse::json(200, out.dump());
    };
  };

  const auto store_status = [this](const Call&) -> Reply {
    Json out = Json::object();
    out["enabled"] = store_ != nullptr;
    if (store_ != nullptr) {
      // Flatten the toggle into the same object for clients.
      Json detail = store_->status().to_json();
      for (auto& [key, value] : detail.as_object()) out[key] = std::move(value);
    }
    return HttpResponse::json(200, out.dump());
  };

  const auto compact = [need_store](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* store, need_store());
    QCENV_RETURN_IF_ERROR(store->compact());
    Json out = Json::object();
    out["compacted"] = true;
    out["journal_bytes"] = store->journal().size_bytes();
    out["journal_events"] = store->journal().event_count();
    return HttpResponse::json(200, out.dump());
  };

  // ---- federation + hot-standby replication --------------------------------

  // Registered with federation disabled too: peers probing a daemon that
  // has federation off still get a parseable answer instead of a 404 they
  // cannot tell from a dead daemon.
  const auto federation_status = [this, fencing_epoch](const Call&) -> Reply {
    Json out;
    if (federation_ != nullptr) {
      out = federation_->status_json();
    } else {
      out = Json::object();
      out["enabled"] = false;
      out["self"] = options_.federation.self;
      out["role"] = "leader";
      out["epoch"] = static_cast<long long>(fencing_epoch());
      out["queue_depth"] = static_cast<long long>(dispatcher_->queued_total());
      out["peers"] = Json::array();
    }
    out["fleet"] = broker_->summarize().to_json();
    if (store_ != nullptr) {
      Json store_state = Json::object();
      store_state["journal_last_seq"] =
          static_cast<long long>(store_->journal().last_seq());
      out["store"] = std::move(store_state);
    }
    return HttpResponse::json(200, out.dump());
  };

  const auto promote = [need_federation](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* router, need_federation());
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t epoch, router->promote());
    Json out = Json::object();
    out["role"] = "leader";
    out["epoch"] = static_cast<long long>(epoch);
    return HttpResponse::json(200, out.dump());
  };

  const auto demote = [need_federation](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* router, need_federation());
    router->demote();
    Json out = Json::object();
    out["role"] = "standby";
    out["epoch"] = static_cast<long long>(router->epoch());
    return HttpResponse::json(200, out.dump());
  };

  // Peer ingress: a forwarded job enters here and walks the exact
  // session/admission/accounting pipeline a direct submission does —
  // under a lazily-created session for the ORIGINAL user, so fair-share
  // and quotas charge the right ledger on this side too.
  const auto peer_submit = [this](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(const Json body, call.body());
    QCENV_ASSIGN_OR_RETURN(const std::string user, body.get_string("user"));
    SubmitHints hints;
    hints.no_forward = true;
    QCENV_ASSIGN_OR_RETURN(quantum::Payload payload,
                           submit_fields(body, hints));
    QCENV_ASSIGN_OR_RETURN(const Session session, ingress_session(user));
    QCENV_ASSIGN_OR_RETURN(const Submitted submitted,
                           submit_as(session, std::move(payload), hints));
    return HttpResponse::json(201, submitted_to_json(submitted).dump());
  };

  // Journal shipping: raw v2 WAL frames above `after`, capped at the
  // durable watermark and `max_bytes`. Framing metadata rides response
  // headers so the body stays exactly the bytes the leader's WAL holds.
  const auto ship_wal = [need_store, fencing_epoch](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* store, need_store());
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t after, call.u64("after", 0));
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t max_bytes,
                           call.u64("max_bytes", 256 * 1024));
    if (max_bytes == 0) {
      return common::err::invalid_argument(
          "max_bytes must be a positive integer");
    }
    QCENV_ASSIGN_OR_RETURN(auto segment,
                           store->journal().read_segment(after, max_bytes));
    HttpResponse response;
    response.headers["Content-Type"] = "application/octet-stream";
    response.headers["X-Replication-First-Seq"] =
        std::to_string(segment.first_seq);
    response.headers["X-Replication-End-Seq"] = std::to_string(segment.end_seq);
    response.headers["X-Replication-Durable-Seq"] =
        std::to_string(segment.durable_seq);
    response.headers["X-Replication-Snapshot-Needed"] =
        segment.snapshot_needed ? "1" : "0";
    response.headers["X-Replication-Epoch"] = std::to_string(fencing_epoch());
    response.body = std::move(segment.bytes);
    return response;
  };

  const auto ship_snapshot = [need_store, fencing_epoch](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* store, need_store());
    std::ifstream in(store->snapshot_path(), std::ios::binary);
    if (!in.is_open()) {
      return common::err::not_found("no snapshot has been written yet");
    }
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    // Parse the bytes we are about to ship (not the file again —
    // compaction may swap it underneath) for the resume watermark.
    QCENV_ASSIGN_OR_RETURN(const Json parsed, Json::parse(bytes));
    QCENV_ASSIGN_OR_RETURN(const auto snapshot,
                           store::StoreSnapshot::from_json(parsed));
    const std::uint64_t watermark =
        std::min(snapshot.jobs_seq, snapshot.sessions_seq);
    HttpResponse response;
    response.headers["Content-Type"] = "application/json";
    response.headers["X-Replication-Watermark"] = std::to_string(watermark);
    response.headers["X-Replication-Epoch"] = std::to_string(fencing_epoch());
    response.body = std::move(bytes);
    return response;
  };

  // ---- device: calibration, QA, low-level control ---------------------------

  const auto recalibrate = [need_device](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* device, need_device());
    device->recalibrate();
    Json out = Json::object();
    out["recalibrated"] = true;
    out["fidelity"] = device->spec().calibration.fidelity_estimate();
    return HttpResponse::json(200, out.dump());
  };

  const auto qa_check = [need_device](const Call&) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* device, need_device());
    QCENV_ASSIGN_OR_RETURN(const double quality, device->run_qa_check());
    Json out = Json::object();
    out["qa_quality"] = quality;
    return HttpResponse::json(200, out.dump());
  };

  // Low-level control with safeguards (§2.5): bounded shot-rate override.
  const auto shot_rate = [this, need_device](const Call& call) -> Reply {
    QCENV_ASSIGN_OR_RETURN(auto* device, need_device());
    QCENV_ASSIGN_OR_RETURN(const Json body, call.body());
    QCENV_ASSIGN_OR_RETURN(const double value, body.get_double("value"));
    if (value < options_.min_shot_rate_hz ||
        value > options_.max_shot_rate_hz) {
      return common::err::invalid_argument(common::format(
          "shot rate %.3f Hz outside the safeguarded range [%.3f, %.3f]",
          value, options_.min_shot_rate_hz, options_.max_shot_rate_hz));
    }
    QCENV_RETURN_IF_ERROR(device->set_shot_rate(value));
    Json out = Json::object();
    out["shot_rate_hz"] = value;
    return HttpResponse::json(200, out.dump());
  };

  // ---- the route table (keep daemon.hpp's route list in sync) -------------
  struct Route {
    const char* method;
    const char* pattern;
    Access access;
    std::function<Reply(const Call&)> handler;
  };
  Route routes[] = {
      {"POST", "/v1/sessions", Access::kPublic, open_session_route},
      {"DELETE", "/v1/sessions", Access::kSession, close_session_route},
      {"GET", "/v1/device", Access::kPublic, device_spec},
      {"GET", "/v1/resources", Access::kPublic, resources},
      {"POST", "/v1/jobs", Access::kSession, submit},
      {"GET", "/v1/jobs", Access::kSession, list_jobs},
      {"GET", "/v1/jobs/:id", Access::kOwnedJob, job_status},
      {"GET", "/v1/jobs/:id/trace", Access::kOwnedJob, job_trace},
      {"GET", "/v1/jobs/:id/eta", Access::kOwnedJob, job_eta},
      {"GET", "/v1/jobs/:id/explain", Access::kOwnedJob, job_explain},
      {"GET", "/v1/jobs/:id/result", Access::kOwnedJob, job_result},
      {"DELETE", "/v1/jobs/:id", Access::kOwnedJob, cancel_job},
      {"GET", "/v1/queue", Access::kPublic, queue},
      {"GET", "/v1/usage", Access::kSession, usage},
      {"GET", "/metrics", Access::kPublic, prometheus},
      {"GET", "/admin/status", Access::kAdmin, admin_status},
      {"GET", "/admin/events", Access::kAdmin, event_tail},
      {"GET", "/admin/tsdb/query", Access::kAdmin, tsdb_query},
      {"GET", "/admin/tsdb/export", Access::kAdmin, tsdb_export},
      {"GET", "/admin/alerts", Access::kAdmin, alerts},
      {"GET", "/admin/slo", Access::kAdmin, slo},
      {"GET", "/admin/profile", Access::kAdmin, profile},
      {"POST", "/admin/profile/baseline", Access::kAdmin, baseline},
      {"POST", "/admin/debug/dump", Access::kAdmin, flight_dump},
      {"GET", "/admin/sessions", Access::kAdmin, list_sessions},
      {"POST", "/admin/expire_sessions", Access::kAdmin, expire_sessions},
      {"GET", "/admin/fairshare", Access::kAdmin, fairshare},
      {"POST", "/admin/quotas/:user", Access::kAdmin, set_quota},
      {"POST", "/admin/drain", Access::kAdmin, drain},
      {"POST", "/admin/resume", Access::kAdmin, resume},
      {"POST", "/admin/resources/:name/drain", Access::kAdmin,
       resource_draining(true)},
      {"POST", "/admin/resources/:name/resume", Access::kAdmin,
       resource_draining(false)},
      {"GET", "/admin/store", Access::kAdmin, store_status},
      {"POST", "/admin/store/compact", Access::kAdmin, compact},
      {"POST", "/admin/recalibrate", Access::kAdmin, recalibrate},
      {"POST", "/admin/qa", Access::kAdmin, qa_check},
      {"POST", "/admin/lowlevel/shot_rate", Access::kAdmin, shot_rate},
      {"GET", "/admin/federation", Access::kAdmin, federation_status},
      {"POST", "/admin/federation/promote", Access::kAdmin, promote},
      {"POST", "/admin/federation/demote", Access::kAdmin, demote},
      {"POST", "/admin/federation/submit", Access::kAdmin, peer_submit},
      {"GET", "/admin/replication/wal", Access::kAdmin, ship_wal},
      {"GET", "/admin/replication/snapshot", Access::kAdmin, ship_snapshot},
  };

  // Every route's gatekeeping, done once here before its handler runs: the
  // admin key, or the session token; for owned-job routes also a strict
  // `:id` parse, one dispatcher query and the owner check.
  const auto admit = [this](Access access, Call& call) -> Status {
    const net::Headers& headers = call.request.headers;
    if (access == Access::kPublic) return {};
    if (access == Access::kAdmin) {
      const auto key = headers.find("X-Admin-Key");
      if (key == headers.end() || key->second != options_.admin_key) {
        return common::err::permission_denied("admin key required");
      }
      return {};
    }
    const auto token = headers.find("X-Session-Token");
    if (token == headers.end()) {
      return common::err::permission_denied("missing X-Session-Token header");
    }
    QCENV_ASSIGN_OR_RETURN(call.session, sessions_.authenticate(token->second));
    if (access == Access::kSession) return {};
    QCENV_ASSIGN_OR_RETURN(const std::uint64_t id,
                           common::parse_decimal(call.params.at("id"), "id"));
    QCENV_ASSIGN_OR_RETURN(call.job, dispatcher_->query(id));
    if (call.job.user != call.session.user) {
      return common::err::permission_denied("job belongs to another user");
    }
    return {};
  };
  for (Route& route : routes) {
    server_.router().add(
        route.method, route.pattern,
        [admit, access = route.access, handler = std::move(route.handler)](
            const HttpRequest& request, const PathParams& params) {
          Call call{request, params, {}, {}};
          const Status admitted = admit(access, call);
          Reply reply = admitted.ok() ? handler(call) : admitted.error();
          return reply.ok() ? std::move(reply).value()
                            : error_response(reply.error());
        });
  }
}

}  // namespace qcenv::daemon
