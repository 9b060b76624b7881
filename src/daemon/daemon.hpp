// MiddlewareDaemon: the standalone REST service on the quantum access node
// (Figure 2). Composition root wiring sessions, admission, the resource
// broker, the dispatcher, telemetry and the admin/low-level surface behind
// one HTTP server.
//
// REST surface. Every route is one row of the table in install_routes():
// {method, pattern, access, handler}. Access is public, session
// (X-Session-Token), owned job (a session, and `:id` names one of the
// caller's jobs) or admin (X-Admin-Key). A 401 comes before any 400; a 400
// body names the bad parameter; ids and numeric query values are plain
// non-negative decimals.
//   POST   /v1/sessions               {user, class}        -> session+token
//   DELETE /v1/sessions               (session)            -> close session
//   GET    /v1/device                                      -> device spec
//   GET    /v1/resources                                   -> fleet status
//   POST   /v1/jobs                   (session) {payload, partition?,
//                                      resource?, policy?} -> {job_id}
//   GET    /v1/jobs                   (session)            -> caller's jobs
//   GET    /v1/jobs/:id               (owned job)          -> job status
//   GET    /v1/jobs/:id/trace          -> per-stage timeline (span tree)
//   GET    /v1/jobs/:id/eta            -> predicted start/finish window
//                                         (also embedded in submit 201s)
//   GET    /v1/jobs/:id/explain        -> wait decomposed into causes
//   GET    /v1/jobs/:id/result                              -> samples
//   DELETE /v1/jobs/:id                                     -> cancel
//   GET    /v1/queue                  -> depths/order/lanes/per-user counts
//   GET    /v1/usage                  (session) -> caller's decayed usage,
//                                        share, fair-share priority, limits
//   GET    /metrics                                         -> Prometheus
// Admin routes:
//   GET    /admin/status
//   GET    /admin/events?since=N&max=M&severity=&kind=  (event tail)
//   GET    /admin/tsdb/query?series=&start=&end=&window=&agg=  (TSDB range
//                                       query + windowed aggregation)
//   GET    /admin/tsdb/export?series=   (InfluxDB line protocol)
//   GET    /admin/alerts                (active + recent alert records)
//   GET    /admin/slo                   (per-tenant burn-rate readout)
//   GET    /admin/profile?window=&threshold=  (critical-path profile:
//                                       collapsed stacks per resource/
//                                       tenant + baseline regressions)
//   POST   /admin/profile/baseline?window=  (record regression baseline)
//   POST   /admin/debug/dump            (flight-recorder forensics dump)
//   GET    /admin/sessions
//   POST   /admin/expire_sessions      (reap idle sessions + their jobs)
//   GET    /admin/fairshare            (accounts/users: shares vs usage)
//   POST   /admin/quotas/:user         {shares?, account?, submit_per_sec?,
//                                       submit_burst?, max_inflight_shots?,
//                                       max_pending_jobs?}
//   POST   /admin/drain | /admin/resume
//   POST   /admin/resources/:name/drain | .../resume  (rolling maintenance)
//   GET    /admin/store                    (journal/snapshot/replay stats)
//   POST   /admin/store/compact
//   POST   /admin/recalibrate
//   POST   /admin/qa
//   POST   /admin/lowlevel/shot_rate  {value}   (safeguarded bounds)
//   GET    /admin/federation           (role/epoch/queue + fleet summary
//                                       + last polled peer views)
//   POST   /admin/federation/promote | /admin/federation/demote
//   POST   /admin/federation/submit   {user, partition?, payload}
//                                      (peer ingress for forwarded jobs)
//   GET    /admin/replication/wal?after=N&max_bytes=M  (raw v2 WAL
//                                       segment; X-Replication-* headers)
//   GET    /admin/replication/snapshot  (snapshot.json + watermark header)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accounting/accounting.hpp"
#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "daemon/admission.hpp"
#include "daemon/dispatcher.hpp"
#include "daemon/eta.hpp"
#include "daemon/observability.hpp"
#include "daemon/sessions.hpp"
#include "federation/federation.hpp"
#include "net/http_server.hpp"
#include "qpu/qpu_device.hpp"
#include "qrmi/qrmi.hpp"
#include "qrmi/registry.hpp"
#include "store/state_store.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace qcenv::daemon {

/// Tracing and structured-event knobs. Tracing is on by default: the
/// per-span cost is O(1) under a sharded lock and the submit bench gates
/// the overhead at 5%, so there is no reason to fly blind.
struct TelemetryOptions {
  bool tracing = true;
  /// Retained traces (ring per shard; oldest evicted on overflow).
  std::size_t trace_capacity = 4096;
  std::size_t trace_shards = 64;
  /// Retained structured events for `GET /admin/events` tailing.
  std::size_t event_capacity = 4096;
  /// Completed jobs slower than this emit a `slow_job` event with their
  /// trace id, so operators can jump straight from the log line to the
  /// per-stage timeline. 0 disables.
  common::DurationNs slow_job_threshold = 0;
  /// Live metrics pipeline: TSDB scrape loop, SLO burn-rate + drift
  /// alerting, crash-forensics flight recorder (see observability.hpp).
  ObservabilityOptions observability;
  /// Queue ETA / explainability knobs (see eta.hpp).
  EtaOptions eta;
  /// Terminal-job traces retained by the critical-path profiler.
  std::size_t profile_capacity = 4096;
};

struct DaemonOptions {
  std::uint16_t port = 0;  // 0 = ephemeral
  std::string admin_key = "admin-key";
  QueuePolicy queue_policy;
  /// Fleet behaviour: default placement policy, probe cadence, backoff.
  broker::BrokerOptions broker;
  AdmissionPolicy admission;
  /// Multi-tenant accounting: usage decay half-life, account/user shares
  /// and default rate limits. Fair-share ordering engages automatically
  /// once users accumulate usage; defaults keep single-tenant behaviour.
  accounting::AccountingOptions accounting;
  SessionManagerOptions sessions;
  /// Slurm partition -> job class ("the daemon retrieves the job's priority
  /// from Slurm", §3.3): submissions may carry their partition name.
  std::map<std::string, JobClass> partition_class = {
      {"production", JobClass::kProduction},
      {"test", JobClass::kTest},
      {"dev", JobClass::kDevelopment},
  };
  /// Low-level control safeguards.
  double min_shot_rate_hz = 0.1;
  double max_shot_rate_hz = 1000.0;
  /// Durable state store. An empty `store.data_dir` (the default) keeps
  /// today's purely in-memory behaviour; with a data-dir the daemon
  /// journals every job/session event and recovers them all on restart.
  store::StoreOptions store;
  /// Tracing + structured events (see TelemetryOptions).
  TelemetryOptions telemetry;
  /// Broker-of-brokers: peers, poll cadence, forward threshold (see
  /// federation/federation.hpp). Disabled by default — a lone daemon
  /// pays nothing for the subsystem existing.
  federation::FederationOptions federation;
};

class MiddlewareDaemon {
 public:
  /// Multi-resource daemon: every resource of `fleet` becomes a broker
  /// member with its own dispatch lane. The first registered resource is
  /// the "primary" whose device spec backs `GET /v1/device` and admission
  /// checks (per-resource specs are on `GET /v1/resources`). `device` is
  /// optional and enables the admin/low-level endpoints that act on the
  /// physical device; pass nullptr when fronting emulators.
  MiddlewareDaemon(DaemonOptions options, const qrmi::ResourceRegistry& fleet,
                   qpu::QpuDevice* device, common::Clock* clock);
  /// Single-resource convenience (a fleet of one).
  MiddlewareDaemon(DaemonOptions options, qrmi::QrmiPtr resource,
                   qpu::QpuDevice* device, common::Clock* clock);
  ~MiddlewareDaemon();

  common::Result<std::uint16_t> start();
  void stop();
  std::uint16_t port() const noexcept { return server_.port(); }

  SessionManager& sessions() noexcept { return sessions_; }
  Dispatcher& dispatcher() noexcept { return *dispatcher_; }
  accounting::AccountingManager& accounting() noexcept {
    return accounting_;
  }
  broker::ResourceBroker& broker() noexcept { return *broker_; }
  telemetry::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// Job trace store; nullptr when tracing is disabled.
  telemetry::TraceStore* traces() noexcept { return traces_.get(); }
  telemetry::EventLog& events() noexcept { return events_; }
  const DaemonOptions& options() const noexcept { return options_; }
  /// Durable store; nullptr when running purely in memory.
  store::StateStore* state_store() noexcept { return store_.get(); }
  /// Live metrics pipeline; nullptr when observability is disabled.
  ObservabilityPipeline* observability() noexcept {
    return observability_.get();
  }
  /// Queue ETA / wait-explainability engine (always available).
  EtaEngine& eta() noexcept { return *eta_; }
  /// Critical-path profiles of terminal jobs (fed when tracing is on).
  telemetry::CriticalPathProfiler& profiler() noexcept { return profiler_; }
  /// Federation router; nullptr when federation is disabled.
  federation::FederationRouter* federation() noexcept {
    return federation_.get();
  }

  /// Resolves a job class from an explicit partition name or session
  /// default.
  JobClass resolve_class(const std::string& partition,
                         JobClass session_default) const;

  // ---- programmatic surface ------------------------------------------------
  // The REST routes parse JSON and delegate to these (past the session
  // lookup the route table already did), and the simtest harness calls
  // them directly — so every simulated submission walks the
  // exact session/admission/accounting/rollback pipeline production
  // requests do, without an HTTP round-trip per simulated event.

  /// POST /v1/sessions: creates (and journals) a session.
  common::Result<Session> open_session(const std::string& user,
                                       JobClass cls);
  /// DELETE /v1/sessions: closes the session, cancels its queued jobs.
  /// Returns how many jobs were cancelled.
  common::Result<std::size_t> close_session(const std::string& token);

  /// Optional placement/class preferences of one submission (the REST
  /// `partition`/`resource`/`policy` body fields).
  struct SubmitHints {
    std::string partition;
    std::string resource;
    std::optional<broker::SchedulingPolicy> policy;
    /// Set on the peer-ingress path (/admin/federation/submit): a job a
    /// peer already routed here must not bounce to a third daemon, or
    /// two saturated daemons would ping-pong it forever.
    bool no_forward = false;
  };
  /// What a successful submission settled on (the 201 response body).
  struct Submitted {
    std::uint64_t id = 0;
    JobClass job_class = JobClass::kDevelopment;
    /// Initial placement; empty while no healthy resource could take it.
    std::string resource;
    /// Peer this submission was routed to; empty for local placements.
    /// When set, `id` is the job's id AT THAT PEER.
    std::string forwarded_to;
  };
  /// POST /v1/jobs: authenticates, validates against the target device
  /// spec, applies admission + per-user rate limits (reservations are
  /// rolled back if anything downstream fails) and enqueues the payload.
  /// When tracing is on, `trace_out` (if non-null) receives the trace id
  /// even for rejected submissions, so 429/500/503 responses can point at
  /// the timeline that explains them.
  common::Result<Submitted> submit_job(const std::string& token,
                                       quantum::Payload payload,
                                       const SubmitHints& hints,
                                       telemetry::TraceId* trace_out =
                                           nullptr);
  /// Hint-less convenience (an overload, not a default argument: default
  /// arguments are not complete-class context, so `= {}` cannot see the
  /// nested aggregate's member initializers).
  common::Result<Submitted> submit_job(const std::string& token,
                                       quantum::Payload payload) {
    return submit_job(token, std::move(payload), SubmitHints{});
  }

 private:
  void install_routes();
  /// Opens the store, replays it, and seeds the session manager. Returns
  /// the jobs to hand to the dispatcher once it exists.
  std::vector<store::JobRecord> open_store(std::uint64_t& next_job_id);
  /// Compaction callback: full durable image of sessions + jobs.
  store::StoreSnapshot build_snapshot();
  /// Shared cleanup when a session goes away (close or idle expiry):
  /// cancels its queued jobs and journals the closure.
  std::size_t session_removed(const Session& session);
  /// Session backing forwarded submissions from `user` via the peer
  /// ingress; created lazily, reused while it stays valid.
  common::Result<Session> ingress_session(const std::string& user);
  /// close_session and submit_job for a caller the REST route has already
  /// authenticated: one session lookup per request, not two.
  common::Result<std::size_t> end_session(const Session& session);
  common::Result<Submitted> submit_as(const Session& session,
                                      quantum::Payload payload,
                                      const SubmitHints& hints,
                                      telemetry::TraceId* trace_out =
                                          nullptr);

  DaemonOptions options_;
  qpu::QpuDevice* device_;
  common::Clock* clock_;
  telemetry::MetricsRegistry metrics_;
  // Traces/events must outlive the dispatcher and the store (both record
  // into them from their worker threads).
  std::unique_ptr<telemetry::TraceStore> traces_;
  telemetry::EventLog events_;
  // Must outlive the dispatcher: its lanes fold terminal traces in.
  telemetry::CriticalPathProfiler profiler_;
  SessionManager sessions_;
  AdmissionController admission_;
  // Must outlive the dispatcher: its lanes charge the ledger.
  accounting::AccountingManager accounting_;
  std::shared_ptr<broker::ResourceBroker> broker_;
  qrmi::QrmiPtr primary_;  // first fleet member; backs /v1/device
  // Must outlive the store AND the dispatcher: the journal writer and the
  // dispatch lanes beat the flight recorder's watchdog from their threads.
  // Constructed in the ctor body once both exist; its samplers only run
  // from ticks, which stop() halts before any member is torn down.
  std::unique_ptr<ObservabilityPipeline> observability_;
  // The store must outlive the dispatcher (its lanes journal events);
  // the daemon stops the store's compaction thread before tearing the
  // dispatcher down (see stop()).
  std::unique_ptr<store::StateStore> store_;
  std::unique_ptr<Dispatcher> dispatcher_;
  // Stateless view over dispatcher/broker/accounting/events/TSDB;
  // constructed after all of them, destroyed first.
  std::unique_ptr<EtaEngine> eta_;
  // Reads dispatcher + broker through its status callback, so it must be
  // torn down before either (reverse declaration order handles it).
  std::unique_ptr<federation::FederationRouter> federation_;
  // Sessions backing the peer ingress, keyed by user.
  std::mutex ingress_mutex_;
  std::map<std::string, std::string> ingress_tokens_;
  net::HttpServer server_;
};

}  // namespace qcenv::daemon
