// Live dispatcher: drives sharded PriorityQueueCores against a fleet of
// QRMI resources managed by a ResourceBroker.
//
// The submit path is sharded per tenant: a user hashes onto one of N
// shards, each with its own mutex, queue core, record table and per-user
// pending counts, so concurrent tenants stop contending on one lock. Job
// ids and FIFO sequence numbers come from ONE global atomic allocator,
// and dispatch runs a tournament — each lane peeks every shard's best
// eligible head under that shard's lock, then takes the global winner
// using the queue core's exact comparator — so the dispatch order is
// bit-identical to what a single shared queue would produce (fair-share
// convergence and class-priority semantics are shard-count-invariant).
// Any lane can win any shard's jobs: that IS the work stealing.
//
// One worker lane per resource pulls batches this way, slices the job's
// payload to the batch shot count, executes it synchronously through
// QRMI, merges samples into the job record and re-queues remainders.
// This is the daemon's "second level of scheduling logic that allows
// multiple users to share the QPU" (§3.3), extended to multi-resource
// dispatch: jobs are placed on a resource by the broker's scheduling
// policy, lanes drain the shards concurrently, and when a resource fails
// its in-flight batch and queued jobs fail over to healthy resources
// with no shots lost.
//
// Lock order: shard mutexes in index order (when more than one is
// needed: snapshot/restore/GC), then dispatch_mutex_ (a leaf — its
// waiters' predicate reads only atomics, never shard state).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "accounting/accounting.hpp"
#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "daemon/queue_core.hpp"
#include "qrmi/qrmi.hpp"
#include "store/state_store.hpp"
#include "telemetry/events.hpp"
#include "telemetry/explain.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace qcenv::daemon {

enum class DaemonJobState {
  kQueued,
  kRunning,
  kCompleted,
  kFailed,
  kCancelled,
};

const char* to_string(DaemonJobState state) noexcept;

struct DaemonJob {
  std::uint64_t id = 0;
  common::SessionId session;
  std::string user;
  JobClass job_class = JobClass::kDevelopment;
  DaemonJobState state = DaemonJobState::kQueued;
  std::uint64_t total_shots = 0;
  std::uint64_t shots_done = 0;
  common::TimeNs submit_time = 0;
  common::TimeNs first_dispatch_time = 0;
  common::TimeNs finish_time = 0;
  /// Fleet resource the job is currently placed on. Empty while no healthy
  /// resource can take it; updated when failover moves the job.
  std::string resource;
  std::string error;
  /// Trace correlating this job's pipeline spans (0 = not traced).
  telemetry::TraceId trace_id = 0;
};

class Dispatcher {
 public:
  /// Per-job placement preferences (the REST `resource`/`policy` hints).
  struct SubmitOptions {
    /// Pin the initial placement to this fleet resource. Submission fails
    /// if it is unknown, unhealthy or draining. Failover may still move the
    /// job if the resource dies afterwards.
    std::string resource;
    /// Placement policy override for this job (initial pick and failover
    /// repicks); nullopt uses the broker default.
    std::optional<broker::SchedulingPolicy> policy;
    /// Per-user queued-job ceiling enforced ATOMICALLY under the queue
    /// lock (0 = none). The admission boundary pre-checks the same limit
    /// for a friendly early error, but only this check cannot be raced by
    /// concurrent submissions of the same user.
    std::size_t user_pending_limit = 0;
    /// Trace id allocated by the caller (TraceStore::allocate); the
    /// dispatcher threads it through journal_append/queue_wait/dispatch
    /// spans. 0 disables tracing for this job.
    telemetry::TraceId trace_id = 0;
    /// When the caller's admission span began (its clock reading at
    /// trace allocation); < 0 falls back to the dispatcher submit time.
    common::TimeNs trace_start = -1;
  };

  /// Multi-resource dispatcher: one worker lane per resource registered in
  /// `broker` at construction time. `store` (optional, must outlive the
  /// dispatcher) receives a journal event for every job state change.
  /// `accounting` (optional, must outlive the dispatcher) is charged for
  /// every executed batch and plugs fair-share ordering into the queue
  /// core: within a class, the most under-served user's jobs go first.
  /// `traces`/`events` (optional, must outlive the dispatcher) receive
  /// per-job pipeline spans and operator events; nullptr disables tracing
  /// with zero hot-path cost.
  Dispatcher(std::shared_ptr<broker::ResourceBroker> broker,
             QueuePolicy policy, common::Clock* clock,
             telemetry::MetricsRegistry* metrics,
             store::StateStore* store = nullptr,
             accounting::AccountingManager* accounting = nullptr,
             telemetry::TraceStore* traces = nullptr,
             telemetry::EventLog* events = nullptr);
  /// Single-resource convenience: wraps `resource` in a one-member fleet
  /// (named after its resource_id).
  Dispatcher(qrmi::QrmiPtr resource, QueuePolicy policy,
             common::Clock* clock, telemetry::MetricsRegistry* metrics,
             store::StateStore* store = nullptr,
             accounting::AccountingManager* accounting = nullptr,
             telemetry::TraceStore* traces = nullptr,
             telemetry::EventLog* events = nullptr);
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Enqueues a validated payload; returns the daemon job id.
  std::uint64_t submit(common::SessionId session, const std::string& user,
                       JobClass cls, quantum::Payload payload);
  /// Same with placement preferences; fails on an unusable resource pin.
  common::Result<std::uint64_t> submit(common::SessionId session,
                                       const std::string& user, JobClass cls,
                                       quantum::Payload payload,
                                       const SubmitOptions& options);
  /// Zero-copy submission: the job shares `payload` with the caller (and
  /// with every other job submitted from the same pointer) instead of
  /// deep-copying its program body. This is the hot-path shape for
  /// parameter sweeps — one program object, thousands of submissions —
  /// and lets the journal reuse one payload fingerprint across the run.
  /// The payload must not be mutated after submission (enforced by const).
  common::Result<std::uint64_t> submit(
      common::SessionId session, const std::string& user, JobClass cls,
      std::shared_ptr<const quantum::Payload> payload,
      const SubmitOptions& options);

  common::Result<DaemonJob> query(std::uint64_t job_id) const;
  /// The job's span timeline. Materializes the deferred submit-side spans
  /// on demand, so mid-flight jobs (still queued, never claimed) have a
  /// readable trace too. Errors: not_found for unknown/untraced jobs or
  /// an evicted trace.
  common::Result<telemetry::JobTrace> trace(std::uint64_t job_id);
  /// Samples of a completed job.
  common::Result<quantum::Samples> result(std::uint64_t job_id) const;
  /// Blocks until the job reaches a terminal state.
  common::Result<quantum::Samples> wait(std::uint64_t job_id);
  /// Same with a deadline: errs with kTimeout once `timeout` elapses, so
  /// clients and tests cannot block forever on a wedged resource. Negative
  /// timeout blocks indefinitely.
  common::Result<quantum::Samples> wait(std::uint64_t job_id,
                                        common::DurationNs timeout);
  common::Status cancel(std::uint64_t job_id);

  /// Cancels every non-terminal job of `session` (queued jobs immediately,
  /// running jobs at the next batch boundary). Used when a session is
  /// closed or expires so its work does not linger in the queue as an
  /// orphan. Returns how many jobs were affected.
  std::size_t cancel_for_session(common::SessionId session);

  /// Re-installs jobs recovered from the durable store (must run before
  /// any new submission): terminal jobs re-serve their stored samples,
  /// non-terminal jobs re-enter the queue with exactly their un-executed
  /// shots. `next_job_id` floors the id allocator so recovered ids are
  /// never reused.
  void restore(const std::vector<store::JobRecord>& jobs,
               std::uint64_t next_job_id);

  /// Full durable image of the dispatcher's state for compaction. Reads
  /// the journal watermark before copying records (both under the queue
  /// lock, where every job event is appended), so the snapshot's jobs_seq
  /// is exact.
  store::StoreSnapshot durable_snapshot() const;

  /// How long an idle lane sleeps between queue checks (default 20 ms).
  /// Submissions and failovers wake lanes immediately; the tick only
  /// bounds how fast a lane notices its resource recovering. The simtest
  /// harness shrinks it so flap-recovery scenarios spend no real time
  /// waiting. Takes effect on each lane's next wait.
  void set_idle_tick(common::DurationNs tick);

  /// Admin: pause/resume batch dispatch globally (maintenance windows).
  /// No batch starts after drain() returns: a batch dispatched before it
  /// runs to completion, and a lane re-checks the flag under the winning
  /// shard's lock before it takes a batch.
  void drain();
  void resume();
  bool draining() const noexcept { return draining_.load(); }

  /// Admin: drain one fleet resource — stop placing work on it and move its
  /// queued jobs to healthy peers (rolling maintenance).
  common::Status drain_resource(const std::string& name);
  common::Status resume_resource(const std::string& name);

  broker::ResourceBroker& broker() noexcept { return *broker_; }
  const broker::ResourceBroker& broker() const noexcept { return *broker_; }

  std::map<JobClass, std::size_t> queue_depths() const;
  /// Jobs currently queued across all shards — one relaxed atomic load,
  /// for the admission boundary's depth limit on the submit hot path
  /// (queue_depths() walks every shard and is for status endpoints).
  std::size_t queued_total() const noexcept {
    return total_queued_.load(std::memory_order_relaxed);
  }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::vector<DaemonJob> jobs_snapshot() const;
  /// Pending ids in global dispatch order (pending_snapshot's ids).
  std::vector<std::uint64_t> queue_order() const;

  /// Every pending job's ordering keys plus the record fields the ETA
  /// engine and GET /v1/queue need, in global dispatch order: a k-way
  /// merge of each shard's sorted heads with the tournament's comparator,
  /// with one `now` and one fair-share table for the whole pass so
  /// rank/hook snapshots are mutually consistent.
  struct PendingView {
    std::uint64_t job_id = 0;
    std::string user;
    JobClass cls = JobClass::kDevelopment;
    int rank = 0;           // effective class rank after aging
    bool has_hook = false;  // fair-share hook installed
    double hook = 0.0;      // fair-share priority factor (higher first)
    std::uint64_t remaining_shots = 0;
    std::string resource;  // current placement ("" = unplaced)
    bool pinned = false;
    common::TimeNs submit_time = 0;
  };
  struct PendingSnapshot {
    common::TimeNs now = 0;
    std::vector<PendingView> entries;  // global dispatch order
  };
  PendingSnapshot pending_snapshot() const;

  /// Per-resource view of the queue for GET /v1/queue: how many jobs are
  /// queued on / running on each dispatch lane. Jobs awaiting any healthy
  /// resource appear under "(unplaced)".
  struct LaneDepth {
    std::size_t queued = 0;
    std::size_t running = 0;
  };
  std::map<std::string, LaneDepth> lane_depths() const;

  /// Queued (not yet running) jobs per user, for the admission boundary's
  /// per-user depth limit and the /v1/queue per-tenant view.
  std::map<std::string, std::size_t> user_pending_counts() const;
  std::size_t pending_for_user(const std::string& user) const;

  /// Terminal-job GC: completed/failed/cancelled records older than
  /// `retention` (or beyond the newest `cap`, LRU by finish time) are
  /// dropped so records_ stops growing with uptime. 0 disables either
  /// bound. The sweep runs on every submit; sweep_terminal() forces one.
  void set_terminal_retention(common::DurationNs retention, std::size_t cap);
  std::size_t sweep_terminal();

  /// Completed jobs whose submit→finish latency exceeds `threshold` emit a
  /// warn-severity "slow_job" event (0 disables, the default).
  void set_slow_job_threshold(common::DurationNs threshold) {
    slow_job_threshold_.store(threshold, std::memory_order_relaxed);
  }

  // ---- per-tenant SLO signals (scrape-loop samplers) ---------------------
  // Counters ride the shard mutex the submit/finish paths already hold, so
  // the hot path pays a map increment, never a new lock.

  /// Cumulative per-user SLO counters since process start.
  struct UserSlo {
    std::uint64_t submitted = 0;     // jobs accepted into the queue
    std::uint64_t completed = 0;     // jobs reaching kCompleted
    std::uint64_t latency_over = 0;  // completions over the latency SLO
  };
  std::map<std::string, UserSlo> slo_counts() const;

  /// Completion-latency SLO threshold used by the latency_over counter
  /// (0 disables counting, the default).
  void set_latency_slo(common::DurationNs threshold) {
    latency_slo_.store(threshold, std::memory_order_relaxed);
  }

  /// Instantaneous queue-wait split: currently queued jobs per user whose
  /// age (now - submit) is within / over `threshold`. The scrape loop
  /// samples this once per deadline — the ratio-of-breaching-samples form
  /// of a queue-wait percentile SLO.
  struct QueueWaitSplit {
    std::size_t within = 0;
    std::size_t over = 0;
  };
  std::map<std::string, QueueWaitSplit> queue_wait_split(
      common::TimeNs now, common::DurationNs threshold) const;

  /// Watchdog: invoked with the lane name on every lane-loop iteration
  /// (flight-recorder heartbeats). Must not call back into the dispatcher.
  void set_lane_heartbeat(std::function<void(const std::string&)> heartbeat);

  /// Critical-path sink: every terminal job's finished trace is collapsed
  /// into `profiler` (requires tracing). Set once right after
  /// construction, before any job can reach a terminal state; the
  /// profiler must outlive the dispatcher.
  void set_profiler(telemetry::CriticalPathProfiler* profiler) {
    profiler_ = profiler;
  }

 private:
  struct Record {
    DaemonJob job;
    /// Shared and immutable: lanes copy it per batch slice, and the store's
    /// journal writer serializes it off-thread without a deep copy.
    std::shared_ptr<const quantum::Payload> payload;
    /// Memoized store::payload_fingerprint(*payload), 0 = not yet
    /// computed. Shared with snapshot staging, which fills it outside the
    /// queue lock — without the memo every compaction re-hashes every
    /// payload body ever submitted.
    std::shared_ptr<std::atomic<std::uint64_t>> payload_fp =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    quantum::Samples samples;
    bool cancel_requested = false;
    bool pinned = false;  // submitted with an explicit resource hint
    std::optional<broker::SchedulingPolicy> policy_hint;
    std::uint32_t failovers = 0;  // batches returned by resource failures
    /// Deferred-tracing scalars: the submit hot path records only these
    /// two timestamps (plus the histogram observations); the trace's
    /// actual spans are materialized off the admission-limited path by
    /// materialize_trace_locked — at first claim, finish, or read.
    common::TimeNs admission_start = -1;
    common::TimeNs queue_start = -1;
    std::uint32_t shard_index = 0;
    bool trace_materialized = false;
  };

  /// Fair-share priority per user, as AccountingManager::priorities
  /// returns it.
  using FairShareTable = std::map<std::string, double>;
  /// What a shard's priority hook reads: the table of the ordering pass
  /// that holds the shard's lock. A pass (one tournament, one pending
  /// snapshot) computes the table at most once, at its `now`, and hands
  /// the same read-only table to every shard it visits.
  struct FairShareMemo {
    common::TimeNs now = -1;
    std::shared_ptr<const FairShareTable> table;
    /// Users outside the table (no usage or grant yet), priced on first
    /// sight in this pass; users never span shards, so once per pass.
    std::map<std::string, double> others;
  };

  /// One submit shard: a tenant's entire dispatcher-side state lives in
  /// exactly one shard (hash of the user name), so the submit hot path
  /// takes one shard mutex and touches nothing global but atomics.
  struct Shard {
    mutable std::mutex mutex;
    /// Wakes wait(job_id) callers; notified on terminal transitions.
    std::condition_variable cv;
    PriorityQueueCore core;
    std::map<std::uint64_t, Record> records;
    /// Non-terminal job ids: keeps per-lane queue reporting O(live jobs)
    /// while records retains every terminal job for result serving.
    std::unordered_set<std::uint64_t> active;
    /// Terminal job ids in finish order (oldest first) — the GC's LRU.
    std::deque<std::uint64_t> terminal_order;
    /// Jobs in state kQueued per user — O(1) admission pre-checks
    /// instead of an O(active jobs) scan under a global lock.
    std::map<std::string, std::size_t> user_pending;
    /// Per-user SLO counters (see UserSlo); bumped under this mutex on
    /// submit and terminal transitions.
    std::map<std::string, UserSlo> user_slo;
    FairShareMemo fair_share;
  };

  enum class DispatchOutcome {
    kDispatched,  // ran (or terminally resolved) a batch — rescan now
    kRetry,       // lost a benign race (head taken/cancelled) — rescan now
    kIdle,        // nothing eligible — wait for work or the idle tick
  };

  void lane_loop(const std::stop_token& stop, const std::string& lane);
  /// One tournament + at most one batch execution for `lane`.
  DispatchOutcome dispatch_one(const std::string& lane,
                               const qrmi::QrmiPtr& resource);
  void start_lanes();
  void install_priority_hook();
  /// Hands `shard`'s priority hook the fair-share table of the ordering
  /// pass at `now` (shard lock held). `pass` starts null; the first shard
  /// with pending jobs computes it (one population traversal) and the
  /// pass's other shards share it. No-op without accounting.
  void install_fair_share(Shard& shard, common::TimeNs now,
                          std::shared_ptr<const FairShareTable>& pass) const;
  Shard& shard_for_user(const std::string& user) const;
  /// Shard holding `job_id` (via the striped index), or nullptr. The
  /// mapping is immutable for a job's lifetime; the stripe lock is
  /// released before any shard lock is taken, so the two never nest.
  Shard* find_shard(std::uint64_t job_id) const;
  void index_insert(std::uint64_t job_id, std::uint32_t shard);
  void index_erase(std::uint64_t job_id);
  /// Shard locks in index order (global views: snapshot, GC, restore).
  std::vector<std::unique_lock<std::mutex>> lock_all_shards() const;
  /// Bumps the dispatch epoch and wakes registered lane waiters. Safe to
  /// call while holding any shard lock (dispatch_mutex_ is a leaf). When
  /// every lane is busy (or parked by a global drain) this is one atomic
  /// load — the submit hot path's common case.
  void wake_lanes();
  /// Unconditional wake, ignoring the waiter count: required for state
  /// flips that end a drain park (resume, stop, idle-tick changes).
  void wake_lanes_all();
  /// Evicts terminal records per the retention/cap policy across all
  /// shards (global LRU merge by finish time); returns eviction count.
  std::size_t sweep_terminal_all(common::TimeNs now);
  /// Moves every non-terminal job placed on `lane` to a healthy resource
  /// (or unplaces it when none is available right now).
  void reassign_from(const std::string& lane);
  /// Caller holds `shard.mutex`.
  void finish_locked(Shard& shard, Record& record, DaemonJobState state,
                     const std::string& error);
  /// Decrements `shard.user_pending[user]`, erasing the entry at zero.
  static void drop_user_pending(Shard& shard, const std::string& user);
  /// Durable image of one record's metadata only — the (expensive)
  /// payload and samples serialization is always done later, by the
  /// journal's deferred serializer or durable_snapshot(), outside the
  /// queue lock.
  store::JobRecord to_record_locked(const Record& record) const;
  /// Builds the job's submit-side spans (admission, journal_append, open
  /// queue_wait) from the scalars the hot path recorded. Idempotent; must
  /// run before any other TraceStore operation on the job's trace. Caller
  /// holds the record's shard mutex.
  void materialize_trace_locked(Record& record);
  /// Feeds the per-stage latency histogram for a span enter()/finish()
  /// just closed; queue_wait series carry the job class (priority tier).
  void observe_stage(const std::string& stage, JobClass cls,
                     const std::string& resource,
                     common::DurationNs duration);

  std::shared_ptr<broker::ResourceBroker> broker_;
  common::Clock* clock_;
  telemetry::MetricsRegistry* metrics_;
  store::StateStore* store_;
  accounting::AccountingManager* accounting_;
  telemetry::TraceStore* traces_;
  telemetry::EventLog* events_;
  telemetry::CriticalPathProfiler* profiler_ = nullptr;
  /// Submit-hot-path metric handles, resolved once: the registry lookup
  /// takes a global mutex and builds a label map, which 64 submitting
  /// threads must not pay per submission.
  telemetry::HistogramMetric* admission_hist_ = nullptr;
  telemetry::HistogramMetric* journal_append_hist_ = nullptr;
  std::array<telemetry::Counter*, 3> submitted_counter_{};
  std::atomic<common::DurationNs> slow_job_threshold_{0};
  std::atomic<common::DurationNs> latency_slo_{0};
  std::mutex heartbeat_mutex_;
  std::function<void(const std::string&)> lane_heartbeat_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// job id -> shard index, striped so concurrent queries of different
  /// jobs do not serialize. Entries are written once (submit/restore)
  /// and erased only by terminal-record GC.
  static constexpr std::size_t kIndexStripes = 16;
  struct IndexStripe {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::uint32_t> shard_of;
  };
  mutable std::array<IndexStripe, kIndexStripes> index_;

  /// Global allocator: job ids double as queue FIFO seqs, so cross-shard
  /// dispatch order equals single-queue order.
  std::atomic<std::uint64_t> next_job_id_{1};
  /// Entries pending across all shard cores (admission depth checks).
  std::atomic<std::size_t> total_queued_{0};
  /// Terminal-GC bookkeeping: count + a lower bound on the oldest
  /// terminal finish time, so the per-submit sweep is one atomic compare
  /// unless something is actually evictable.
  std::atomic<std::size_t> terminal_count_{0};
  std::atomic<common::TimeNs> earliest_terminal_{
      std::numeric_limits<common::TimeNs>::max()};
  std::atomic<common::DurationNs> terminal_retention_{0};
  std::atomic<std::size_t> terminal_cap_{0};

  /// Lanes sleep on dispatch_cv_; the predicate reads ONLY this epoch
  /// (and the stop token), never shard state, keeping dispatch_mutex_ a
  /// leaf in the lock order. Every event that could create dispatchable
  /// work bumps the epoch.
  std::mutex dispatch_mutex_;
  std::condition_variable dispatch_cv_;
  std::atomic<std::uint64_t> dispatch_epoch_{0};
  /// Lanes currently registered on dispatch_cv_ (incremented under
  /// dispatch_mutex_ before the wait predicate runs). Gates the
  /// mutex+notify in wake_lanes(); lanes parked by a global drain stay
  /// unregistered on purpose.
  std::atomic<std::uint32_t> dispatch_waiters_{0};

  std::atomic<bool> draining_{false};
  std::atomic<common::DurationNs> idle_tick_{20 * common::kMillisecond};
  std::vector<std::jthread> lanes_;
};

}  // namespace qcenv::daemon
