// Federation and hot-standby HA: the durable epoch fence, journal
// shipping through File and Http replication sources (mirror equality,
// torn-chunk recovery, snapshot catch-up, partition handling, epoch
// regression), StandbyDaemon promotion — sessions and ledger intact,
// fencing across a mid-promotion crash — and the daemon's federation
// REST surface including broker-of-brokers forwarding between two live
// daemons.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/temp_dir.hpp"
#include "daemon/daemon.hpp"
#include "federation/federation.hpp"
#include "federation/replication.hpp"
#include "federation/standby.hpp"
#include "net/http_client.hpp"
#include "qrmi/local_emulator.hpp"
#include "store/journal.hpp"
#include "store/snapshot.hpp"

namespace qcenv::federation {
namespace {

using common::Json;
using common::ManualClock;
using common::TempDir;

constexpr std::uint64_t kSmallChunks = 96;  // forces multi-pull shipping

quantum::Payload small_payload(std::uint64_t shots = 20) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(200, 2.0),
                               quantum::Waveform::constant(200, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A dead leader's data dir: a fully-durable v2 journal with `events`
/// plain events.
void write_leader_journal(const std::string& dir, std::uint64_t events,
                          common::Clock* clock) {
  store::JournalOptions options;
  options.sync = store::SyncMode::kAlways;
  store::JobJournal journal(options, clock, nullptr);
  ASSERT_TRUE(journal.open(dir + "/journal.log").ok());
  for (std::uint64_t n = 1; n <= events; ++n) {
    Json data = Json::object();
    data["n"] = static_cast<long long>(n);
    journal.append("fed_test", std::move(data));
  }
  ASSERT_TRUE(journal.flush().ok());
}

TEST(EpochFile, AbsentReadsZeroAndRoundTrips) {
  TempDir dir("qcenv-epoch-");
  auto absent = read_epoch(dir.path());
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent.value(), 0u);

  ASSERT_TRUE(write_epoch(dir.path(), 7).ok());
  auto read = read_epoch(dir.path());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 7u);

  // A corrupt epoch file must be an error, not a silent epoch 0 — a
  // standby that trusts a garbage fence could be rolled back.
  std::ofstream(dir.path() + "/epoch", std::ios::trunc) << "not-a-number";
  EXPECT_FALSE(read_epoch(dir.path()).ok());
  // 21 digits overflow uint64: a protocol error, not a thrown exception.
  std::ofstream(dir.path() + "/epoch", std::ios::trunc)
      << "123456789012345678901";
  const auto overflow = read_epoch(dir.path());
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code(), common::ErrorCode::kProtocol);
}

TEST(Replication, MirrorsLeaderJournalByteForByte) {
  ManualClock clock(0, /*auto_advance=*/true);
  TempDir leader("qcenv-fed-leader-");
  TempDir mirror("qcenv-fed-mirror-");
  write_leader_journal(leader.path(), 12, &clock);

  FileReplicationSource source(leader.path());
  StandbyReplicator replicator({mirror.path(), kSmallChunks}, &source,
                               &clock, nullptr, nullptr);
  ASSERT_TRUE(replicator.catch_up().ok());
  EXPECT_EQ(replicator.applied_seq(), 12u);
  EXPECT_EQ(replicator.leader_seq(), 12u);
  EXPECT_EQ(replicator.lag_events(), 0u);
  // Chunked shipping: the small segment cap split the stream.
  EXPECT_GT(replicator.stats().segments, 1u);
  EXPECT_EQ(replicator.stats().frames, 12u);

  // The mirror is the leader's durable prefix, byte for byte.
  EXPECT_EQ(read_raw(mirror.path() + "/journal.log"),
            read_raw(leader.path() + "/journal.log"));
}

TEST(Replication, TornChunkKeepsPrefixAndRerequests) {
  ManualClock clock(0, /*auto_advance=*/true);
  TempDir leader("qcenv-fed-leader-");
  TempDir mirror("qcenv-fed-mirror-");
  write_leader_journal(leader.path(), 10, &clock);

  FileReplicationSource source(leader.path());
  StandbyReplicator replicator({mirror.path(), kSmallChunks}, &source,
                               &clock, nullptr, nullptr);
  source.tear_next_segment();
  ASSERT_TRUE(replicator.catch_up().ok());
  EXPECT_EQ(replicator.applied_seq(), 10u);
  EXPECT_GE(replicator.stats().torn_segments, 1u);
  EXPECT_EQ(read_raw(mirror.path() + "/journal.log"),
            read_raw(leader.path() + "/journal.log"));
}

TEST(Replication, PartitionFailsPullsThenRecovers) {
  ManualClock clock(0, /*auto_advance=*/true);
  TempDir leader("qcenv-fed-leader-");
  TempDir mirror("qcenv-fed-mirror-");
  write_leader_journal(leader.path(), 4, &clock);

  FileReplicationSource source(leader.path());
  StandbyReplicator replicator({mirror.path(), kSmallChunks}, &source,
                               &clock, nullptr, nullptr);
  source.set_partitioned(true);
  EXPECT_FALSE(replicator.poll_once().ok());
  EXPECT_FALSE(replicator.catch_up().ok());
  EXPECT_GE(replicator.stats().fetch_failures, 2u);
  EXPECT_EQ(replicator.applied_seq(), 0u);

  source.set_partitioned(false);
  ASSERT_TRUE(replicator.catch_up().ok());
  EXPECT_EQ(replicator.applied_seq(), 4u);
}

TEST(Replication, SnapshotCatchupBridgesCompactionGap) {
  ManualClock clock(0, /*auto_advance=*/true);
  TempDir leader("qcenv-fed-leader-");
  TempDir mirror("qcenv-fed-mirror-");
  write_leader_journal(leader.path(), 10, &clock);

  // Compact the leader: events 1..6 fold into the snapshot, the journal
  // keeps 7..10. A fresh follower's cursor (0) now predates the WAL.
  {
    store::JournalOptions options;
    options.sync = store::SyncMode::kAlways;
    store::JobJournal journal(options, &clock, nullptr);
    ASSERT_TRUE(journal.open(leader.path() + "/journal.log").ok());
    ASSERT_TRUE(journal.drop_through(6).ok());
  }
  store::StoreSnapshot snapshot;
  snapshot.jobs_seq = snapshot.sessions_seq = 6;
  ASSERT_TRUE(
      snapshot.write_atomic(leader.path() + "/snapshot.json").ok());

  FileReplicationSource source(leader.path());
  StandbyReplicator replicator({mirror.path(), kSmallChunks}, &source,
                               &clock, nullptr, nullptr);
  ASSERT_TRUE(replicator.catch_up().ok());
  EXPECT_GE(replicator.stats().snapshot_catchups, 1u);
  EXPECT_EQ(replicator.applied_seq(), 10u);

  // The mirror carries the shipped snapshot verbatim plus WAL 7..10.
  EXPECT_EQ(read_raw(mirror.path() + "/snapshot.json"),
            read_raw(leader.path() + "/snapshot.json"));
  auto entries =
      store::JobJournal::read_file(mirror.path() + "/journal.log");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 4u);
  EXPECT_EQ(entries.value().front().seq, 7u);
  EXPECT_EQ(entries.value().back().seq, 10u);
}

TEST(Replication, RejectsWalFromAFencedOutLeader) {
  ManualClock clock(0, /*auto_advance=*/true);
  TempDir leader("qcenv-fed-leader-");
  TempDir mirror("qcenv-fed-mirror-");
  write_leader_journal(leader.path(), 3, &clock);
  ASSERT_TRUE(write_epoch(leader.path(), 5).ok());

  FileReplicationSource source(leader.path());
  StandbyReplicator replicator({mirror.path(), kSmallChunks}, &source,
                               &clock, nullptr, nullptr);
  ASSERT_TRUE(replicator.catch_up().ok());
  EXPECT_EQ(replicator.leader_epoch(), 5u);

  // The link now serves a LOWER epoch — a partitioned ex-leader trying
  // to feed the mirror. Every pull must be refused.
  ASSERT_TRUE(write_epoch(leader.path(), 3).ok());
  EXPECT_FALSE(replicator.poll_once().ok());
  EXPECT_EQ(replicator.leader_epoch(), 5u);
}

// ---- standby promotion ---------------------------------------------------

class StandbyPromotionFixture : public ::testing::Test {
 protected:
  daemon::DaemonOptions leader_options() {
    daemon::DaemonOptions options;
    options.store.data_dir = leader_dir_.path();
    return options;
  }

  /// Runs a leader daemon to build up durable state: one session for
  /// alice plus `jobs` executed submissions. Returns alice's token.
  /// The daemon is destroyed (cleanly, everything flushed) — the "dead
  /// leader" whose disk the standby drains.
  std::string run_leader_lifetime(std::size_t jobs) {
    auto resource = qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
    auto leader = std::make_unique<daemon::MiddlewareDaemon>(
        leader_options(), resource, nullptr, &clock_);
    auto session =
        leader->open_session("alice", daemon::JobClass::kDevelopment);
    EXPECT_TRUE(session.ok());
    for (std::size_t i = 0; i < jobs; ++i) {
      auto submitted =
          leader->submit_job(session.value().token, small_payload());
      EXPECT_TRUE(submitted.ok());
    }
    return session.value().token;
  }

  std::unique_ptr<StandbyDaemon> make_standby() {
    source_ = std::make_unique<FileReplicationSource>(leader_dir_.path());
    StandbyOptions options;
    options.data_dir = standby_dir_.path();
    options.poll_thread = false;
    return std::make_unique<StandbyDaemon>(
        options, source_.get(),
        [this](const std::string& data_dir)
            -> common::Result<
                std::unique_ptr<daemon::MiddlewareDaemon>> {
          daemon::DaemonOptions promoted;
          promoted.store.data_dir = data_dir;
          auto resource =
              qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
          return std::make_unique<daemon::MiddlewareDaemon>(
              promoted, resource, nullptr, &clock_);
        },
        &clock_, nullptr, nullptr);
  }

  ManualClock clock_{0, /*auto_advance=*/true};
  TempDir leader_dir_{"qcenv-standby-leader-"};
  TempDir standby_dir_{"qcenv-standby-mirror-"};
  std::unique_ptr<FileReplicationSource> source_;
};

TEST_F(StandbyPromotionFixture, PromotionRestoresSessionsAndBumpsEpoch) {
  const std::string token = run_leader_lifetime(/*jobs=*/2);

  auto standby = make_standby();
  ASSERT_TRUE(standby->start().ok());
  ASSERT_TRUE(standby->replicator().catch_up().ok());
  EXPECT_FALSE(standby->promoted());
  const std::uint64_t epoch_before = standby->epoch();

  auto promoted = standby->promote();
  ASSERT_TRUE(promoted.ok()) << promoted.error().to_string();
  ASSERT_NE(promoted.value(), nullptr);
  EXPECT_TRUE(standby->promoted());
  EXPECT_GT(standby->epoch(), epoch_before);
  // The fence is durable — a restart of this standby resumes AT it.
  auto durable = read_epoch(standby_dir_.path());
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(durable.value(), standby->epoch());

  // The leader's session survived the takeover: alice's old token works
  // on the promoted daemon, a made-up one does not.
  auto resumed = promoted.value()->submit_job(token, small_payload());
  EXPECT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_FALSE(
      promoted.value()->submit_job("bogus-token", small_payload()).ok());

  // Promotion is idempotent: a second call returns the same daemon.
  auto again = standby->promote();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), promoted.value());

  // release_daemon transfers ownership (and empties the standby).
  auto owned = standby->release_daemon();
  EXPECT_EQ(owned.get(), promoted.value());
  EXPECT_EQ(standby->promoted_daemon(), nullptr);
}

TEST_F(StandbyPromotionFixture, MidPromotionCrashLeavesFenceAndRetries) {
  run_leader_lifetime(/*jobs=*/1);

  auto standby = make_standby();
  ASSERT_TRUE(standby->start().ok());
  ASSERT_TRUE(standby->replicator().catch_up().ok());
  const std::uint64_t epoch_before = standby->epoch();

  // Crash in the window between the durable fence and the daemon build.
  bool crashed = false;
  standby->set_promotion_crash_hook([&crashed]() -> common::Status {
    if (crashed) return common::Status::ok_status();
    crashed = true;
    return common::err::io("standby died mid-promotion");
  });
  EXPECT_FALSE(standby->promote().ok());
  EXPECT_FALSE(standby->promoted());
  // The fence outlived the crash: the epoch file already moved on.
  auto fenced = read_epoch(standby_dir_.path());
  ASSERT_TRUE(fenced.ok());
  EXPECT_GT(fenced.value(), epoch_before);

  // The retry bumps the epoch AGAIN — promotion never reuses a fence a
  // dead attempt may have leaked to the world.
  auto promoted = standby->promote();
  ASSERT_TRUE(promoted.ok()) << promoted.error().to_string();
  EXPECT_GE(standby->epoch(), epoch_before + 2);
}

// ---- the REST surface ----------------------------------------------------

class FederationRestFixture : public ::testing::Test {
 protected:
  /// Starts a daemon; federation on/off per test.
  std::unique_ptr<daemon::MiddlewareDaemon> start_daemon(
      daemon::DaemonOptions options, std::uint16_t* port_out) {
    auto resource = qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
    auto daemon = std::make_unique<daemon::MiddlewareDaemon>(
        options, resource, nullptr, &clock_);
    auto port = daemon->start();
    EXPECT_TRUE(port.ok());
    *port_out = port.value();
    return daemon;
  }

  ManualClock clock_{0, /*auto_advance=*/true};
  TempDir dir_{"qcenv-fed-rest-"};
};

TEST_F(FederationRestFixture, StatusAnswersEvenWithFederationDisabled) {
  daemon::DaemonOptions options;
  options.admin_key = "root";
  options.store.data_dir = dir_.path();
  std::uint16_t port = 0;
  auto daemon = start_daemon(std::move(options), &port);

  net::HttpClient admin(port);
  admin.set_default_header("X-Admin-Key", "root");
  auto status = admin.get("/admin/federation");
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(status.value().status, 200) << status.value().body;
  const Json out = Json::parse(status.value().body).value();
  EXPECT_FALSE(out.at_or_null("enabled").as_bool());
  EXPECT_EQ(out.get_string("role").value(), "leader");
  EXPECT_TRUE(out.at_or_null("fleet").is_object());
  EXPECT_TRUE(out.at_or_null("store").is_object());

  // Promote/demote need the router: a 409, not a silent no-op.
  EXPECT_EQ(admin.post("/admin/federation/promote", "").value().status,
            409);
  EXPECT_EQ(admin.post("/admin/federation/demote", "").value().status,
            409);
  // And the whole surface is admin-gated.
  net::HttpClient anon(port);
  EXPECT_EQ(anon.get("/admin/federation").value().status, 401);
  EXPECT_EQ(anon.get("/admin/replication/wal").value().status, 401);
}

TEST_F(FederationRestFixture, PromoteDemoteFlipRoleAndEpoch) {
  daemon::DaemonOptions options;
  options.admin_key = "root";
  options.store.data_dir = dir_.path();
  options.federation.enabled = true;
  options.federation.self = "alpha";
  options.federation.poll_thread = false;
  std::uint16_t port = 0;
  auto daemon = start_daemon(std::move(options), &port);

  net::HttpClient admin(port);
  admin.set_default_header("X-Admin-Key", "root");
  auto promoted = admin.post("/admin/federation/promote", "");
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.value().status, 200) << promoted.value().body;
  const Json up = Json::parse(promoted.value().body).value();
  EXPECT_EQ(up.get_string("role").value(), "leader");
  EXPECT_EQ(up.at_or_null("epoch").as_int(), 1);
  // The promotion fence is durable in the daemon's data dir.
  auto epoch = read_epoch(dir_.path());
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 1u);

  auto demoted = admin.post("/admin/federation/demote", "");
  ASSERT_TRUE(demoted.ok());
  ASSERT_EQ(demoted.value().status, 200);
  const Json status =
      Json::parse(admin.get("/admin/federation").value().body).value();
  EXPECT_EQ(status.get_string("role").value(), "standby");
  EXPECT_EQ(status.get_string("self").value(), "alpha");
}

TEST_F(FederationRestFixture, WalEndpointValidatesAndServesFrames) {
  daemon::DaemonOptions options;
  options.admin_key = "root";
  options.store.data_dir = dir_.path();
  std::uint16_t port = 0;
  auto daemon = start_daemon(std::move(options), &port);
  auto session =
      daemon->open_session("alice", daemon::JobClass::kDevelopment);
  ASSERT_TRUE(session.ok());

  net::HttpClient admin(port);
  admin.set_default_header("X-Admin-Key", "root");

  // Garbage query parameters are 400s that NAME the parameter.
  auto bad_after = admin.get("/admin/replication/wal?after=abc");
  ASSERT_TRUE(bad_after.ok());
  EXPECT_EQ(bad_after.value().status, 400);
  EXPECT_NE(bad_after.value().body.find("after"), std::string::npos);
  auto bad_max = admin.get("/admin/replication/wal?max_bytes=-5");
  ASSERT_TRUE(bad_max.ok());
  EXPECT_EQ(bad_max.value().status, 400);
  EXPECT_NE(bad_max.value().body.find("max_bytes"), std::string::npos);
  EXPECT_EQ(admin.get("/admin/replication/wal?max_bytes=0").value().status,
            400);

  // The happy path: raw frames + framing metadata in headers. Wait out
  // the group-commit window so the open_session event is durable.
  ASSERT_TRUE(daemon->state_store()->flush().ok());
  auto wal = admin.get("/admin/replication/wal?after=0");
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal.value().status, 200);
  EXPECT_EQ(wal.value().headers.at("Content-Type"),
            "application/octet-stream");
  const std::uint64_t end_seq =
      std::stoull(wal.value().headers.at("X-Replication-End-Seq"));
  EXPECT_GE(end_seq, 1u);
  EXPECT_EQ(wal.value().headers.at("X-Replication-Snapshot-Needed"), "0");
  EXPECT_EQ(wal.value().headers.at("X-Replication-Durable-Seq"),
            wal.value().headers.at("X-Replication-End-Seq"));
  // The body is exactly the frames the follower's validator accepts.
  const auto prefix =
      store::JobJournal::validate_frames(wal.value().body, 0);
  EXPECT_EQ(prefix.end_seq, end_seq);
  EXPECT_EQ(prefix.bytes, wal.value().body.size());
}

TEST_F(FederationRestFixture, HttpReplicationMirrorsALiveLeader) {
  daemon::DaemonOptions options;
  options.admin_key = "root";
  options.store.data_dir = dir_.path();
  std::uint16_t port = 0;
  auto daemon = start_daemon(std::move(options), &port);
  auto session =
      daemon->open_session("alice", daemon::JobClass::kDevelopment);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        daemon->submit_job(session.value().token, small_payload()).ok());
  }
  // Capture the target seq BEFORE the flush: the live dispatcher may
  // append more (not yet durable) events at any moment, and the source
  // only serves the durable prefix.
  const std::uint64_t leader_seq =
      daemon->state_store()->journal().last_seq();
  ASSERT_TRUE(daemon->state_store()->flush().ok());

  TempDir mirror("qcenv-fed-http-mirror-");
  HttpReplicationSource source(port, "root");
  StandbyReplicator replicator({mirror.path(), kSmallChunks}, &source,
                               &clock_, nullptr, nullptr);
  ASSERT_TRUE(replicator.catch_up().ok());
  EXPECT_GE(replicator.applied_seq(), leader_seq);
  // The mirrored prefix replays cleanly with the leader's own decoder.
  auto entries =
      store::JobJournal::read_file(mirror.path() + "/journal.log");
  ASSERT_TRUE(entries.ok());
  EXPECT_GE(entries.value().size(), static_cast<std::size_t>(leader_seq));
}

TEST_F(FederationRestFixture, SaturatedLeaderForwardsToItsPeer) {
  // Daemon B: a healthy stand-alone leader.
  TempDir dir_b("qcenv-fed-rest-b-");
  daemon::DaemonOptions options_b;
  options_b.admin_key = "beta-key";
  options_b.store.data_dir = dir_b.path();
  std::uint16_t port_b = 0;
  auto daemon_b = start_daemon(std::move(options_b), &port_b);

  // Daemon A federates with B and (threshold 0) never takes a job
  // itself — the degenerate "saturated" leader.
  daemon::DaemonOptions options_a;
  options_a.admin_key = "alpha-key";
  options_a.store.data_dir = dir_.path();
  options_a.federation.enabled = true;
  options_a.federation.self = "alpha";
  options_a.federation.poll_thread = false;
  options_a.federation.forward_queue_threshold = 0;
  PeerConfig peer;
  peer.name = "beta";
  peer.port = port_b;
  peer.admin_key = "beta-key";
  options_a.federation.peers.push_back(peer);
  std::uint16_t port_a = 0;
  auto daemon_a = start_daemon(std::move(options_a), &port_a);
  ASSERT_NE(daemon_a->federation(), nullptr);
  daemon_a->federation()->poll_once(clock_.now());

  auto session =
      daemon_a->open_session("alice", daemon::JobClass::kDevelopment);
  ASSERT_TRUE(session.ok());
  auto submitted =
      daemon_a->submit_job(session.value().token, small_payload());
  ASSERT_TRUE(submitted.ok()) << submitted.error().to_string();
  EXPECT_EQ(submitted.value().forwarded_to, "beta");
  EXPECT_GE(submitted.value().id, 1u);

  // The job landed at B, charged to the ORIGINAL user: B now holds an
  // ingress session for alice and journalled the submission.
  ASSERT_TRUE(daemon_b->state_store()->flush().ok());
  auto entries = store::JobJournal::read_file(dir_b.path() +
                                              "/journal.log");
  ASSERT_TRUE(entries.ok());
  bool saw_submit = false;
  for (const auto& entry : entries.value()) {
    if (entry.type != "job_submitted") continue;
    saw_submit = true;
    EXPECT_EQ(
        entry.data.at_or_null("job").at_or_null("user").as_string(),
        "alice");
  }
  EXPECT_TRUE(saw_submit);
}

}  // namespace
}  // namespace qcenv::federation
