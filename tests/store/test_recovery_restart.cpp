// Kill-and-restart integration test: a daemon with queued, partially
// executed and completed jobs is stopped mid-dispatch and restarted on the
// same data-dir. Everything must come back — sessions authenticate with
// their old tokens, completed results are re-served from the store, and
// interrupted jobs finish with zero lost and zero duplicated shots.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "../common/test_args.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "daemon/daemon.hpp"
#include "net/http_client.hpp"
#include "qrmi/local_emulator.hpp"
#include "store/recovery.hpp"

namespace qcenv::daemon {
namespace {

using common::Json;

using common::TempDir;

quantum::Payload small_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(200, 2.0),
                               quantum::Waveform::constant(200, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

class RecoveryRestartTest : public ::testing::Test {
 protected:
  std::unique_ptr<MiddlewareDaemon> make_daemon() {
    DaemonOptions options;
    options.admin_key = "root";
    // Small batches so a job is reliably caught mid-execution.
    options.queue_policy.non_production_batch_shots = 25;
    options.store.data_dir = dir_.path();
    auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
    auto daemon = std::make_unique<MiddlewareDaemon>(options, resource,
                                                     nullptr, &clock_);
    auto port = daemon->start();
    EXPECT_TRUE(port.ok());
    return daemon;
  }

  static std::uint64_t submit(net::HttpClient& client, std::uint64_t shots) {
    Json body = Json::object();
    body["payload"] = small_payload(shots).to_json();
    auto response = client.post("/v1/jobs", body.dump());
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 201) << response.value().body;
    return static_cast<std::uint64_t>(Json::parse(response.value().body)
                                          .value()
                                          .get_int("job_id")
                                          .value());
  }

  TempDir dir_;
  common::WallClock clock_;
};

TEST_F(RecoveryRestartTest, KillAndRestartRecoversAllState) {
  // Shot counts (and hence which batch boundary the kill lands on) derive
  // from one printed seed: any failure replays with --seed=N.
  const std::uint64_t seed = testargs::seed(0x5EEDC0DEull);
  testargs::announce(seed);
  common::Rng rng(seed);
  std::string token;
  std::uint64_t completed_id = 0;
  std::uint64_t partial_id = 0;
  std::uint64_t queued_id = 0;
  std::string completed_result_body;
  std::uint64_t partial_shots_at_kill = 0;
  const std::uint64_t kPartialShots =
      static_cast<std::uint64_t>(rng.uniform_int(1200, 3000));
  const std::uint64_t completed_shots =
      static_cast<std::uint64_t>(rng.uniform_int(20, 60));
  const std::uint64_t queued_shots =
      static_cast<std::uint64_t>(rng.uniform_int(30, 80));

  // ---- First life: build up queued + in-flight + completed state ----------
  {
    auto daemon = make_daemon();
    net::HttpClient client(daemon->port());
    Json body = Json::object();
    body["user"] = "alice";
    body["class"] = "test";
    auto opened = client.post("/v1/sessions", body.dump());
    ASSERT_TRUE(opened.ok());
    ASSERT_EQ(opened.value().status, 201);
    token =
        Json::parse(opened.value().body).value().get_string("token").value();
    net::HttpClient authed(daemon->port());
    authed.set_default_header("X-Session-Token", token);

    // Job 1 runs to completion; its result must survive the restart.
    completed_id = submit(authed, completed_shots);
    ASSERT_TRUE(
        daemon->dispatcher().wait(completed_id, 60 * common::kSecond).ok());
    auto result = authed.get("/v1/jobs/" + std::to_string(completed_id) +
                             "/result");
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().status, 200);
    completed_result_body = result.value().body;

    // Job 2 gets caught mid-dispatch: wait for some batches, then freeze
    // dispatch so the daemon dies with the job partially executed.
    partial_id = submit(authed, kPartialShots);
    for (int i = 0; i < 5000; ++i) {
      if (daemon->dispatcher().query(partial_id).value().shots_done >= 25) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon->dispatcher().drain();
    // Let the in-flight batch land (its batch_done must be journaled).
    std::uint64_t last = 0;
    for (int stable = 0; stable < 5;) {
      const auto done =
          daemon->dispatcher().query(partial_id).value().shots_done;
      stable = done == last ? stable + 1 : 0;
      last = done;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    partial_shots_at_kill = last;
    ASSERT_GT(partial_shots_at_kill, 0u);
    ASSERT_LT(partial_shots_at_kill, kPartialShots);

    // Job 3 is submitted while dispatch is frozen: purely queued.
    queued_id = submit(authed, queued_shots);
    EXPECT_EQ(daemon->dispatcher().query(queued_id).value().shots_done, 0u);
    // "Kill": tear the daemon down mid-dispatch with work outstanding.
  }

  // ---- Second life: same data-dir, fresh process state --------------------
  auto daemon = make_daemon();
  net::HttpClient admin(daemon->port());
  admin.set_default_header("X-Admin-Key", "root");
  auto store_status = admin.get("/admin/store");
  ASSERT_TRUE(store_status.ok());
  ASSERT_EQ(store_status.value().status, 200);
  auto parsed = Json::parse(store_status.value().body).value();
  EXPECT_TRUE(parsed.at_or_null("enabled").as_bool());
  const Json& replay = parsed.at_or_null("replay");
  EXPECT_EQ(replay.at_or_null("recovered_jobs").as_int(), 3);
  EXPECT_EQ(replay.at_or_null("recovered_sessions").as_int(), 1);
  EXPECT_EQ(replay.at_or_null("requeued_jobs").as_int(), 2);

  // The old session token still authenticates.
  net::HttpClient authed(daemon->port());
  authed.set_default_header("X-Session-Token", token);
  auto job = authed.get("/v1/jobs/" + std::to_string(completed_id));
  ASSERT_TRUE(job.ok());
  ASSERT_EQ(job.value().status, 200) << job.value().body;
  EXPECT_EQ(
      Json::parse(job.value().body).value().get_string("state").value(),
      "completed");

  // Completed results are re-served from the snapshot/journal, bit for bit.
  auto result =
      authed.get("/v1/jobs/" + std::to_string(completed_id) + "/result");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().status, 200);
  EXPECT_EQ(result.value().body, completed_result_body);

  // The interrupted and queued jobs finish with exactly their shot budget:
  // nothing lost, nothing re-executed.
  auto partial =
      daemon->dispatcher().wait(partial_id, 120 * common::kSecond);
  ASSERT_TRUE(partial.ok()) << partial.error().to_string();
  EXPECT_EQ(partial.value().total_shots(), kPartialShots);
  EXPECT_EQ(daemon->dispatcher().query(partial_id).value().shots_done,
            kPartialShots);
  auto queued = daemon->dispatcher().wait(queued_id, 120 * common::kSecond);
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued.value().total_shots(), queued_shots);

  // Replay progress is visible on /metrics, and new ids never collide
  // with recovered ones.
  auto metrics = admin.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("store_recovery_replayed_jobs"),
            std::string::npos);
  const std::uint64_t fresh_id = submit(authed, 10);
  EXPECT_GT(fresh_id, queued_id);
}

TEST_F(RecoveryRestartTest, CompactionSurvivesRestart) {
  std::string token;
  std::uint64_t job_id = 0;
  {
    auto daemon = make_daemon();
    net::HttpClient client(daemon->port());
    auto opened =
        client.post("/v1/sessions", R"({"user":"bob","class":"test"})");
    ASSERT_TRUE(opened.ok());
    token =
        Json::parse(opened.value().body).value().get_string("token").value();
    net::HttpClient authed(daemon->port());
    authed.set_default_header("X-Session-Token", token);
    job_id = submit(authed, 50);
    ASSERT_TRUE(daemon->dispatcher().wait(job_id, 60 * common::kSecond).ok());

    net::HttpClient admin(daemon->port());
    admin.set_default_header("X-Admin-Key", "root");
    auto compacted = admin.post("/admin/store/compact", "{}");
    ASSERT_TRUE(compacted.ok());
    ASSERT_EQ(compacted.value().status, 200) << compacted.value().body;
    // Everything folded into the snapshot: the journal is empty again.
    EXPECT_EQ(Json::parse(compacted.value().body)
                  .value()
                  .get_int("journal_events")
                  .value(),
              0);
  }
  auto daemon = make_daemon();
  net::HttpClient authed(daemon->port());
  authed.set_default_header("X-Session-Token", token);
  auto result = authed.get("/v1/jobs/" + std::to_string(job_id) + "/result");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().status, 200) << result.value().body;
  auto samples =
      quantum::Samples::from_json(Json::parse(result.value().body).value());
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 50u);
}

// A restored daemon unplaces an unpinned requeued job. If that job is then
// cancelled before any lane places it again, a replay of the journal alone
// and a replay after compaction must still agree on its record: the
// restored placement has to be in the journal, not only in memory.
TEST_F(RecoveryRestartTest, RestoredPlacementIsJournaled) {
  auto emu = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  DaemonOptions options;
  options.admin_key = "root";
  options.store.data_dir = dir_.path();
  std::uint64_t job_id = 0;

  // First life, dispatch drained: the job is placed at submit, never run.
  {
    MiddlewareDaemon daemon(options, emu, nullptr, &clock_);
    daemon.dispatcher().drain();
    auto session = daemon.open_session("carol", JobClass::kTest);
    ASSERT_TRUE(session.ok()) << session.error().to_string();
    auto submitted = daemon.submit_job(session.value().token,
                                       small_payload(40));
    ASSERT_TRUE(submitted.ok()) << submitted.error().to_string();
    job_id = submitted.value().id;
    EXPECT_EQ(daemon.dispatcher().query(job_id).value().resource, "emu");
  }

  // Second life, still held: the emulator is offline before the lanes
  // start, so no lane can place or run the job, and the admin drain
  // would hold it even if the emulator came back.
  emu->set_offline(true);
  MiddlewareDaemon daemon(options, emu, nullptr, &clock_);
  daemon.dispatcher().drain();
  const auto restored = daemon.dispatcher().query(job_id);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().state, DaemonJobState::kQueued);
  EXPECT_EQ(restored.value().resource, "");
  ASSERT_TRUE(daemon.dispatcher().cancel(job_id).ok());
  ASSERT_TRUE(daemon.state_store()->flush().ok());

  const auto job_image = [job_id](const store::RecoveredState& state) {
    for (const auto& job : state.jobs) {
      if (job.id == job_id) return job.to_json().dump();
    }
    return std::string("<missing>");
  };
  const std::string journal = dir_.path() + "/journal.log";
  auto journal_only =
      store::RecoveryReplayer::replay(journal, dir_.path() + "/absent.json");
  ASSERT_TRUE(journal_only.ok()) << journal_only.error().to_string();
  ASSERT_TRUE(daemon.state_store()->compact().ok());
  auto compacted =
      store::RecoveryReplayer::replay(journal, dir_.path() + "/snapshot.json");
  ASSERT_TRUE(compacted.ok()) << compacted.error().to_string();
  EXPECT_EQ(job_image(journal_only.value()), job_image(compacted.value()));
}

TEST(StoreDisabledTest, DaemonWithoutDataDirReportsDisabled) {
  common::WallClock clock;
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  DaemonOptions options;
  options.admin_key = "root";
  MiddlewareDaemon daemon(options, resource, nullptr, &clock);
  ASSERT_TRUE(daemon.start().ok());
  EXPECT_EQ(daemon.state_store(), nullptr);
  net::HttpClient admin(daemon.port());
  admin.set_default_header("X-Admin-Key", "root");
  auto store_status = admin.get("/admin/store");
  ASSERT_TRUE(store_status.ok());
  ASSERT_EQ(store_status.value().status, 200);
  EXPECT_FALSE(
      Json::parse(store_status.value().body).value().at_or_null("enabled")
          .as_bool());
  auto compacted = admin.post("/admin/store/compact", "{}");
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted.value().status, 409);
}

}  // namespace
}  // namespace qcenv::daemon
