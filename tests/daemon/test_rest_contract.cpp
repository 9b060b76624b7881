// The daemon's REST error contract, table-driven over the route table:
//   * every admin route answers 401 without X-Admin-Key, and every session
//     or owned-job route 401 without X-Session-Token — before any 400;
//   * every numeric path or query parameter rejects garbage, signs,
//     exponents and overflow with a 400 whose message names the parameter;
//   * typed body fields reject fractions and overflow the same way.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/temp_dir.hpp"
#include "daemon/daemon.hpp"
#include "net/http_client.hpp"
#include "qrmi/local_emulator.hpp"

namespace qcenv::daemon {
namespace {

using common::Json;

quantum::Payload small_payload() {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(200, 2.0),
                               quantum::Waveform::constant(200, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, 20);
}

enum class Caller { kUser, kAdmin };

/// One numeric parameter of one route. `{}` in the target marks where the
/// value under test goes.
struct NumericParam {
  const char* method;
  const char* target;
  const char* name;
  Caller caller;
};

constexpr const char* kSeries =
    "/admin/tsdb/query?series=broker_resource_healthy,resource=emu0";

const NumericParam kNumericParams[] = {
    {"GET", "/v1/jobs/{}", "id", Caller::kUser},
    {"GET", "/v1/jobs/{}/trace", "id", Caller::kUser},
    {"GET", "/v1/jobs/{}/eta", "id", Caller::kUser},
    {"GET", "/v1/jobs/{}/explain", "id", Caller::kUser},
    {"GET", "/v1/jobs/{}/result", "id", Caller::kUser},
    {"DELETE", "/v1/jobs/{}", "id", Caller::kUser},
    {"GET", "/admin/events?since={}", "since", Caller::kAdmin},
    {"GET", "/admin/events?max={}", "max", Caller::kAdmin},
    {"GET", "{series}&start={}", "start", Caller::kAdmin},
    {"GET", "{series}&end={}", "end", Caller::kAdmin},
    {"GET", "{series}&window={}&agg=mean", "window", Caller::kAdmin},
    {"GET", "/admin/profile?window={}", "window", Caller::kAdmin},
    {"POST", "/admin/profile/baseline?window={}", "window", Caller::kAdmin},
    {"GET", "/admin/profile?threshold={}", "threshold", Caller::kAdmin},
    {"GET", "/admin/replication/wal?after={}", "after", Caller::kAdmin},
    {"GET", "/admin/replication/wal?max_bytes={}", "max_bytes",
     Caller::kAdmin},
};

// `12abc` is the prefix-parse trap: strtoull reads it as 12.
const char* const kBadValues[] = {"abc", "-1", "1e3", "12abc",
                                  "99999999999999999999999"};

/// Every route behind a credential, with any path parameter filled in.
const std::pair<const char*, const char*> kSessionRoutes[] = {
    {"DELETE", "/v1/sessions"},
    {"POST", "/v1/jobs"},
    {"GET", "/v1/jobs"},
    {"GET", "/v1/jobs/1"},
    {"GET", "/v1/jobs/1/trace"},
    {"GET", "/v1/jobs/1/eta"},
    {"GET", "/v1/jobs/1/explain"},
    {"GET", "/v1/jobs/1/result"},
    {"DELETE", "/v1/jobs/1"},
    {"GET", "/v1/usage"},
};
const std::pair<const char*, const char*> kAdminRoutes[] = {
    {"GET", "/admin/status"},
    {"GET", "/admin/events"},
    {"GET", "/admin/tsdb/query?series=x"},
    {"GET", "/admin/tsdb/export"},
    {"GET", "/admin/alerts"},
    {"GET", "/admin/slo"},
    {"GET", "/admin/profile"},
    {"POST", "/admin/profile/baseline"},
    {"POST", "/admin/debug/dump"},
    {"GET", "/admin/sessions"},
    {"POST", "/admin/expire_sessions"},
    {"GET", "/admin/fairshare"},
    {"POST", "/admin/quotas/alice"},
    {"POST", "/admin/drain"},
    {"POST", "/admin/resume"},
    {"POST", "/admin/resources/emu0/drain"},
    {"POST", "/admin/resources/emu0/resume"},
    {"GET", "/admin/store"},
    {"POST", "/admin/store/compact"},
    {"GET", "/admin/federation"},
    {"POST", "/admin/federation/promote"},
    {"POST", "/admin/federation/demote"},
    {"POST", "/admin/federation/submit"},
    {"GET", "/admin/replication/wal"},
    {"GET", "/admin/replication/snapshot"},
    {"POST", "/admin/recalibrate"},
    {"POST", "/admin/qa"},
    {"POST", "/admin/lowlevel/shot_rate"},
};

std::string fill(const NumericParam& param, const std::string& value) {
  std::string target = param.target;
  if (const auto at = target.find("{series}"); at != std::string::npos) {
    target.replace(at, 8, kSeries);
  }
  return target.replace(target.find("{}"), 2, value);
}

/// The `error` message of an error response body ("" if there is none).
std::string error_of(const net::HttpResponse& response) {
  const auto body = Json::parse(response.body);
  if (!body.ok()) return "";
  const Json& error = body.value().at_or_null("error");
  return error.is_string() ? error.as_string() : "";
}

class RestContractFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    resource_ = qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
    DaemonOptions options;
    options.admin_key = "root";
    options.store.data_dir = dir_.path();  // the replication routes need it
    options.telemetry.observability.scrape_thread = false;
    daemon_ = std::make_unique<MiddlewareDaemon>(options, resource_, nullptr,
                                                 &clock_);
    const std::uint16_t port = daemon_->start().value();
    anon_ = std::make_unique<net::HttpClient>(port);
    admin_ = std::make_unique<net::HttpClient>(port);
    admin_->set_default_header("X-Admin-Key", "root");
    user_ = std::make_unique<net::HttpClient>(port);
    user_->set_default_header(
        "X-Session-Token",
        daemon_->open_session("alice", JobClass::kDevelopment).value().token);
    // Job 12 exists and is alice's, so `12abc` served as job 12 would be
    // a 200 rather than a 404.
    for (int i = 0; i < 12; ++i) {
      Json body = Json::object();
      body["payload"] = small_payload().to_json();
      ASSERT_EQ(user_->post("/v1/jobs", body.dump()).value().status, 201);
    }
  }

  static net::HttpResponse send(net::HttpClient& client,
                                const std::string& method,
                                const std::string& target,
                                const std::string& body = "{}") {
    auto response = method == "GET"      ? client.get(target)
                    : method == "DELETE" ? client.del(target)
                                         : client.post(target, body);
    EXPECT_TRUE(response.ok()) << method << ' ' << target;
    return response.ok() ? response.value() : net::HttpResponse{};
  }

  net::HttpClient& caller(Caller who) {
    return who == Caller::kAdmin ? *admin_ : *user_;
  }

  common::ManualClock clock_{0, /*auto_advance=*/true};
  common::TempDir dir_{"qcenv-rest-contract-"};
  qrmi::QrmiPtr resource_;
  std::unique_ptr<MiddlewareDaemon> daemon_;
  std::unique_ptr<net::HttpClient> anon_;
  std::unique_ptr<net::HttpClient> admin_;
  std::unique_ptr<net::HttpClient> user_;
};

TEST_F(RestContractFixture, EveryRouteKeepsTheErrorContract) {
  for (const auto& param : kNumericParams) {
    for (const char* bad : kBadValues) {
      const std::string target = fill(param, bad);
      const auto response = send(caller(param.caller), param.method, target);
      EXPECT_EQ(response.status, 400) << param.method << ' ' << target;
      // The message starts with the parameter's own name.
      EXPECT_EQ(error_of(response).rfind(std::string(param.name) + " ", 0),
                0u)
          << target << " -> " << response.body;
      // 401 comes before 400: without credentials the value is not read.
      EXPECT_EQ(send(*anon_, param.method, target).status, 401) << target;
    }
  }
  for (const auto& [method, target] : kSessionRoutes) {
    EXPECT_EQ(send(*anon_, method, target).status, 401) << method << target;
  }
  for (const auto& [method, target] : kAdminRoutes) {
    EXPECT_EQ(send(*anon_, method, target).status, 401) << method << target;
    // A session token is not an admin key.
    EXPECT_EQ(send(*user_, method, target).status, 401) << method << target;
  }
}

TEST_F(RestContractFixture, PathIdsAreStrictAndOwnerChecked) {
  // The plain spelling serves the job; any other spelling is a 400.
  EXPECT_EQ(send(*user_, "GET", "/v1/jobs/12").status, 200);
  EXPECT_EQ(send(*user_, "GET", "/v1/jobs/012").status, 200);
  EXPECT_EQ(send(*user_, "GET", "/v1/jobs/+12").status, 400);
  EXPECT_EQ(send(*user_, "GET", "/v1/jobs/%2012").status, 400);
  // A well-formed id that is not there is still a 404.
  EXPECT_EQ(send(*user_, "GET", "/v1/jobs/999").status, 404);
  // Another user's job: 401 with the existing message.
  net::HttpClient bob(anon_->port());
  bob.set_default_header(
      "X-Session-Token",
      daemon_->open_session("bob", JobClass::kDevelopment).value().token);
  const auto stolen = send(bob, "GET", "/v1/jobs/12");
  EXPECT_EQ(stolen.status, 401);
  EXPECT_EQ(error_of(stolen), "job belongs to another user");
}

TEST_F(RestContractFixture, ProfileThresholdIsAFractionInZeroToOne) {
  for (const char* bad : {"nan", "inf", "-0.5", "1.5", "0x1", ""}) {
    const std::string target = std::string("/admin/profile?threshold=") + bad;
    const auto response = send(*admin_, "GET", target);
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_EQ(error_of(response).rfind("threshold ", 0), 0u) << bad;
  }
  for (const char* good : {"0", "0.05", ".5", "1", "1.000"}) {
    const std::string target = std::string("/admin/profile?threshold=") + good;
    EXPECT_EQ(send(*admin_, "GET", target).status, 200) << good;
  }
}

TEST_F(RestContractFixture, QuotaCountsRejectFractionsAndOverflowByName) {
  const auto set_quota = [this](const std::string& body) {
    return send(*admin_, "POST", "/admin/quotas/alice", body);
  };
  for (const char* field : {"max_inflight_shots", "max_pending_jobs"}) {
    for (const char* bad : {"2.5", "1e30", "-1", "\"5\"", "true"}) {
      const std::string body =
          std::string(R"({"shares": 9, ")") + field + "\": " + bad + "}";
      const auto response = set_quota(body);
      EXPECT_EQ(response.status, 400) << body;
      EXPECT_NE(error_of(response).find(field), std::string::npos)
          << response.body;
    }
  }
  // A rejected body applies none of its fields.
  auto& accounting = daemon_->accounting();
  EXPECT_NE(accounting.fair_share().share_of("alice").shares, 9.0);
  EXPECT_FALSE(accounting.pending_limit("alice").has_value());

  // Whole numbers apply, in either JSON spelling; null still clears.
  ASSERT_EQ(set_quota(R"({"max_pending_jobs": 3})").status, 200);
  EXPECT_EQ(accounting.pending_limit("alice").value_or(0), 3u);
  ASSERT_EQ(set_quota(R"({"max_inflight_shots": 1e3})").status, 200);
  EXPECT_EQ(accounting.rate_limiter().effective("alice").max_inflight_shots,
            1000u);
  ASSERT_EQ(set_quota(R"({"max_pending_jobs": null})").status, 200);
  EXPECT_FALSE(accounting.pending_limit("alice").has_value());
}

}  // namespace
}  // namespace qcenv::daemon
