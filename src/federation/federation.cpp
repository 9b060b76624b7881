#include "federation/federation.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <fstream>

#include "common/strings.hpp"
#include "net/http_client.hpp"
#include "store/fsio.hpp"
#include "store/records.hpp"

namespace qcenv::federation {

using common::Json;
using common::Result;
using common::Status;

const char* to_string(Role role) noexcept {
  switch (role) {
    case Role::kLeader: return "leader";
    case Role::kStandby: return "standby";
  }
  return "?";
}

Json PeerView::to_json() const {
  Json out = Json::object();
  out["name"] = config.name;
  out["host"] = config.host;
  out["port"] = static_cast<long long>(config.port);
  out["reachable"] = reachable;
  out["last_seen"] = static_cast<long long>(last_seen);
  out["epoch"] = static_cast<long long>(epoch);
  out["role"] = to_string(role);
  out["queue_depth"] = static_cast<long long>(queue_depth);
  out["healthy_resources"] = static_cast<long long>(healthy_resources);
  out["mean_score"] = mean_score;
  Json classes = Json::object();
  for (const auto& [name, score] : class_scores) classes[name] = score;
  out["class_scores"] = std::move(classes);
  return out;
}

namespace {

std::string epoch_path(const std::string& data_dir) {
  return data_dir + "/epoch";
}

}  // namespace

Result<std::uint64_t> read_epoch(const std::string& data_dir) {
  std::ifstream in(epoch_path(data_dir));
  if (!in.is_open()) return std::uint64_t{0};  // never promoted here
  std::string text;
  std::getline(in, text);
  auto epoch =
      common::parse_decimal(text, "epoch file '" + epoch_path(data_dir) + "'");
  if (!epoch.ok()) return common::err::protocol(epoch.error().message());
  return epoch;
}

Status write_epoch(const std::string& data_dir, std::uint64_t epoch) {
  return store::write_file_atomic(epoch_path(data_dir),
                                  std::to_string(epoch) + "\n");
}

FederationRouter::FederationRouter(FederationOptions options,
                                   LocalStatusFn local_status,
                                   common::Clock* clock,
                                   telemetry::MetricsRegistry* metrics,
                                   telemetry::EventLog* events)
    : options_(std::move(options)),
      local_status_(std::move(local_status)),
      clock_(clock),
      events_(events) {
  for (const auto& config : options_.peers) {
    PeerView view;
    view.config = config;
    peers_.push_back(std::move(view));
  }
  if (metrics != nullptr) {
    epoch_gauge_ = &metrics->gauge(
        "federation_leader_epoch", {},
        "this daemon's leader-fencing epoch (bumped on every promotion)");
    role_gauge_ = &metrics->gauge(
        "federation_role", {},
        "1 while this daemon is the federation leader, 0 as standby");
    forwards_ = &metrics->counter(
        "federation_forwards_total", {},
        "submissions routed to a peer daemon");
    forward_failures_ = &metrics->counter(
        "federation_forward_failures_total", {},
        "peer forwards that failed and fell back to the local queue");
    promotions_ = &metrics->counter(
        "federation_promotions_total", {},
        "leader promotions performed by this daemon");
    role_gauge_->set(1);
  }
}

FederationRouter::~FederationRouter() { stop(); }

void FederationRouter::start() {
  if (!options_.enabled || !options_.poll_thread || peers_.empty()) return;
  {
    std::scoped_lock lock(mutex_);
    if (poller_.joinable()) return;
    stop_ = false;
  }
  poller_ = std::thread([this] { poll_loop(); });
}

void FederationRouter::stop() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  if (poller_.joinable()) poller_.join();
}

void FederationRouter::poll_loop() {
  // Wall-clock cadence on purpose: peer polling is production-only (the
  // virtual-time harness calls poll_once directly), and stop() must not
  // wait out a virtual sleep nobody will advance.
  const auto interval =
      std::chrono::nanoseconds(std::max<common::DurationNs>(
          options_.poll_interval, common::kMillisecond));
  while (true) {
    std::this_thread::sleep_for(interval);
    {
      std::scoped_lock lock(mutex_);
      if (stop_) return;
    }
    poll_once(clock_->now());
  }
}

void FederationRouter::apply_peer_status(PeerView& peer, const Json& status,
                                         common::TimeNs now) {
  peer.reachable = true;
  peer.last_seen = now;
  peer.epoch = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, store::int_or(status, "epoch", 0)));
  peer.role = status.at_or_null("role").is_string() &&
                      status.at_or_null("role").as_string() == "standby"
                  ? Role::kStandby
                  : Role::kLeader;
  peer.queue_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(0, store::int_or(status, "queue_depth", 0)));
  const Json& fleet = status.at_or_null("fleet");
  peer.healthy_resources = static_cast<std::size_t>(
      std::max<std::int64_t>(0, store::int_or(fleet, "healthy", 0)));
  peer.mean_score = store::double_or(fleet, "mean_score", 0.0);
  peer.class_scores.clear();
  const Json& classes = fleet.at_or_null("class_scores");
  if (classes.is_object()) {
    for (const auto& [name, score] : classes.as_object()) {
      if (score.is_number()) peer.class_scores[name] = score.as_double();
    }
  }
}

void FederationRouter::poll_once(common::TimeNs now) {
  std::vector<PeerConfig> configs;
  {
    std::scoped_lock lock(mutex_);
    configs.reserve(peers_.size());
    for (const auto& peer : peers_) configs.push_back(peer.config);
  }
  for (const auto& config : configs) {
    net::HttpClient client(config.port);
    if (!config.admin_key.empty()) {
      client.set_default_header("X-Admin-Key", config.admin_key);
    }
    auto response = client.get("/admin/federation");
    bool up = false;
    Json status;
    if (response.ok() && response.value().status == 200) {
      auto parsed = Json::parse(response.value().body);
      if (parsed.ok()) {
        status = std::move(parsed).value();
        up = true;
      }
    }
    std::scoped_lock lock(mutex_);
    auto it = std::find_if(
        peers_.begin(), peers_.end(),
        [&](const PeerView& p) { return p.config.name == config.name; });
    if (it == peers_.end()) continue;
    const bool was_reachable = it->reachable;
    if (up) {
      apply_peer_status(*it, status, now);
      if (!was_reachable && events_ != nullptr) {
        events_->log(now, telemetry::Severity::kInfo, "peer_up",
                     "federation peer '" + config.name + "' is reachable");
      }
    } else {
      it->reachable = false;
      if (was_reachable && events_ != nullptr) {
        events_->log(now, telemetry::Severity::kWarn, "peer_down",
                     "federation peer '" + config.name +
                         "' stopped answering status polls");
      }
    }
  }
}

std::optional<std::string> FederationRouter::choose_peer(
    const std::string& resource_class) {
  const LocalStatus local = local_status_ ? local_status_() : LocalStatus{};
  std::scoped_lock lock(mutex_);
  if (role_ == Role::kLeader && local.healthy_resources > 0 &&
      local.queue_depth < options_.forward_queue_threshold) {
    return std::nullopt;  // local can take it — don't pay a network hop
  }
  // A demoted daemon routes to the current leader when one is visible;
  // a saturated/fleetless leader routes to the best-scored peer. Score
  // is calibration quality per unit of queue pressure — the same signal
  // ResourceBroker::sample_scores feeds placement with, one level up.
  const PeerView* best = nullptr;
  double best_score = 0.0;
  for (const auto& peer : peers_) {
    if (!peer.reachable || peer.healthy_resources == 0) continue;
    if (role_ == Role::kStandby && peer.role != Role::kLeader) continue;
    double quality = peer.mean_score;
    if (!resource_class.empty()) {
      const auto it = peer.class_scores.find(resource_class);
      if (it != peer.class_scores.end()) quality = it->second;
    }
    const double score =
        (quality + 1e-9) / (1.0 + static_cast<double>(peer.queue_depth));
    if (best == nullptr || score > best_score) {
      best = &peer;
      best_score = score;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->config.name;
}

Result<FederationRouter::Forwarded> FederationRouter::forward(
    const std::string& peer, const std::string& user,
    const std::string& partition, const Json& payload) {
  PeerConfig config;
  {
    std::scoped_lock lock(mutex_);
    const auto it = std::find_if(
        peers_.begin(), peers_.end(),
        [&](const PeerView& p) { return p.config.name == peer; });
    if (it == peers_.end()) {
      return common::err::not_found("unknown federation peer '" + peer +
                                    "'");
    }
    config = it->config;
  }
  net::HttpClient client(config.port);
  if (!config.admin_key.empty()) {
    client.set_default_header("X-Admin-Key", config.admin_key);
  }
  Json body = Json::object();
  body["user"] = user;
  if (!partition.empty()) body["partition"] = partition;
  body["payload"] = payload;
  auto response = client.post("/admin/federation/submit", body.dump());
  if (!response.ok()) {
    if (forward_failures_ != nullptr) forward_failures_->increment();
    return response.error();
  }
  if (response.value().status != 201) {
    if (forward_failures_ != nullptr) forward_failures_->increment();
    return common::err::unavailable(
        "peer '" + peer + "' rejected the forwarded submission (HTTP " +
        std::to_string(response.value().status) + ")");
  }
  auto parsed = Json::parse(response.value().body);
  if (!parsed.ok()) {
    if (forward_failures_ != nullptr) forward_failures_->increment();
    return common::err::protocol("peer '" + peer +
                                 "' answered unparseable JSON");
  }
  Forwarded forwarded;
  forwarded.peer = peer;
  forwarded.remote_id = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, store::int_or(parsed.value(), "job_id", 0)));
  forwarded.resource = store::string_or(parsed.value(), "resource");
  if (forwards_ != nullptr) forwards_->increment();
  return forwarded;
}

Role FederationRouter::role() const {
  std::scoped_lock lock(mutex_);
  return role_;
}

Result<std::uint64_t> FederationRouter::promote() {
  std::scoped_lock lock(mutex_);
  std::uint64_t next = epoch_ + 1;
  if (!data_dir_.empty()) {
    auto durable = read_epoch(data_dir_);
    if (!durable.ok()) return durable.error();
    next = std::max(epoch_, durable.value()) + 1;
    QCENV_RETURN_IF_ERROR(write_epoch(data_dir_, next));
  }
  epoch_ = next;
  role_ = Role::kLeader;
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->set(static_cast<double>(epoch_));
  }
  if (role_gauge_ != nullptr) role_gauge_->set(1);
  if (promotions_ != nullptr) promotions_->increment();
  if (events_ != nullptr) {
    events_->log(clock_->now(), telemetry::Severity::kWarn,
                 "leader_promoted",
                 "'" + options_.self + "' promoted to federation leader "
                 "(epoch " + std::to_string(epoch_) + ")");
  }
  return epoch_;
}

void FederationRouter::demote() {
  std::scoped_lock lock(mutex_);
  if (role_ == Role::kStandby) return;
  role_ = Role::kStandby;
  if (role_gauge_ != nullptr) role_gauge_->set(0);
  if (events_ != nullptr) {
    events_->log(clock_->now(), telemetry::Severity::kWarn,
                 "leader_demoted",
                 "'" + options_.self + "' demoted to federation standby");
  }
}

std::uint64_t FederationRouter::epoch() const {
  std::scoped_lock lock(mutex_);
  return epoch_;
}

void FederationRouter::set_epoch(std::uint64_t epoch) {
  std::scoped_lock lock(mutex_);
  epoch_ = epoch;
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->set(static_cast<double>(epoch_));
  }
}

void FederationRouter::set_data_dir(std::string data_dir) {
  std::scoped_lock lock(mutex_);
  data_dir_ = std::move(data_dir);
}

std::vector<PeerView> FederationRouter::peers() const {
  std::scoped_lock lock(mutex_);
  return peers_;
}

Json FederationRouter::status_json() const {
  const LocalStatus local = local_status_ ? local_status_() : LocalStatus{};
  std::scoped_lock lock(mutex_);
  Json out = Json::object();
  out["enabled"] = options_.enabled;
  out["self"] = options_.self;
  out["role"] = to_string(role_);
  out["epoch"] = static_cast<long long>(epoch_);
  out["queue_depth"] = static_cast<long long>(local.queue_depth);
  Json peers = Json::array();
  for (const auto& peer : peers_) peers.push_back(peer.to_json());
  out["peers"] = std::move(peers);
  return out;
}

}  // namespace qcenv::federation
