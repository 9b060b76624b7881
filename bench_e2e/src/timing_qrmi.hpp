// Bench-side QRMI decorator for the traced run: forwards every call to the
// wrapped resource (a LocalEmulatorQrmi) and times it from the outside, so
// the qrmi/dispatcher/broker per-layer numbers need no tracing in the
// daemon. The dispatcher's lane drives it through Qrmi::run_sync exactly
// as it drives the bare emulator.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "qrmi/qrmi.hpp"

namespace qcenv::bench_e2e {

std::int64_t steady_now_ns();

class TimingQrmi final : public qrmi::Qrmi {
 public:
  explicit TimingQrmi(qrmi::QrmiPtr inner) : inner_(std::move(inner)) {}

  /// Asked after each task_result: does the daemon still have queued
  /// work? Only gaps that follow a "yes" count as dispatch gaps, so idle
  /// time with an empty queue is not charged to the dispatcher. Clear it
  /// (nullptr) before the daemon it reads goes away.
  void set_pending_probe(std::function<bool()> probe);

  struct Report {
    std::vector<double> start_us, status_us, result_us;
    std::vector<double> exec_ms;  // task_start return -> first terminal poll
    std::vector<double> gap_ms;   // task_result return -> next task_start
    std::vector<double> polls;    // task_status calls per task
    std::int64_t busy_ns = 0;     // task_start call -> task_result return
    std::uint64_t tasks = 0;
    void merge(const Report& other);
  };
  Report report() const;

  std::string resource_id() const override { return inner_->resource_id(); }
  qrmi::ResourceType type() const override { return inner_->type(); }
  common::Result<bool> is_accessible() override {
    return inner_->is_accessible();
  }
  common::Result<std::string> acquire() override { return inner_->acquire(); }
  common::Status release(const std::string& token) override {
    return inner_->release(token);
  }
  common::Result<std::string> task_start(
      const quantum::Payload& payload) override;
  common::Result<qrmi::TaskStatus> task_status(
      const std::string& task_id) override;
  common::Result<quantum::Samples> task_result(
      const std::string& task_id) override;
  common::Status task_stop(const std::string& task_id) override;
  common::Result<quantum::DeviceSpec> target() override {
    return inner_->target();
  }
  common::Json metadata() override { return inner_->metadata(); }

 private:
  struct Task {
    std::int64_t called = 0;    // task_start entered
    std::int64_t started = 0;   // task_start returned
    std::int64_t done = 0;      // first terminal task_status returned
    std::uint64_t polls = 0;
  };

  qrmi::QrmiPtr inner_;
  mutable std::mutex mutex_;
  std::function<bool()> pending_probe_;
  std::unordered_map<std::string, Task> tasks_;
  Report report_;
  std::int64_t last_result_end_ = 0;
  bool pending_after_last_ = false;
};

}  // namespace qcenv::bench_e2e
