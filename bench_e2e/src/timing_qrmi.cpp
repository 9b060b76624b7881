#include "timing_qrmi.hpp"

#include <chrono>

namespace qcenv::bench_e2e {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
}  // namespace

void TimingQrmi::Report::merge(const Report& other) {
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(start_us, other.start_us);
  append(status_us, other.status_us);
  append(result_us, other.result_us);
  append(exec_ms, other.exec_ms);
  append(gap_ms, other.gap_ms);
  append(polls, other.polls);
  busy_ns += other.busy_ns;
  tasks += other.tasks;
}

void TimingQrmi::set_pending_probe(std::function<bool()> probe) {
  std::scoped_lock lock(mutex_);
  pending_probe_ = std::move(probe);
}

TimingQrmi::Report TimingQrmi::report() const {
  std::scoped_lock lock(mutex_);
  return report_;
}

common::Result<std::string> TimingQrmi::task_start(
    const quantum::Payload& payload) {
  const std::int64_t called = steady_now_ns();
  auto id = inner_->task_start(payload);
  const std::int64_t started = steady_now_ns();
  std::scoped_lock lock(mutex_);
  report_.start_us.push_back(us(started - called));
  if (pending_after_last_) {
    report_.gap_ms.push_back(ms(called - last_result_end_));
    pending_after_last_ = false;
  }
  if (id.ok()) tasks_[id.value()] = Task{called, started, 0, 0};
  return id;
}

common::Result<qrmi::TaskStatus> TimingQrmi::task_status(
    const std::string& task_id) {
  const std::int64_t called = steady_now_ns();
  auto status = inner_->task_status(task_id);
  const std::int64_t returned = steady_now_ns();
  std::scoped_lock lock(mutex_);
  report_.status_us.push_back(us(returned - called));
  const auto it = tasks_.find(task_id);
  if (it != tasks_.end()) {
    ++it->second.polls;
    if (status.ok() && qrmi::is_terminal(status.value()) &&
        it->second.done == 0) {
      it->second.done = returned;
      report_.exec_ms.push_back(ms(returned - it->second.started));
    }
  }
  return status;
}

common::Result<quantum::Samples> TimingQrmi::task_result(
    const std::string& task_id) {
  const std::int64_t called = steady_now_ns();
  auto samples = inner_->task_result(task_id);
  const std::int64_t returned = steady_now_ns();
  std::scoped_lock lock(mutex_);
  // Under the lock on purpose: once set_pending_probe(nullptr) returns, no
  // probe is running, so the daemon it reads may be torn down. The probe
  // is one atomic load and takes no lock of its own.
  const bool pending = pending_probe_ && pending_probe_();
  report_.result_us.push_back(us(returned - called));
  const auto it = tasks_.find(task_id);
  if (it != tasks_.end()) {
    report_.busy_ns += returned - it->second.called;
    report_.polls.push_back(static_cast<double>(it->second.polls));
    ++report_.tasks;
    tasks_.erase(it);
  }
  last_result_end_ = returned;
  pending_after_last_ = pending;
  return samples;
}

common::Status TimingQrmi::task_stop(const std::string& task_id) {
  auto stopped = inner_->task_stop(task_id);
  std::scoped_lock lock(mutex_);
  tasks_.erase(task_id);
  return stopped;
}

}  // namespace qcenv::bench_e2e
