#include "federation/replication.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"
#include "federation/federation.hpp"
#include "net/http_client.hpp"
#include "store/fsio.hpp"
#include "store/journal.hpp"
#include "store/snapshot.hpp"

#define QCENV_LOG_COMPONENT "federation.replication"
#include "common/logging.hpp"

namespace qcenv::federation {

using common::Result;
using common::Status;

namespace {

std::string journal_path(const std::string& dir) {
  return dir + "/journal.log";
}

std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.json";
}

Result<std::string> read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return common::err::not_found("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Strict decimal parse for replication response headers.
Result<std::uint64_t> header_u64(const net::HttpResponse& response,
                                 const std::string& name) {
  const auto it = response.headers.find(name);
  if (it == response.headers.end()) {
    return common::err::protocol("replication response is missing the " +
                                 name + " header");
  }
  auto value =
      common::parse_decimal(it->second, "replication header " + name);
  if (!value.ok()) return common::err::protocol(value.error().message());
  return value;
}

}  // namespace

FileReplicationSource::FileReplicationSource(std::string data_dir)
    : dir_(std::move(data_dir)) {}

void FileReplicationSource::set_data_dir(std::string data_dir) {
  std::scoped_lock lock(mutex_);
  dir_ = std::move(data_dir);
  cursor_seq_ = 0;
  cursor_offset_ = 0;
  cursor_inode_ = 0;
}

void FileReplicationSource::set_partitioned(bool partitioned) {
  std::scoped_lock lock(mutex_);
  partitioned_ = partitioned;
}

void FileReplicationSource::tear_next_segment() {
  std::scoped_lock lock(mutex_);
  tear_next_ = true;
}

Result<WalChunk> FileReplicationSource::fetch_wal(std::uint64_t after_seq,
                                                  std::uint64_t max_bytes) {
  std::scoped_lock lock(mutex_);
  if (partitioned_) {
    return common::err::unavailable("replication link is partitioned");
  }
  const std::string path = journal_path(dir_);
  struct ::stat st {};
  const bool have_stat = ::stat(path.c_str(), &st) == 0;
  const std::uint64_t inode =
      have_stat ? static_cast<std::uint64_t>(st.st_ino) : 0;
  const std::uint64_t file_size =
      have_stat ? static_cast<std::uint64_t>(st.st_size) : 0;
  WalChunk chunk;
  bool served = false;
  if (have_stat && cursor_offset_ > 0 && after_seq != 0 &&
      after_seq == cursor_seq_ && inode == cursor_inode_ &&
      file_size >= cursor_offset_) {
    // Steady-state fast path: the journal grew in place since the last
    // pull, so only the new tail needs reading. Re-walking the whole file
    // every poll is O(journal) each time — an ever-growing drag on the
    // leader's disk that the measured submit path ends up paying.
    if (file_size == cursor_offset_) {
      served = true;  // nothing new since the last pull
    } else {
      const std::uint64_t want =
          std::min(file_size - cursor_offset_, max_bytes);
      std::ifstream in(path, std::ios::binary);
      if (in.is_open()) {
        in.seekg(static_cast<std::streamoff>(cursor_offset_));
        std::string bytes(want, '\0');
        in.read(bytes.data(), static_cast<std::streamsize>(want));
        if (in.gcount() > 0) {
          bytes.resize(static_cast<std::size_t>(in.gcount()));
          const auto prefix =
              store::JobJournal::validate_frames(bytes, after_seq);
          if (prefix.frames > 0) {
            // Journal seqs are dense, so the frame at the cursor is
            // exactly after_seq + 1.
            chunk.first_seq = after_seq + 1;
            chunk.end_seq = prefix.end_seq;
            chunk.durable_seq = prefix.end_seq;
            chunk.bytes = bytes.substr(0, prefix.bytes);
            cursor_seq_ = prefix.end_seq;
            cursor_offset_ += prefix.bytes;
            served = true;
          }
          // 0 clean frames with bytes present: either an append caught
          // mid-write or the file was atomically replaced onto a reused
          // inode — the full rescan below sorts both out.
        }
      }
    }
  }
  if (!served) {
    auto segment =
        store::JobJournal::read_segment_file(path, after_seq, max_bytes);
    if (!segment.ok()) return segment.error();
    chunk.snapshot_needed = segment.value().snapshot_needed;
    chunk.first_seq = segment.value().first_seq;
    chunk.end_seq = segment.value().end_seq;
    chunk.durable_seq = segment.value().durable_seq;
    chunk.bytes = std::move(segment.value().bytes);
    if (have_stat && segment.value().end_seq != 0 &&
        segment.value().next_offset > 0) {
      cursor_seq_ = segment.value().end_seq;
      cursor_offset_ = segment.value().next_offset;
      cursor_inode_ = inode;
    }
  }
  if (chunk.bytes.empty() && !chunk.snapshot_needed) {
    // An empty journal hides a compaction from the frame scan: when the
    // leader folded everything (including the follower's gap) into the
    // snapshot, only snapshot.json knows how far durable state reaches.
    auto snapshot = store::StoreSnapshot::load(snapshot_path(dir_));
    if (snapshot.ok() && snapshot.value().has_value()) {
      const std::uint64_t watermark = std::min(
          snapshot.value()->jobs_seq, snapshot.value()->sessions_seq);
      if (watermark > after_seq) {
        chunk.snapshot_needed = true;
        chunk.durable_seq = std::max(chunk.durable_seq, watermark);
      }
    }
  }
  auto epoch = read_epoch(dir_);
  chunk.leader_epoch = epoch.ok() ? epoch.value() : 0;
  if (tear_next_ && !chunk.bytes.empty()) {
    // Both failure modes of a real link at once: the stream is cut
    // mid-frame AND a surviving byte is flipped. The receiver must keep
    // only the CRC-clean whole-frame prefix and re-request the rest.
    tear_next_ = false;
    if (chunk.bytes.size() > 6) {
      chunk.bytes.resize(chunk.bytes.size() - 5);
    }
    chunk.bytes.back() = static_cast<char>(chunk.bytes.back() ^ 0x5A);
  }
  return chunk;
}

Result<SnapshotChunk> FileReplicationSource::fetch_snapshot() {
  std::scoped_lock lock(mutex_);
  if (partitioned_) {
    return common::err::unavailable("replication link is partitioned");
  }
  const std::string path = snapshot_path(dir_);
  auto loaded = store::StoreSnapshot::load(path);
  if (!loaded.ok()) return loaded.error();
  if (!loaded.value().has_value()) {
    return common::err::not_found("leader has no snapshot at '" + path +
                                  "'");
  }
  auto bytes = read_whole_file(path);
  if (!bytes.ok()) return bytes.error();
  SnapshotChunk chunk;
  chunk.bytes = std::move(bytes).value();
  chunk.watermark = std::min(loaded.value()->jobs_seq,
                             loaded.value()->sessions_seq);
  auto epoch = read_epoch(dir_);
  chunk.leader_epoch = epoch.ok() ? epoch.value() : 0;
  return chunk;
}

HttpReplicationSource::HttpReplicationSource(std::uint16_t leader_port,
                                             std::string admin_key)
    : port_(leader_port), admin_key_(std::move(admin_key)) {}

Result<WalChunk> HttpReplicationSource::fetch_wal(std::uint64_t after_seq,
                                                  std::uint64_t max_bytes) {
  net::HttpClient client(port_);
  client.set_default_header("X-Admin-Key", admin_key_);
  auto response = client.get("/admin/replication/wal?after=" +
                             std::to_string(after_seq) + "&max_bytes=" +
                             std::to_string(max_bytes));
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    return common::err::unavailable("leader answered HTTP " +
                                    std::to_string(response.value().status) +
                                    " to a WAL pull");
  }
  WalChunk chunk;
  auto first = header_u64(response.value(), "X-Replication-First-Seq");
  auto end = header_u64(response.value(), "X-Replication-End-Seq");
  auto durable = header_u64(response.value(), "X-Replication-Durable-Seq");
  auto snapshot = header_u64(response.value(),
                             "X-Replication-Snapshot-Needed");
  auto epoch = header_u64(response.value(), "X-Replication-Epoch");
  if (!first.ok()) return first.error();
  if (!end.ok()) return end.error();
  if (!durable.ok()) return durable.error();
  if (!snapshot.ok()) return snapshot.error();
  if (!epoch.ok()) return epoch.error();
  chunk.first_seq = first.value();
  chunk.end_seq = end.value();
  chunk.durable_seq = durable.value();
  chunk.snapshot_needed = snapshot.value() != 0;
  chunk.leader_epoch = epoch.value();
  chunk.bytes = std::move(response.value().body);
  return chunk;
}

Result<SnapshotChunk> HttpReplicationSource::fetch_snapshot() {
  net::HttpClient client(port_);
  client.set_default_header("X-Admin-Key", admin_key_);
  auto response = client.get("/admin/replication/snapshot");
  if (!response.ok()) return response.error();
  if (response.value().status == 404) {
    return common::err::not_found("leader has no snapshot yet");
  }
  if (response.value().status != 200) {
    return common::err::unavailable("leader answered HTTP " +
                                    std::to_string(response.value().status) +
                                    " to a snapshot pull");
  }
  auto watermark = header_u64(response.value(), "X-Replication-Watermark");
  auto epoch = header_u64(response.value(), "X-Replication-Epoch");
  if (!watermark.ok()) return watermark.error();
  if (!epoch.ok()) return epoch.error();
  SnapshotChunk chunk;
  chunk.watermark = watermark.value();
  chunk.leader_epoch = epoch.value();
  chunk.bytes = std::move(response.value().body);
  return chunk;
}

StandbyReplicator::StandbyReplicator(ReplicatorOptions options,
                                     ReplicationSource* source,
                                     common::Clock* clock,
                                     telemetry::MetricsRegistry* metrics,
                                     telemetry::EventLog* events)
    : options_(std::move(options)),
      source_(source),
      clock_(clock),
      events_(events) {
  if (metrics != nullptr) {
    lag_gauge_ = &metrics->gauge(
        "federation_replication_lag_events", {},
        "events the standby mirror trails the leader's durable WAL by");
    segments_counter_ = &metrics->counter(
        "federation_wal_segments_total", {},
        "WAL segments applied to the standby mirror");
    bytes_counter_ = &metrics->counter(
        "federation_wal_bytes_total", {},
        "WAL bytes applied to the standby mirror");
    torn_counter_ = &metrics->counter(
        "federation_torn_segments_total", {},
        "shipped segments that arrived torn/corrupt and were re-requested");
    catchup_counter_ = &metrics->counter(
        "federation_snapshot_catchups_total", {},
        "snapshot catch-ups (follower cursor predated the leader's "
        "compaction watermark)");
  }
  // Resume from whatever mirror already exists: a restarted standby
  // re-pulls only what it is missing. A mirror that fails to parse is
  // reset — it will be rebuilt from the snapshot + WAL.
  const std::string journal = journal_path(options_.data_dir);
  auto snapshot = store::StoreSnapshot::load(snapshot_path(options_.data_dir));
  if (snapshot.ok() && snapshot.value().has_value()) {
    applied_ = std::min(snapshot.value()->jobs_seq,
                        snapshot.value()->sessions_seq);
  }
  auto entries = store::JobJournal::read_file(journal);
  if (entries.ok()) {
    if (!entries.value().empty()) {
      applied_ = std::max(applied_, entries.value().back().seq);
    }
  } else {
    QCENV_LOG(Warn) << "resetting unreadable standby mirror '" << journal
                    << "': " << entries.error().message();
    (void)store::write_file_atomic(journal, store::wal_v2_magic());
  }
}

Status StandbyReplicator::append_frames(std::string_view bytes) {
  const std::string path = journal_path(options_.data_dir);
  // Seed the magic header the first time — the mirror must be openable
  // by the same JobJournal code the leader uses.
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.is_open() || probe.peek() == std::ifstream::traits_type::eof()) {
      QCENV_RETURN_IF_ERROR(
          store::write_file_atomic(path, store::wal_v2_magic()));
    }
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0600);
  if (fd < 0) {
    return common::err::io("cannot open standby mirror '" + path +
                           "': " + std::strerror(errno));
  }
  const char* data = bytes.data();
  std::size_t size = bytes.size();
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      return common::err::io("cannot append to standby mirror '" + path +
                             "': " + std::strerror(saved));
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    return common::err::io("cannot fsync standby mirror '" + path +
                           "': " + std::strerror(saved));
  }
  ::close(fd);
  return Status::ok_status();
}

Status StandbyReplicator::apply_snapshot(const SnapshotChunk& snapshot) {
  QCENV_RETURN_IF_ERROR(store::write_file_atomic(
      snapshot_path(options_.data_dir), snapshot.bytes));
  // The mirror's WAL tail predates the snapshot; reset it so the next
  // pull appends frames contiguous with the watermark.
  QCENV_RETURN_IF_ERROR(store::write_file_atomic(
      journal_path(options_.data_dir), store::wal_v2_magic()));
  applied_ = snapshot.watermark;
  ++stats_.snapshot_catchups;
  if (catchup_counter_ != nullptr) catchup_counter_->increment();
  if (events_ != nullptr) {
    events_->log(clock_->now(), telemetry::Severity::kInfo,
                 "replication_snapshot_catchup",
                 "standby mirror caught up from the leader snapshot "
                 "(watermark " + std::to_string(snapshot.watermark) + ")");
  }
  return Status::ok_status();
}

Result<std::size_t> StandbyReplicator::poll_once() {
  std::uint64_t after = 0;
  {
    std::scoped_lock lock(mutex_);
    after = applied_;
  }
  auto fetched = source_->fetch_wal(after, options_.max_segment_bytes);
  std::scoped_lock lock(mutex_);
  if (!fetched.ok()) {
    ++stats_.fetch_failures;
    return fetched.error();
  }
  const WalChunk& wal = fetched.value();
  if (wal.leader_epoch < leader_epoch_) {
    // Fencing: a partitioned ex-leader must not roll this mirror back.
    ++stats_.fetch_failures;
    return common::err::failed_precondition(
        "WAL source speaks epoch " + std::to_string(wal.leader_epoch) +
        " but epoch " + std::to_string(leader_epoch_) +
        " was already observed");
  }
  leader_epoch_ = std::max(leader_epoch_, wal.leader_epoch);
  leader_seq_ = std::max(leader_seq_, wal.durable_seq);
  std::size_t applied_frames = 0;
  if (wal.snapshot_needed) {
    auto snapshot = source_->fetch_snapshot();
    if (!snapshot.ok()) {
      ++stats_.fetch_failures;
      return snapshot.error();
    }
    if (snapshot.value().watermark > applied_) {
      QCENV_RETURN_IF_ERROR(apply_snapshot(snapshot.value()));
    }
  } else if (!wal.bytes.empty()) {
    const auto prefix =
        store::JobJournal::validate_frames(wal.bytes, applied_);
    if (prefix.bytes < wal.bytes.size()) {
      ++stats_.torn_segments;
      if (torn_counter_ != nullptr) torn_counter_->increment();
      if (events_ != nullptr) {
        events_->log(clock_->now(), telemetry::Severity::kWarn,
                     "replication_torn_segment",
                     "shipped WAL segment arrived torn after seq " +
                         std::to_string(prefix.end_seq == 0
                                            ? applied_
                                            : prefix.end_seq) +
                         "; clean prefix kept, rest re-requested");
      }
    }
    if (prefix.frames > 0) {
      QCENV_RETURN_IF_ERROR(append_frames(
          std::string_view(wal.bytes).substr(0, prefix.bytes)));
      applied_ = prefix.end_seq;
      applied_frames = static_cast<std::size_t>(prefix.frames);
      ++stats_.segments;
      stats_.frames += prefix.frames;
      stats_.bytes += prefix.bytes;
      if (segments_counter_ != nullptr) segments_counter_->increment();
      if (bytes_counter_ != nullptr) {
        bytes_counter_->increment(static_cast<double>(prefix.bytes));
      }
    }
  }
  last_success_ = clock_->now();
  const std::uint64_t lag =
      leader_seq_ > applied_ ? leader_seq_ - applied_ : 0;
  lag_.record(last_success_, lag);
  if (lag_gauge_ != nullptr) lag_gauge_->set(static_cast<double>(lag));
  return applied_frames;
}

Status StandbyReplicator::catch_up() {
  // Bounded only as a safety net — each iteration either advances the
  // cursor or proves it is caught up.
  for (int i = 0; i < 1000000; ++i) {
    auto applied = poll_once();
    if (!applied.ok()) return applied.error();
    std::scoped_lock lock(mutex_);
    if (applied.value() == 0 && applied_ >= leader_seq_) {
      return Status::ok_status();
    }
  }
  return common::err::internal("replication catch-up did not converge");
}

std::uint64_t StandbyReplicator::applied_seq() const {
  std::scoped_lock lock(mutex_);
  return applied_;
}

std::uint64_t StandbyReplicator::leader_seq() const {
  std::scoped_lock lock(mutex_);
  return leader_seq_;
}

std::uint64_t StandbyReplicator::leader_epoch() const {
  std::scoped_lock lock(mutex_);
  return leader_epoch_;
}

std::uint64_t StandbyReplicator::lag_events() const {
  std::scoped_lock lock(mutex_);
  return leader_seq_ > applied_ ? leader_seq_ - applied_ : 0;
}

common::TimeNs StandbyReplicator::last_success() const {
  std::scoped_lock lock(mutex_);
  return last_success_;
}

StandbyReplicator::Stats StandbyReplicator::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace qcenv::federation
