#include "fhg/wal/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <system_error>

#include "fhg/coding/crc32.hpp"
#include "fhg/engine/records.hpp"

namespace fhg::wal {

namespace fs = std::filesystem;
using engine::records::CommittedBatch;

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'F', 'H', 'G', 'W'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 4 + 4 + 8;  // magic, version, generation
constexpr std::size_t kFrameHeaderBytes = 4 + 4;        // payload length, crc32
/// Upper bound on one record's payload — far above any real batch, low
/// enough that a corrupt length field cannot trigger a huge allocation.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 30;

void put_be32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_be64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_be32(out, static_cast<std::uint32_t>(v >> 32));
  put_be32(out, static_cast<std::uint32_t>(v));
}

[[nodiscard]] std::uint32_t get_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

[[nodiscard]] std::uint64_t get_be64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(get_be32(p)) << 32) | get_be32(p + 4);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), "wal: " + what);
}

/// write(2) until everything landed (or throw).  A kill -9 mid-call leaves a
/// prefix of the frame in the file — the torn tail recovery truncates.
void full_write(int fd, std::span<const std::uint8_t> bytes, const std::string& what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("write " + what);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    throw_errno("fsync " + what);
  }
}

/// fsync the directory itself, making renames/unlinks/creations durable.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw_errno("open dir " + dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw_errno("fsync dir " + dir);
  }
}

[[nodiscard]] std::string segment_name(std::size_t shard, std::uint64_t generation) {
  return "wal-" + std::to_string(shard) + "-" + std::to_string(generation) + ".log";
}

constexpr const char* kSnapshotName = "snapshot.fhg";
constexpr const char* kSnapshotTmpName = "snapshot.tmp";

/// One `wal-<shard>-<generation>.log` found on disk.
struct SegmentFile {
  std::size_t shard = 0;
  std::uint64_t generation = 0;
  fs::path path;
};

/// Parses a segment filename; false for anything else in the directory.
bool parse_segment_name(const std::string& name, SegmentFile& out) {
  if (!name.starts_with("wal-") || !name.ends_with(".log")) {
    return false;
  }
  const std::string body = name.substr(4, name.size() - 8);
  const std::size_t dash = body.find('-');
  if (dash == std::string::npos) {
    return false;
  }
  try {
    std::size_t used = 0;
    const std::string shard_text = body.substr(0, dash);
    const std::string gen_text = body.substr(dash + 1);
    out.shard = std::stoull(shard_text, &used);
    if (used != shard_text.size()) {
      return false;
    }
    out.generation = std::stoull(gen_text, &used);
    return used == gen_text.size();
  } catch (const std::exception&) {
    return false;
  }
}

[[nodiscard]] std::vector<SegmentFile> list_segments(const std::string& dir) {
  std::vector<SegmentFile> segments;
  if (!fs::exists(dir)) {
    return segments;
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    SegmentFile seg;
    if (entry.is_regular_file() && parse_segment_name(entry.path().filename().string(), seg)) {
      seg.path = entry.path();
      segments.push_back(std::move(seg));
    }
  }
  // Deterministic order: shard, then generation.
  std::sort(segments.begin(), segments.end(), [](const SegmentFile& a, const SegmentFile& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.generation < b.generation;
  });
  return segments;
}

[[nodiscard]] std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("wal: cannot read " + path.string());
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

/// What parsing one segment produced: every complete record, plus where the
/// valid prefix ends (== file size when the segment is fully intact).
struct SegmentParse {
  std::vector<CommittedBatch> batches;
  std::uint64_t good_offset = 0;
  bool intact = false;
};

/// Parses `bytes` as a segment.  Incomplete data at the tail comes back as
/// `intact == false` with `good_offset` marking the last whole record — the
/// caller decides whether that is a legal torn tail (newest segment) or
/// corruption (anything older).  Structurally impossible content (wrong
/// magic/version — which no torn *append* can produce) always throws.
SegmentParse parse_segment(std::span<const std::uint8_t> bytes, const SegmentFile& seg) {
  SegmentParse out;
  if (bytes.size() < kSegmentHeaderBytes) {
    // Killed while writing the header of a fresh segment (or previously
    // truncated to zero): no records, everything from offset 0 is tail.
    return out;
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    throw std::runtime_error("wal: " + seg.path.string() + " is not a WAL segment (bad magic)");
  }
  const std::uint32_t version = get_be32(bytes.data() + 4);
  if (version != kFormatVersion) {
    throw std::runtime_error("wal: " + seg.path.string() + " has unsupported format version " +
                             std::to_string(version));
  }
  const std::uint64_t generation = get_be64(bytes.data() + 8);
  if (generation != seg.generation) {
    throw std::runtime_error("wal: " + seg.path.string() + " header names generation " +
                             std::to_string(generation));
  }
  std::size_t off = kSegmentHeaderBytes;
  out.good_offset = off;
  while (off < bytes.size()) {
    if (bytes.size() - off < kFrameHeaderBytes) {
      return out;  // partial frame header
    }
    const std::uint64_t length = get_be32(bytes.data() + off);
    const std::uint32_t expected_crc = get_be32(bytes.data() + off + 4);
    if (length == 0 || length > kMaxPayloadBytes ||
        length > bytes.size() - off - kFrameHeaderBytes) {
      return out;  // partial payload (or garbage length — CRC can't vouch)
    }
    const auto payload = bytes.subspan(off + kFrameHeaderBytes, length);
    if (coding::crc32(payload) != expected_crc) {
      return out;  // torn mid-payload
    }
    try {
      out.batches.push_back(engine::records::decode_batch(payload));
    } catch (const std::exception& e) {
      throw std::runtime_error("wal: " + seg.path.string() + " record at offset " +
                               std::to_string(off) + " passed its checksum but failed to " +
                               "decode: " + e.what());
    }
    off += kFrameHeaderBytes + length;
    out.good_offset = off;
  }
  out.intact = true;
  return out;
}

/// Stable 64-bit FNV-1a — the instance→shard map must survive restarts, so
/// no `std::hash` (its value is implementation-detail).
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Microseconds since `start`, saturated at zero.
std::uint64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  return us.count() > 0 ? static_cast<std::uint64_t>(us.count()) : 0;
}

}  // namespace

// -- Manager ------------------------------------------------------------------

Manager::Telemetry::Telemetry(obs::Registry& registry)
    : appends(registry.counter("fhg_wal_appends_total")),
      append_bytes(registry.counter("fhg_wal_append_bytes_total")),
      fsyncs(registry.counter("fhg_wal_fsyncs_total")),
      compactions(registry.counter("fhg_wal_compactions_total")),
      replayed_batches(registry.counter("fhg_wal_replayed_batches_total")),
      replayed_commands(registry.counter("fhg_wal_replayed_commands_total")),
      skipped_batches(registry.counter("fhg_wal_skipped_batches_total")),
      torn_bytes(registry.counter("fhg_wal_torn_bytes_total")),
      live_bytes(registry.gauge("fhg_wal_live_bytes")),
      segments(registry.gauge("fhg_wal_segments")),
      last_durable_holiday(registry.gauge("fhg_wal_last_durable_holiday")),
      append_us(registry.histogram("fhg_wal_append_us")) {}

Manager::Manager(engine::Engine& engine, WalOptions options)
    : engine_(engine), options_(std::move(options)), telemetry_(engine.metrics()) {
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw std::system_error(ec, "wal: cannot create " + options_.dir);
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Never reuse a generation a previous process wrote to: new appends must
  // go to fresh files whatever state recovery finds.
  std::uint64_t max_generation = 0;
  for (const SegmentFile& seg : list_segments(options_.dir)) {
    max_generation = std::max(max_generation, seg.generation);
  }
  generation_.store(max_generation + 1, std::memory_order_relaxed);
  if (options_.compact_every > 0) {
    compactor_ = std::thread([this] { compactor_loop(); });
  }
}

Manager::~Manager() {
  if (compactor_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(compactor_mutex_);
      stopping_ = true;
    }
    compactor_cv_.notify_all();
    compactor_.join();
  }
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->fd >= 0) {
      (void)::fsync(shard->fd);  // best effort; destructors must not throw
      (void)::close(shard->fd);
      shard->fd = -1;
    }
  }
}

bool Manager::has_state(const std::string& dir) {
  if (fs::exists(fs::path(dir) / kSnapshotName)) {
    return true;
  }
  return !list_segments(dir).empty();
}

std::size_t Manager::shard_of(std::string_view instance) const noexcept {
  return static_cast<std::size_t>(fnv1a(instance) % shards_.size());
}

void Manager::open_segment_locked(std::size_t index, Shard& shard) {
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  const fs::path path = fs::path(options_.dir) / segment_name(index, generation);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw_errno("create segment " + path.string());
  }
  std::vector<std::uint8_t> header(kMagic.begin(), kMagic.end());
  put_be32(header, kFormatVersion);
  put_be64(header, generation);
  try {
    full_write(fd, header, path.string());
  } catch (...) {
    ::close(fd);
    throw;
  }
  shard.fd = fd;
  shard.generation = generation;
  shard.unsynced = 0;
  telemetry_.segments.add(1);
  telemetry_.live_bytes.add(static_cast<std::int64_t>(header.size()));
}

void Manager::on_commit(const engine::WalCommit& commit) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::uint8_t> payload = engine::records::encode_batch(commit);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  put_be32(frame, static_cast<std::uint32_t>(payload.size()));
  put_be32(frame, coding::crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());

  Shard& shard = *shards_[shard_of(commit.instance)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.fd < 0) {
      open_segment_locked(shard_of(commit.instance), shard);
    }
    full_write(shard.fd, frame, "segment append");
    ++shard.unsynced;
    if (options_.fsync_every > 0 && shard.unsynced >= options_.fsync_every) {
      fsync_or_throw(shard.fd, "segment");
      shard.unsynced = 0;
      telemetry_.fsyncs.increment();
    }
  }
  telemetry_.appends.increment();
  telemetry_.append_bytes.add(frame.size());
  telemetry_.live_bytes.add(static_cast<std::int64_t>(frame.size()));
  telemetry_.last_durable_holiday.record_max(static_cast<std::int64_t>(commit.holiday));
  telemetry_.append_us.record(elapsed_us(start));
  if (options_.compact_every > 0) {
    bool kick = false;
    {
      const std::lock_guard<std::mutex> lock(compactor_mutex_);
      kick = ++appends_since_compact_ >= options_.compact_every;
    }
    if (kick) {
      compactor_cv_.notify_one();
    }
  }
}

RecoveryReport Manager::recover() {
  RecoveryReport report;
  const fs::path dir(options_.dir);

  // A leftover snapshot.tmp is an interrupted compaction: the previous base
  // snapshot (if any) is still authoritative.
  std::error_code ec;
  fs::remove(dir / kSnapshotTmpName, ec);

  if (fs::exists(dir / kSnapshotName)) {
    const std::vector<std::uint8_t> bytes = read_file(dir / kSnapshotName);
    engine_.load_snapshot(bytes);
    report.snapshot_loaded = true;
  }

  // Read every segment; torn tails are legal only in a shard's newest
  // generation (older segments were sealed by a later segment's creation).
  const std::vector<SegmentFile> segments = list_segments(options_.dir);
  std::map<std::size_t, std::uint64_t> newest;  // shard -> max generation on disk
  for (const SegmentFile& seg : segments) {
    newest[seg.shard] = std::max(newest[seg.shard], seg.generation);
  }
  std::vector<CommittedBatch> durable;
  std::uint64_t max_generation = 0;
  std::int64_t live_bytes = 0;
  for (const SegmentFile& seg : segments) {
    max_generation = std::max(max_generation, seg.generation);
    const std::vector<std::uint8_t> bytes = read_file(seg.path);
    SegmentParse parsed = parse_segment(bytes, seg);
    if (!parsed.intact) {
      if (seg.generation != newest[seg.shard]) {
        throw std::runtime_error("wal: " + seg.path.string() +
                                 " is damaged mid-log (valid prefix " +
                                 std::to_string(parsed.good_offset) + " of " +
                                 std::to_string(bytes.size()) +
                                 " bytes) but newer segments exist — corruption, not a torn "
                                 "tail; refusing to recover");
      }
      const std::uint64_t torn = bytes.size() - parsed.good_offset;
      // Truncate the tail away so the file replays cleanly forever after
      // (once a newer generation exists it is no longer "newest").
      if (::truncate(seg.path.c_str(), static_cast<off_t>(parsed.good_offset)) != 0) {
        throw_errno("truncate torn tail of " + seg.path.string());
      }
      report.torn_bytes += torn;
      telemetry_.torn_bytes.add(torn);
    }
    live_bytes += static_cast<std::int64_t>(parsed.good_offset);
    ++report.segments;
    for (CommittedBatch& batch : parsed.batches) {
      durable.push_back(std::move(batch));
    }
  }
  telemetry_.segments.set(static_cast<std::int64_t>(report.segments));
  telemetry_.live_bytes.set(live_bytes);

  // Replay in per-instance sequence order.  All of one instance's records
  // live in one shard (stable name hash) in append order, but sorting by
  // (instance, batch_index) makes replay independent of shard layout — the
  // index is the authoritative order.
  std::stable_sort(durable.begin(), durable.end(),
                   [](const CommittedBatch& a, const CommittedBatch& b) {
                     return a.instance != b.instance ? a.instance < b.instance
                                                     : a.batch_index < b.batch_index;
                   });
  std::string current_instance;
  std::uint64_t have = 0;
  for (const CommittedBatch& batch : durable) {
    if (batch.instance != current_instance) {
      const std::shared_ptr<engine::Instance> instance = engine_.find(batch.instance);
      if (!instance) {
        throw std::runtime_error("wal: durable batch references unknown instance '" +
                                 batch.instance + "' (base snapshot predates it?)");
      }
      current_instance = batch.instance;
      have = instance->batch_count();
    }
    if (batch.batch_index < have) {
      ++report.skipped_batches;  // already inside the base snapshot
      telemetry_.skipped_batches.increment();
      continue;
    }
    if (batch.batch_index > have) {
      throw std::runtime_error("wal: instance '" + batch.instance + "' has " +
                               std::to_string(have) + " batches but the next durable record " +
                               "is index " + std::to_string(batch.batch_index) +
                               " — log gap, refusing to recover");
    }
    (void)engine_.wal_replay_batch(batch.instance, batch.commands, batch.record);
    ++have;
    ++report.replayed_batches;
    report.replayed_commands += batch.commands.size();
    telemetry_.replayed_batches.increment();
    telemetry_.replayed_commands.add(batch.commands.size());
    telemetry_.last_durable_holiday.record_max(static_cast<std::int64_t>(batch.holiday));
  }

  generation_.store(max_generation + 1, std::memory_order_release);
  return report;
}

void Manager::compact() {
  const std::lock_guard<std::mutex> compact_lock(compact_mutex_);
  // Phase 1 — rotate: future appends go to generation >= G.  Shard locks
  // only; never held across the snapshot below.
  const std::uint64_t keep_from = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->fd >= 0) {
      (void)::close(shard->fd);
      shard->fd = -1;
    }
  }
  // Phase 2 — base snapshot (instance locks only).  Every record in a
  // pre-rotation segment committed before its shard closed, hence before
  // this snapshot read its instance: the snapshot covers all of them.
  // Records racing into generation-G segments may be double-covered; replay
  // skips them by batch index.
  const std::vector<std::uint8_t> bytes = engine_.snapshot();
  const fs::path dir(options_.dir);
  const fs::path tmp = dir / kSnapshotTmpName;
  const fs::path final_path = dir / kSnapshotName;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw_errno("create " + tmp.string());
  }
  try {
    full_write(fd, bytes, tmp.string());
    fsync_or_throw(fd, tmp.string());
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    throw std::system_error(ec, "wal: rename " + tmp.string());
  }
  fsync_dir(options_.dir);
  // Phase 3 — drop superseded segments: everything below the rotation
  // point is covered by the snapshot just published.
  for (const SegmentFile& seg : list_segments(options_.dir)) {
    if (seg.generation >= keep_from) {
      continue;
    }
    const std::uint64_t size = fs::file_size(seg.path, ec);
    if (!ec && fs::remove(seg.path, ec) && !ec) {
      telemetry_.segments.add(-1);
      telemetry_.live_bytes.add(-static_cast<std::int64_t>(size));
    }
  }
  fsync_dir(options_.dir);
  telemetry_.compactions.increment();
  {
    const std::lock_guard<std::mutex> lock(compactor_mutex_);
    appends_since_compact_ = 0;
  }
}

void Manager::compactor_loop() {
  std::unique_lock<std::mutex> lock(compactor_mutex_);
  while (true) {
    compactor_cv_.wait(lock, [this] {
      return stopping_ || appends_since_compact_ >= options_.compact_every;
    });
    if (stopping_) {
      return;
    }
    lock.unlock();
    compact();  // resets appends_since_compact_ under the lock
    lock.lock();
  }
}

engine::WalSinkStats Manager::stats() const {
  engine::WalSinkStats stats;
  stats.last_durable_holiday =
      static_cast<std::uint64_t>(telemetry_.last_durable_holiday.value());
  stats.wal_bytes = static_cast<std::uint64_t>(telemetry_.live_bytes.value());
  stats.segments = static_cast<std::uint64_t>(telemetry_.segments.value());
  stats.appends = telemetry_.appends.value();
  stats.fsyncs = telemetry_.fsyncs.value();
  stats.compactions = telemetry_.compactions.value();
  stats.replayed_batches = telemetry_.replayed_batches.value();
  stats.replayed_commands = telemetry_.replayed_commands.value();
  stats.skipped_batches = telemetry_.skipped_batches.value();
  stats.torn_bytes = telemetry_.torn_bytes.value();
  return stats;
}

}  // namespace fhg::wal
