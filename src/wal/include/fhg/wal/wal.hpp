#pragma once

/// \file wal.hpp
/// `fhg::wal` — per-shard write-ahead logging for the engine's mutation path.
///
/// `Manager` implements `engine::WalSink`: once attached via
/// `Engine::attach_wal`, every committed `ApplyMutations` batch is appended
/// (the `engine::records` committed-batch payload, CRC-framed) to one of
/// `shards` log files *before* the period table republishes —
/// durable-then-visible.  Restart recovery
/// (`recover()`) loads the newest base snapshot, replays every durable batch
/// through the bulk/in-place path its record names, skips batches the
/// snapshot already contains (per-instance `batch_index` sequence numbers
/// make replay idempotent), truncates torn tails, and leaves the engine
/// byte-identical to an uninterrupted run of the same mutation stream.
/// `compact()` bounds log growth: rotate segments to a new generation, write
/// a fresh base snapshot, delete superseded segments.  See
/// `src/wal/README.md` for the on-disk format.
///
/// Locking: `on_commit` runs under the committing instance's mutex and takes
/// only its shard's mutex (instance mutex → shard mutex, never the reverse).
/// Compaction never holds a shard lock while snapshotting — it rotates
/// first (shard locks only), then snapshots (instance locks only) — so the
/// two paths cannot deadlock; records appended between rotation and snapshot
/// are double-covered and skipped at replay.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fhg/engine/engine.hpp"
#include "fhg/engine/wal_sink.hpp"
#include "fhg/obs/registry.hpp"

namespace fhg::wal {

/// Construction-time knobs of a `Manager`.
struct WalOptions {
  std::string dir;              ///< log directory (created if missing)
  std::size_t shards = 4;       ///< log files appends spread over (min 1)
  /// fsync policy: 0 = never fsync on append (page cache only — survives
  /// kill -9, not power loss), 1 = fsync every append, N = fsync every N
  /// appends per shard.
  std::uint64_t fsync_every = 1;
  /// Auto-compaction: snapshot + truncate after this many appends
  /// (0 = compact only on `compact()` / instance-lifecycle events).
  std::uint64_t compact_every = 0;
};

/// What one `recover()` call did.
struct RecoveryReport {
  bool snapshot_loaded = false;        ///< a base snapshot existed and was restored
  std::uint64_t segments = 0;          ///< log segment files read
  std::uint64_t replayed_batches = 0;  ///< batches re-applied to the engine
  std::uint64_t replayed_commands = 0; ///< commands across those batches
  std::uint64_t skipped_batches = 0;   ///< durable batches the snapshot already held
  std::uint64_t torn_bytes = 0;        ///< torn-tail bytes truncated away
};

/// The write-ahead log manager: the concrete `engine::WalSink`.
///
/// Lifecycle: construct over a (possibly empty, possibly crash-leftover)
/// directory, call `recover()` exactly once to bring the engine up to the
/// durable state, then `Engine::attach_wal(&manager)`.  The manager must
/// outlive the engine's use of it; detach (or destroy the engine) first.
class Manager final : public engine::WalSink {
 public:
  /// Binds to `engine` (used by recovery and compaction; metrics register on
  /// `engine.metrics()` under `fhg_wal_*`).  Creates `options.dir` if
  /// missing.  Throws `std::system_error` on filesystem errors.
  Manager(engine::Engine& engine, WalOptions options);

  /// Flushes and closes every open segment; stops the auto-compaction
  /// thread.  Does not compact — a crash-consistent state is left behind by
  /// construction.
  ~Manager() override;

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// True when `dir` holds durable state (a base snapshot or any log
  /// segment) — the "restore instead of build" startup predicate.
  [[nodiscard]] static bool has_state(const std::string& dir);

  [[nodiscard]] const WalOptions& options() const noexcept { return options_; }

  /// Restores the base snapshot (when present) and replays every durable
  /// batch, in per-instance `batch_index` order, through its recorded
  /// routing path.  Torn tails — incomplete or CRC-failing data at the end
  /// of a shard's newest segment — are truncated off and counted; the same
  /// damage in an *older* segment is real corruption and throws
  /// `std::runtime_error`, as do records referencing unknown instances or
  /// leaving sequence gaps.  Call once, before attaching and serving.
  RecoveryReport recover();

  /// Snapshot + truncate: rotates every shard to a new generation, writes
  /// the engine state to `snapshot.fhg` (atomic tmp + rename + dir fsync),
  /// then deletes all pre-rotation segments.  Safe against concurrent
  /// commits (they land in the new generation and replay idempotently).
  void compact();

  // -- engine::WalSink --------------------------------------------------------

  /// Appends the batch to its instance's shard and applies the fsync
  /// policy.  Called by the engine under the instance mutex; throws
  /// `std::system_error` when the write cannot be made durable (the engine
  /// then leaves the batch invisible — see `wal_sink.hpp`).
  void on_commit(const engine::WalCommit& commit) override;

  /// Instance created or erased: compact synchronously, so no surviving
  /// segment ever references a tenant its base snapshot does not know.
  void on_lifecycle() override { compact(); }

  [[nodiscard]] engine::WalSinkStats stats() const override;

 private:
  struct Shard {
    std::mutex mutex;
    int fd = -1;                    ///< open segment, or -1 (opened on demand)
    std::uint64_t generation = 0;   ///< generation of the open segment
    std::uint64_t unsynced = 0;     ///< appends since the last fsync
  };

  /// Registered `fhg_wal_*` handles (engine metrics registry).
  struct Telemetry {
    explicit Telemetry(obs::Registry& registry);
    obs::Counter& appends;
    obs::Counter& append_bytes;
    obs::Counter& fsyncs;
    obs::Counter& compactions;
    obs::Counter& replayed_batches;
    obs::Counter& replayed_commands;
    obs::Counter& skipped_batches;
    obs::Counter& torn_bytes;
    obs::Gauge& live_bytes;          ///< bytes across live segments
    obs::Gauge& segments;            ///< live segment files
    obs::Gauge& last_durable_holiday;
    obs::HistogramCell& append_us;   ///< on_commit wall time (µs)
  };

  /// Shard index of `instance` (stable FNV-1a — not `std::hash`, whose
  /// value may differ across builds while log files persist).
  [[nodiscard]] std::size_t shard_of(std::string_view instance) const noexcept;

  /// Opens (creating) `shard`'s segment at the current generation and
  /// writes the segment header.  Caller holds the shard mutex.
  void open_segment_locked(std::size_t index, Shard& shard);

  /// The auto-compaction thread body.
  void compactor_loop();

  engine::Engine& engine_;
  WalOptions options_;
  Telemetry telemetry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> generation_{1};  ///< generation new segments open at

  std::mutex compact_mutex_;  ///< serializes compact() bodies

  // Auto-compaction plumbing (active only when options_.compact_every > 0).
  std::mutex compactor_mutex_;
  std::condition_variable compactor_cv_;
  std::uint64_t appends_since_compact_ = 0;
  bool stopping_ = false;
  std::thread compactor_;
};

}  // namespace fhg::wal
