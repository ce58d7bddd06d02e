#pragma once

/// \file instance.hpp
/// One tenant of the engine: a named scheduler plus its serving state.
///
/// An `Instance` bundles a conflict graph (the construction-time *recipe*
/// topology, owned), the scheduler built from its `InstanceSpec`, a
/// `GapTracker` for fairness audits, and one of two query paths:
///
///  * **periodic** — a `PeriodTable` materialized at construction; queries
///    are O(1) arithmetic, lock-free, and independent of how far the
///    instance has been stepped;
///  * **aperiodic** — a `ReplayIndex` fed by every produced holiday; queries
///    bind to the replayed prefix (extending it on demand) and cost
///    `O(log appearances)`.
///
/// Dynamic tenants (`SchedulerKind::kDynamicPrefixCode`) add a third
/// dimension: `apply_mutations` recolors the live topology **in place** and
/// republishes the period table at a new version.  The table is held behind
/// an atomic `shared_ptr`, so lock-free readers either see the old table or
/// the new one — never a torn or freed table.  A `QuerySnapshot` loads a
/// dynamic tenant's table from here once per instance run, so it answers at
/// the latest version without being rebuilt.  The instance records every
/// applied command in a mutation log; `recipe graph + spec + log` fully
/// determines the schedule, which is what the v2 snapshot format persists.
///
/// Stepping, mutations, and aperiodic queries mutate scheduler state and are
/// serialized by a per-instance mutex, so the `BatchExecutor` can advance
/// thousands of instances from many threads while queries keep landing.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fhg/core/gap_tracker.hpp"
#include "fhg/core/scheduler.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/period_table.hpp"
#include "fhg/engine/replay_index.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::dynamic {
class DynamicSchedulerAdapter;
}  // namespace fhg::dynamic

namespace fhg::engine {

class Engine;
class InstanceRegistry;
class Instance;

namespace detail {
struct SnapshotReplay;  // snapshot restore's private-access shim (snapshot.cpp)
}  // namespace detail
class WalSink;
void restore_registry(InstanceRegistry& registry, std::span<const std::uint8_t> bytes);

/// What one `step` call produced.
struct StepResult {
  std::uint64_t holidays = 0;     ///< holidays advanced
  std::uint64_t total_happy = 0;  ///< Σ |happy set| over those holidays
};

/// What one `apply_mutations` call did.
struct MutationResult {
  std::size_t applied = 0;            ///< commands that changed topology
  std::size_t recolors = 0;           ///< recolor events those commands forced
  std::uint64_t table_version = 0;    ///< table version after the batch
  bool bulk = false;                  ///< batch took the bulk-recolor path
  std::uint64_t jp_rounds = 0;        ///< Jones–Plassmann rounds (bulk only)
  std::uint64_t jp_conflicts = 0;     ///< proposals lost to priority (bulk only)
};

/// Fairness report over everything an instance has observed so far.
struct FairnessAudit {
  std::uint64_t horizon = 0;       ///< holidays observed by the gap tracker
  double jain = 0.0;               ///< Jain index over degree-normalized frequencies
  double throughput_ratio = 0.0;   ///< mean happy-set size / Caro–Wei bound
  std::uint64_t worst_gap = 0;     ///< max over nodes of max_gap_with_tail
  bool bounds_respected = true;    ///< every observed gap within gap_bound()
  std::vector<graph::NodeId> bound_violators;
};

class Instance {
 public:
  /// Builds the scheduler from `spec` and, when it is perfectly periodic,
  /// materializes the O(1) period table.  The graph is copied in and owned.
  Instance(std::string name, graph::Graph g, InstanceSpec spec);

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The construction-time recipe topology.  For dynamic tenants the live
  /// topology diverges from it as mutations land — recipe + `mutation_log()`
  /// is the persistent identity; `num_nodes()` tracks the live node count.
  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }

  [[nodiscard]] const InstanceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::string scheduler_name() const { return scheduler_->name(); }

  /// True iff the instance serves queries from a `PeriodTable`.
  [[nodiscard]] bool periodic() const noexcept { return table() != nullptr; }

  /// True iff the instance accepts live topology mutations.
  [[nodiscard]] bool dynamic() const noexcept { return adapter_ != nullptr; }

  /// The current O(1) table, or nullptr for aperiodic instances.  Immutable
  /// and content-interned: instances with identical schedules share one
  /// table.  Dynamic tenants republish a *new* table after each mutation
  /// batch; holding the returned `shared_ptr` keeps the old version alive
  /// (and consistent) for as long as a reader needs it — `QuerySnapshot`'s
  /// batch kernels hold one per instance run and bound every probe of the
  /// run by that version's `num_nodes()`.
  [[nodiscard]] std::shared_ptr<const PeriodTable> period_table_shared() const noexcept {
    return table();
  }

  /// Monotonic version of the published table: 0 at construction, bumped by
  /// every mutation batch that republishes.  Readers can detect a stale
  /// table with one relaxed load.
  [[nodiscard]] std::uint64_t table_version() const noexcept {
    return table_version_.load(std::memory_order_acquire);
  }

  /// The live node count: grows under `kAddNode` mutations.  Lock-free.
  [[nodiscard]] graph::NodeId num_nodes() const noexcept {
    const auto t = table();
    return t ? t->num_nodes() : graph_.num_nodes();
  }

  /// The holiday the scheduler has advanced to (thread-safe).
  [[nodiscard]] std::uint64_t current_holiday() const;

  /// Advances `n` holidays, feeding the gap tracker (and, for aperiodic
  /// instances, the replay index).  Thread-safe; concurrent steps serialize.
  StepResult step(std::uint64_t n);

  /// Advances `n` holidays, invoking `sink(t, happy)` for each — the
  /// per-instance streaming interface.  Observations are recorded exactly as
  /// in `step`.
  StepResult stream(std::uint64_t n,
                    const std::function<void(std::uint64_t, std::span<const graph::NodeId>)>& sink);

  /// Applies a batch of topology mutations in place: each command is stamped
  /// with the current holiday, applied to the live graph (recoloring per §6
  /// where needed), appended to the mutation log, and — once per batch — the
  /// period table is republished at the next version.  Batches are
  /// all-or-nothing: a malformed command anywhere rejects the whole batch
  /// untouched.  Thread-safe against steps and other mutation batches;
  /// lock-free readers keep answering against whichever table version they
  /// loaded.  Throws `std::logic_error` on a non-dynamic instance and
  /// `std::invalid_argument` on malformed commands (self-loops, out-of-range
  /// endpoints).
  ///
  /// When `wal` is non-null the batch is handed to it *after* it applies to
  /// the scheduler and *before* the table republishes — durable-then-visible.
  /// A throwing sink leaves the table at the pre-batch version (see
  /// `wal_sink.hpp` for the full contract).
  ///
  /// Private because `Engine::apply_mutations` is the entry point: it
  /// hands the batch its attached WAL sink and records the mutation
  /// telemetry.  Neither it nor this call moves the registry epoch.
 private:
  friend class Engine;
  /// Snapshot restore's private-access shim (defined in snapshot.cpp): the
  /// one non-Engine path allowed to call `replay_mutation_log`, shared by
  /// the tenancy-wide and single-instance restore entry points.
  friend struct detail::SnapshotReplay;
  MutationResult apply_mutations(std::span<const dynamic::MutationCommand> commands,
                                 WalSink* wal = nullptr);

  /// WAL-recovery path: re-applies one persisted batch through the routing
  /// path its record names, keeping the persisted holiday stamps.  Unlike
  /// `replay_mutation_log` this works on a *live* instance (typically one
  /// just restored from a snapshot) and does not touch the WAL sink — the
  /// batch being replayed is already durable.  Throws `std::logic_error` on
  /// a non-dynamic instance and `std::runtime_error` when the batch does not
  /// reproduce `record.size` applied commands (log divergence).
  MutationResult wal_replay_batch(std::span<const dynamic::MutationCommand> commands,
                                  dynamic::BatchRecord record);

  /// Snapshot-restore path: replays a persisted mutation log over the
  /// freshly built recipe state, keeping the persisted holiday stamps and
  /// routing each batch segment through the path its record names (empty
  /// `records` = pre-segmentation log, one per-command batch per entry).
  /// Requires a dynamic instance with an empty log (i.e. straight after
  /// construction); throws `std::logic_error` otherwise.
  void replay_mutation_log(std::span<const dynamic::MutationCommand> log,
                           std::span<const dynamic::BatchRecord> records = {});

 public:

  /// Copy of the mutation log: every applied command, in order, stamped with
  /// the holiday it landed at.  Empty for non-dynamic instances.
  [[nodiscard]] std::vector<dynamic::MutationCommand> mutation_log() const;

  /// Number of applied mutation batches so far (0 for non-dynamic
  /// instances).  This is the WAL's per-instance sequence number: a durable
  /// record with `batch_index < batch_count()` is already part of this
  /// instance's state and must be skipped on replay.
  [[nodiscard]] std::uint64_t batch_count() const;

  /// What a snapshot persists beyond the recipe: the holiday counter, the
  /// mutation log, and the log's batch segmentation, read under *one* lock
  /// so the triple is always mutually consistent (a log entry can never be
  /// stamped past the holiday) even while the instance keeps stepping and
  /// mutating.
  struct PersistedState {
    std::uint64_t holiday = 0;
    std::vector<dynamic::MutationCommand> log;
    std::vector<dynamic::BatchRecord> batches;
  };
  [[nodiscard]] PersistedState persisted_state() const;

  /// How `make_scheduler` built this instance's initial coloring (default
  /// stats for kinds without one).
  [[nodiscard]] const ColoringBuildStats& build_stats() const noexcept { return build_stats_; }

  /// Default bound on how far a single query may extend an aperiodic
  /// instance's replayed prefix — one query must not be able to stall the
  /// whole engine by replaying an unbounded schedule under the instance lock.
  static constexpr std::uint64_t kDefaultReplayLimit = 1'048'576;

  /// Membership query.  Periodic instances answer in O(1) without locking;
  /// aperiodic instances extend the replayed prefix to `t` if needed (under
  /// the instance lock) and binary-search it.  Throws `std::out_of_range`
  /// for an invalid node, and `std::runtime_error` when answering would
  /// extend an aperiodic replay by more than `replay_limit` holidays.
  [[nodiscard]] bool is_happy(graph::NodeId v, std::uint64_t t,
                              std::uint64_t replay_limit = kDefaultReplayLimit);

  /// First happy holiday of `v` strictly after `after`.  O(1) for periodic
  /// instances.  Aperiodic instances search the replayed prefix, extending
  /// it up to `after + search_limit` holidays before giving up (nullopt).
  /// Throws `std::out_of_range` for an invalid node.
  [[nodiscard]] std::optional<std::uint64_t> next_gathering(graph::NodeId v, std::uint64_t after,
                                                            std::uint64_t search_limit = 65536);

  /// Fairness audit (thread-safe).  Periodic instances are audited
  /// *analytically* from the period table at the current holiday — exact,
  /// O(n), and no observation cost on the stepping hot path.  For dynamic
  /// tenants the analytic audit describes the *current* schedule version
  /// as-if it had always held (past versions are not replayed).  Aperiodic
  /// instances are audited from the gap tracker over the replayed prefix.
  [[nodiscard]] FairnessAudit audit() const;

  /// Σ |happy set| over all stepped holidays (thread-safe).
  [[nodiscard]] std::uint64_t total_happy() const;

  /// Snapshot restore: brings the instance to holiday `t`.  Periodic
  /// instances skip in O(1) (their queries never depended on replay);
  /// aperiodic instances replay from the start, rebuilding the replay index
  /// and gap statistics exactly as they were when the snapshot was taken.
  void fast_forward(std::uint64_t t);

 private:
  /// Acquire-load of the published table.
  [[nodiscard]] std::shared_ptr<const PeriodTable> table() const noexcept {
    return table_.load(std::memory_order_acquire);
  }

  /// The query-path table: the raw pointer for static tenants (their table
  /// never changes, so no refcount traffic on the hot path), an owning load
  /// for dynamic ones (`held` pins the version against a concurrent
  /// republish).  Returns nullptr for aperiodic instances.
  [[nodiscard]] const PeriodTable* query_table(std::shared_ptr<const PeriodTable>& held) const {
    if (fixed_table_ != nullptr || adapter_ == nullptr) {
      return fixed_table_;
    }
    held = table();
    return held.get();
  }

  /// Rebuilds and republishes the table from the scheduler's current slots.
  /// Caller must hold `mutex_`.
  void republish_table_locked();

  /// Throws `std::out_of_range` unless `v` is a node of this instance.
  void check_node(graph::NodeId v) const;

  /// Replays holidays until `scheduler_->current_holiday() >= t`.
  /// Caller must hold `mutex_`.
  void extend_locked(std::uint64_t t);

  /// One holiday forward + bookkeeping.  Caller must hold `mutex_`.
  std::vector<graph::NodeId> produce_locked();

  mutable std::mutex mutex_;
  std::string name_;
  graph::Graph graph_;  ///< recipe topology; must outlive scheduler_ (declared first)
  InstanceSpec spec_;
  ColoringBuildStats build_stats_;
  std::unique_ptr<core::Scheduler> scheduler_;
  dynamic::DynamicSchedulerAdapter* adapter_ = nullptr;  ///< non-null iff dynamic
  /// Published table (atomic so mutation batches can republish under
  /// lock-free readers); interned and shared across tenants.
  std::atomic<std::shared_ptr<const PeriodTable>> table_{nullptr};
  /// Non-dynamic periodic tenants only: `table_` is immutable for the
  /// instance's lifetime, so queries read this raw pointer instead of paying
  /// shared_ptr refcount traffic per probe.
  const PeriodTable* fixed_table_ = nullptr;
  std::atomic<std::uint64_t> table_version_{0};
  // Aperiodic instances only: appearance index + observed gap statistics.
  std::unique_ptr<ReplayIndex> replay_;
  std::unique_ptr<core::GapTracker> gaps_;
  std::uint64_t total_happy_ = 0;
};

}  // namespace fhg::engine
