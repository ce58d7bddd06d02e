#pragma once

/// \file adapter.hpp
/// `core::Scheduler` facade over the §6 dynamic scheduler.
///
/// `DynamicSchedulerAdapter` lets the serving layer treat a mutable tenant
/// like any other scheduler: between mutations the §4 prefix-code schedule is
/// *perfectly periodic* (each node is happy exactly at its slot's residue
/// class), so the adapter exposes `(period, phase)` rows and the engine can
/// materialize its O(1) `PeriodTable` — it just has to re-materialize after
/// every mutation batch, because a recolor moves the recolored node to a new
/// residue class.
///
/// The adapter also owns the tenant's *mutation log*: every applied
/// `MutationCommand`, stamped with the holiday it landed at.  Replaying the
/// log over the initial topology reproduces coloring, slots, and schedule
/// exactly (all recolor decisions are deterministic), which is the invariant
/// the engine's snapshot-v2 restore path is built on.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fhg/coding/elias.hpp"
#include "fhg/core/scheduler.hpp"
#include "fhg/dynamic/dynamic_scheduler.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/graph/dynamic_graph.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::dynamic {

/// What applying one `MutationCommand` did.
struct ApplyResult {
  bool applied = false;                 ///< topology actually changed
  std::optional<RecolorEvent> recolor;  ///< set when the command forced a recolor
};

/// What applying one batch did.
struct BatchResult {
  std::size_t applied = 0;  ///< commands that changed topology
  bool bulk = false;        ///< true when the batch took the bulk-recolor path
  coloring::JpStats jp;     ///< repair-pass stats (zero on the per-command path)
};

/// Construction-time tuning of a dynamic tenant, mirrored from the engine's
/// `InstanceSpec` so it survives snapshot round trips.
struct DynamicOptions {
  coding::CodeFamily family = coding::CodeFamily::kEliasOmega;
  /// A node recolors after deletions once `col > deg + 1 + slack`.
  std::uint32_t deletion_slack = 0;
  /// Node count at or above which the *initial* coloring runs the parallel
  /// Jones–Plassmann pass (0 = always serial greedy).
  std::uint32_t parallel_crossover = 0;
  /// Command count at or above which `apply_batch` routes through the bulk
  /// recolor instead of per-command recoloring (0 = never bulk).
  std::uint32_t bulk_threshold = 0;
  /// Seed of the Jones–Plassmann priorities (initial coloring and repairs).
  std::uint64_t jp_seed = 1;
};

class DynamicSchedulerAdapter final : public core::Scheduler {
 public:
  /// Starts from `initial` with a fresh degree-ordered greedy coloring (the
  /// same deterministic construction every replay reproduces).
  explicit DynamicSchedulerAdapter(const graph::Graph& initial,
                                   coding::CodeFamily family = coding::CodeFamily::kEliasOmega,
                                   std::uint32_t deletion_slack = 0);

  /// Full-tuning constructor: crossover-gated parallel initial coloring and
  /// threshold-gated bulk batches (see `DynamicOptions`).
  DynamicSchedulerAdapter(const graph::Graph& initial, const DynamicOptions& options);

  DynamicSchedulerAdapter(const DynamicSchedulerAdapter&) = delete;
  DynamicSchedulerAdapter& operator=(const DynamicSchedulerAdapter&) = delete;

  // -- core::Scheduler --------------------------------------------------------

  [[nodiscard]] std::string name() const override { return "dynamic-prefix-code"; }

  /// CSR copy of the *current* topology (grows under `kAddNode`), built on
  /// demand by the first call after a topology change and dropped by the
  /// next change — serving never pays for it, only audits do.  Not
  /// thread-safe: the first call writes the cache, so callers serialize
  /// against each other and against mutations (the engine's `Instance`
  /// calls it under its instance lock).  The reference is invalidated by
  /// the next mutation.
  [[nodiscard]] const graph::Graph& graph() const noexcept override;

  /// The live node count, read from the mutable topology (no CSR build).
  [[nodiscard]] graph::NodeId num_nodes() const noexcept override {
    return dynamic_.num_nodes();
  }

  [[nodiscard]] std::vector<graph::NodeId> next_holiday() override {
    return scheduler_.next_holiday();
  }

  [[nodiscard]] std::uint64_t current_holiday() const noexcept override {
    return scheduler_.current_holiday();
  }

  /// Rewinds the holiday counter only.  Mutations are part of the tenant's
  /// identity (recipe + log), not of its stepping state, so topology and
  /// coloring are deliberately untouched — membership is a pure function of
  /// the current slots and `t`, exactly as before the rewind.
  void reset() override { scheduler_.rewind(); }

  [[nodiscard]] bool perfectly_periodic() const noexcept override { return true; }

  [[nodiscard]] std::optional<std::uint64_t> period_of(graph::NodeId v) const override {
    return scheduler_.period_of(v);
  }

  [[nodiscard]] std::optional<std::uint64_t> gap_bound(graph::NodeId v) const override {
    return scheduler_.period_of(v);
  }

  [[nodiscard]] std::optional<std::uint64_t> phase_of(graph::NodeId v) const override {
    return scheduler_.slot_of(v).first_holiday();
  }

  [[nodiscard]] std::vector<core::PeriodPhaseRow> period_phase_rows() const override;

  /// O(1): the happy set of holiday `t` depends only on slots, not history.
  void advance_to(std::uint64_t t) override { scheduler_.skip_to(t); }

  // -- Mutations --------------------------------------------------------------

  /// Applies one command.  With `restamp` (the live path) the command is
  /// stamped with `current_holiday()` before being logged; without it (the
  /// replay path) the stamp is kept as-is.  Commands that change nothing
  /// (inserting a present edge, erasing an absent one) are *not* logged.
  /// Throws `std::invalid_argument` on out-of-range endpoints or self-loops.
  ApplyResult apply(MutationCommand cmd, bool restamp = true);

  /// Applies a batch in order (stamping each with the current holiday).
  /// Batches of at least `bulk_threshold` commands (when the threshold is
  /// nonzero) take the bulk path: topology first, then one parallel
  /// Jones–Plassmann repair over the affected nodes; smaller batches recolor
  /// per command as before.  The
  /// whole batch is validated *before* anything applies, so a malformed
  /// command throws `std::invalid_argument` with the topology, log, and
  /// schedule untouched — never half-applied.  Which path ran is recorded in
  /// `batch_records()` (and returned), because the two policies land on
  /// different (each deterministic) colorings.
  BatchResult apply_batch(std::span<const MutationCommand> commands);

  /// Restore path: replays a persisted log segmented by `records` — each
  /// segment lands at its commands' holiday stamps and goes through the
  /// path its record names, reproducing the live coloring exactly even when
  /// thresholds have changed since the snapshot was taken.  Empty `records`
  /// means the pre-segmentation format: every command replays as its own
  /// per-command batch.  Same all-or-nothing validation as `apply_batch`;
  /// also throws `std::invalid_argument` when record sizes do not sum to
  /// the log length.
  void replay_log(std::span<const MutationCommand> log,
                  std::span<const BatchRecord> records = {});

  /// Incremental restore path: re-applies *one* persisted batch — the unit a
  /// write-ahead log stores — through the routing path its record names,
  /// keeping the persisted holiday stamps.  Unlike `replay_log` this works
  /// on an adapter with existing history (a tenant just restored from a
  /// snapshot), appending to the log and batch records exactly as the live
  /// path did.  Throws `std::invalid_argument` on malformed commands or when
  /// `record.size != commands.size()`, and `std::runtime_error` when replay
  /// does not re-apply every command (state diverged from the log).
  BatchResult replay_batch(std::span<const MutationCommand> commands, BatchRecord record);

  /// Every applied command so far, in order, with non-decreasing stamps.
  [[nodiscard]] const std::vector<MutationCommand>& mutation_log() const noexcept { return log_; }

  /// How the log divides into applied batches (sizes sum to the log length).
  [[nodiscard]] const std::vector<BatchRecord>& batch_records() const noexcept {
    return batches_;
  }

  /// Bumped once per applied command — the schedule-version counter the
  /// engine folds into its table epoch.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] const DynamicPrefixCodeScheduler& scheduler() const noexcept { return scheduler_; }

 private:
  ApplyResult apply_one(const MutationCommand& cmd);

  /// The bulk path body: topology + one repair pass, log + record appended.
  /// With `restamp` every logged command is stamped with the current
  /// holiday; without it (replay) the persisted stamps are kept.
  BatchResult apply_bulk(std::span<const MutationCommand> commands, bool restamp);

  /// Throws `std::invalid_argument` unless every command in `commands` has
  /// in-range, non-loop endpoints (tracking add_node growth along the way).
  void validate(std::span<const MutationCommand> commands) const;

  // The recipe topology itself is not retained — the owning Instance keeps
  // it (and the snapshot layer serializes it from there).
  graph::DynamicGraph dynamic_;   ///< live topology (must precede scheduler_)
  DynamicPrefixCodeScheduler scheduler_;
  std::uint32_t bulk_threshold_ = 0;
  /// CSR cache of dynamic_ for `graph()`; empty until asked for, reset by
  /// every topology change.
  mutable std::optional<graph::Graph> current_;
  std::vector<MutationCommand> log_;
  std::vector<BatchRecord> batches_;  ///< how log_ divides into applied batches
  std::uint64_t version_ = 0;
};

}  // namespace fhg::dynamic
