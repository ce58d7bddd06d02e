#pragma once

/// \file scheduler.hpp
/// The holiday-scheduling interface: an infinite sequence of independent
/// sets of a fixed conflict graph, consumed one holiday at a time.
///
/// Holidays are 1-based, as in the paper.  Stateful algorithms (Phased
/// Greedy recolors after every holiday; First-Come-First-Grab draws fresh
/// randomness) advance internal state in `next_holiday()`, so holidays are
/// visited strictly in order; `reset()` rewinds to the beginning.  Perfectly
/// periodic schedulers additionally expose each node's exact period and can
/// answer membership for arbitrary holidays.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fhg/graph/graph.hpp"

namespace fhg::core {

/// One node's `(period, phase)` pair as exposed by `period_phase_rows` —
/// everything a serving layer needs to answer membership for that node.
struct PeriodPhaseRow {
  std::uint64_t period = 0;
  std::uint64_t phase = 0;

  friend constexpr bool operator==(const PeriodPhaseRow&, const PeriodPhaseRow&) noexcept =
      default;
};

/// Abstract producer of the gathering sequence `H = h_1, h_2, …`.
class Scheduler {
 public:
  virtual ~Scheduler();

  /// Algorithm name for reports, e.g. "phased-greedy".
  [[nodiscard]] virtual std::string name() const = 0;

  /// The conflict graph being scheduled.
  [[nodiscard]] virtual const graph::Graph& graph() const noexcept = 0;

  /// Number of nodes being scheduled.  Defaults to `graph().num_nodes()`;
  /// schedulers whose `graph()` is materialized on demand override it so
  /// that counting nodes never builds the graph.
  [[nodiscard]] virtual graph::NodeId num_nodes() const noexcept { return graph().num_nodes(); }

  /// Advances to the next holiday and returns its happy set, sorted
  /// ascending.  The first call yields holiday 1.  Every returned set is an
  /// independent set of `graph()` (audited by `ScheduleAuditor`).
  [[nodiscard]] virtual std::vector<graph::NodeId> next_holiday() = 0;

  /// Index of the most recently returned holiday (0 before the first call).
  [[nodiscard]] virtual std::uint64_t current_holiday() const noexcept = 0;

  /// Rewinds to before holiday 1, restoring the initial state.
  virtual void reset() = 0;

  /// True iff every node reappears with a fixed, known period.
  [[nodiscard]] virtual bool perfectly_periodic() const noexcept = 0;

  /// The exact period of `v` when `perfectly_periodic()`, else nullopt.
  [[nodiscard]] virtual std::optional<std::uint64_t> period_of(graph::NodeId v) const = 0;

  /// A proven upper bound on the gap between consecutive happy holidays of
  /// `v` (equals the period for perfectly periodic schedules); nullopt when
  /// the algorithm offers no worst-case guarantee (e.g. the random baseline).
  [[nodiscard]] virtual std::optional<std::uint64_t> gap_bound(graph::NodeId v) const = 0;

  /// The *phase* of `v`: its first happy holiday, when the schedule is
  /// perfectly periodic (then `v` is happy exactly at `phase, phase + period,
  /// phase + 2·period, …`).  Nullopt for aperiodic schedulers.  Together with
  /// `period_of` this is everything a serving layer needs to answer
  /// membership for arbitrary holidays without running the schedule
  /// (`fhg::engine::PeriodTable` materializes exactly this pair).
  [[nodiscard]] virtual std::optional<std::uint64_t> phase_of(graph::NodeId v) const;

  /// Batch-friendly accessor: the `(period, phase)` pair of every node in one
  /// call, or an empty vector when the schedule is not perfectly periodic (or
  /// does not expose phases).  The default implementation loops over
  /// `period_of`/`phase_of`; schedulers that hold the pairs contiguously may
  /// override it to a bulk copy.  Consumers building whole-table structures
  /// (`fhg::engine::PeriodTable`) should prefer this over 2n virtual calls.
  [[nodiscard]] virtual std::vector<PeriodPhaseRow> period_phase_rows() const;

  /// Advances internal state so that `current_holiday() == t`, without
  /// returning the intervening happy sets.  No-op when `t` is not ahead of
  /// the current holiday (schedules never rewind; use `reset()`).  The
  /// default implementation replays holiday by holiday; stateless schedulers
  /// (whose happy sets are pure functions of `t`) override it with an O(1)
  /// counter skip.  Snapshot restore is built on this.
  virtual void advance_to(std::uint64_t t);
};

/// Shared bookkeeping for schedulers over a fixed graph.
class SchedulerBase : public Scheduler {
 public:
  explicit SchedulerBase(const graph::Graph& g) noexcept : graph_(&g) {}

  [[nodiscard]] const graph::Graph& graph() const noexcept final { return *graph_; }

  [[nodiscard]] std::uint64_t current_holiday() const noexcept final { return holiday_; }

 protected:
  /// Bumps and returns the next 1-based holiday index.
  std::uint64_t advance() noexcept { return ++holiday_; }

  void rewind() noexcept { holiday_ = 0; }

  /// Forwards the holiday counter (never backwards).  For schedulers whose
  /// state *is* the counter this implements `advance_to` in O(1).
  void skip_to(std::uint64_t t) noexcept { holiday_ = std::max(holiday_, t); }

 private:
  const graph::Graph* graph_;
  std::uint64_t holiday_ = 0;
};

}  // namespace fhg::core
