#pragma once

/// \file dynamic_scheduler.hpp
/// The dynamic setting of Section 6: relationships form and dissolve while
/// the holidays keep coming.
///
/// The color-bound scheduler of §4 adapts gracefully — that is the paper's
/// point.  On an edge insertion `{p, q}` with `col(p) == col(q)`, the
/// lower-degree endpoint recolors (its palette legitimately grew by one:
/// `deg+1` is one larger); the new periodic schedule is read off the
/// prefix-free code of the new color and the node hosts again within
/// `2^ρ(new color)` holidays of quiescence.  On a deletion nothing *must*
/// happen, but the hosting rate drifts away from the new degree; a repair
/// policy recolors a node whose color exceeds `deg+1` by more than a
/// configurable slack.
///
/// The degree-bound scheduler of §5 is deliberately *not* given a dynamic
/// wrapper: the paper explains (and E5's ablation demonstrates) that its
/// correctness hinges on high-degree nodes committing first, which edge
/// insertions retroactively violate.  Making it dynamic is the paper's main
/// open problem.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fhg/coding/elias.hpp"
#include "fhg/coding/prefix.hpp"
#include "fhg/coloring/coloring.hpp"
#include "fhg/coloring/parallel_jp.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/graph/dynamic_graph.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::dynamic {

/// What happened in response to a topology event.
struct RecolorEvent {
  std::uint64_t holiday = 0;        ///< when the recolor took effect
  graph::NodeId node = 0;           ///< who recolored
  coloring::Color old_color = 0;
  coloring::Color new_color = 0;
  bool due_to_insertion = true;     ///< false = rate repair after deletions
};

/// What one `bulk_apply` call did, in apply order.
struct BulkOutcome {
  /// `applied[i] == 1` iff `commands[i]` changed topology (same commands
  /// the per-command path would have logged).
  std::vector<std::uint8_t> applied;
  /// Previously-colored nodes whose color changed (each also recorded as a
  /// `RecolorEvent` in `history()`); newly added nodes color for free.
  std::size_t recolored = 0;
  /// Rounds/conflicts of the Jones–Plassmann repair pass.
  coloring::JpStats jp;
};

/// The §4 scheduler running over a mutable conflict graph.
class DynamicPrefixCodeScheduler {
 public:
  /// Starts from `g`'s current topology with a fresh coloring.
  /// `deletion_slack`: a node recolors after deletions once
  /// `col > deg + 1 + slack` (0 = eager repair; large = paper's "presumably
  /// there is nothing to be done").
  ///
  /// The initial coloring is the serial degree-ordered greedy pass below
  /// `parallel_crossover` nodes and the parallel Jones–Plassmann pass
  /// (seeded with `jp_seed`) at or above it; `parallel_crossover == 0`
  /// means always serial.  Both are deterministic for fixed inputs, so
  /// either way a snapshot restore rebuilds the identical coloring — the
  /// crossover and seed are part of the persisted recipe.
  explicit DynamicPrefixCodeScheduler(graph::DynamicGraph& g,
                                      coding::CodeFamily family = coding::CodeFamily::kEliasOmega,
                                      std::uint32_t deletion_slack = 0,
                                      std::uint32_t parallel_crossover = 0,
                                      std::uint64_t jp_seed = 1);

  /// Advances one holiday and returns the happy set (sorted).
  [[nodiscard]] std::vector<graph::NodeId> next_holiday();

  [[nodiscard]] std::uint64_t current_holiday() const noexcept { return holiday_; }

  /// Rewinds the holiday counter.  Topology and coloring stay: membership is
  /// a pure function of the current slots and `t`, so nothing else is state.
  void rewind() noexcept { holiday_ = 0; }

  /// Forwards the holiday counter to `t` (never backwards) without
  /// materializing the intervening happy sets — O(1), same purity argument.
  void skip_to(std::uint64_t t) noexcept { holiday_ = std::max(holiday_, t); }

  /// Marries children of `u` and `v` (inserts the conflict edge) effective
  /// immediately.  Returns the recolor event if one was needed.
  std::optional<RecolorEvent> insert_edge(graph::NodeId u, graph::NodeId v);

  /// Dissolves the relationship (removes the edge).  Returns a repair
  /// recolor event if the slack policy fired.
  std::optional<RecolorEvent> erase_edge(graph::NodeId u, graph::NodeId v);

  /// A new parent joins the society (isolated node).
  graph::NodeId add_node();

  /// The bulk twin of `insert_edge`/`erase_edge`/`add_node`: applies every
  /// command's *topology* change first (no per-event recoloring), then
  /// repairs the coloring in one parallel Jones–Plassmann pass over the
  /// affected nodes — conflict losers of applied insertions (the
  /// lower-degree endpoint, as in the per-command path), slack-violating
  /// endpoints of applied erasures, and newly added nodes — against the
  /// fixed colors of everyone else.  Endpoints must be pre-validated (in
  /// range, no self-loops): this path never throws mid-batch.
  ///
  /// Deterministic for fixed (state, commands): the affected set is derived
  /// in command order and the repair pass is thread-count-independent, so a
  /// replay that routes the same logged batch through `bulk_apply` lands on
  /// the identical coloring, slots, and history.  Note the policy is
  /// deliberately *different* from applying the commands one by one — which
  /// path a batch took is therefore recorded in the mutation log's batch
  /// records (see `BatchRecord`).
  BulkOutcome bulk_apply(std::span<const MutationCommand> commands);

  [[nodiscard]] coloring::Color color_of(graph::NodeId v) const noexcept {
    return colors_.color(v);
  }

  /// Current periodic slot of `v` (changes only when `v` recolors).
  [[nodiscard]] coding::ScheduleSlot slot_of(graph::NodeId v) const noexcept {
    return slots_[v];
  }

  /// Current period of `v`: `2^|K(col(v))|`.
  [[nodiscard]] std::uint64_t period_of(graph::NodeId v) const noexcept {
    return slots_[v].period();
  }

  /// All recolor events so far, in order.
  [[nodiscard]] const std::vector<RecolorEvent>& history() const noexcept { return history_; }

  /// Invariant check: the coloring is proper for the current topology.
  [[nodiscard]] bool coloring_proper() const;

  /// True iff the initial coloring ran the parallel Jones–Plassmann pass
  /// (i.e. the construction topology met the crossover).
  [[nodiscard]] bool built_parallel() const noexcept { return built_parallel_; }

  /// Stats of the parallel initial coloring (zero when `built_parallel()`
  /// is false).
  [[nodiscard]] const coloring::JpStats& build_stats() const noexcept { return build_stats_; }

 private:
  /// Recolors `v` to the smallest color free among its neighbors and
  /// refreshes its slot; records the event.
  RecolorEvent recolor(graph::NodeId v, bool due_to_insertion);

  void refresh_slot(graph::NodeId v);

  graph::DynamicGraph* graph_;
  coding::CodeFamily family_;
  std::uint32_t deletion_slack_;
  std::uint32_t parallel_crossover_;
  std::uint64_t jp_seed_;
  bool built_parallel_ = false;
  coloring::JpStats build_stats_;
  coloring::Coloring colors_;
  std::vector<coding::ScheduleSlot> slots_;
  std::uint64_t holiday_ = 0;
  std::vector<RecolorEvent> history_;
};

}  // namespace fhg::dynamic
