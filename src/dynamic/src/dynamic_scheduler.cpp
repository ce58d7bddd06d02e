#include "fhg/dynamic/dynamic_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace fhg::dynamic {

namespace {

/// Smallest color ≥ 1 unused among `v`'s neighbors in the dynamic graph.
coloring::Color smallest_free(const graph::DynamicGraph& g, const coloring::Coloring& colors,
                              graph::NodeId v) {
  const auto nbrs = g.neighbors(v);
  std::vector<bool> taken(nbrs.size() + 2, false);
  for (const graph::NodeId w : nbrs) {
    const coloring::Color c = colors.color(w);
    if (c >= 1 && c < taken.size()) {
      taken[c] = true;
    }
  }
  for (coloring::Color c = 1; c < taken.size(); ++c) {
    if (!taken[c]) {
      return c;
    }
  }
  return static_cast<coloring::Color>(taken.size());  // unreachable (pigeonhole)
}

}  // namespace

DynamicPrefixCodeScheduler::DynamicPrefixCodeScheduler(graph::DynamicGraph& g,
                                                       coding::CodeFamily family,
                                                       std::uint32_t deletion_slack,
                                                       std::uint32_t parallel_crossover,
                                                       std::uint64_t jp_seed)
    : graph_(&g),
      family_(family),
      deletion_slack_(deletion_slack),
      parallel_crossover_(parallel_crossover),
      jp_seed_(jp_seed),
      colors_(g.num_nodes()) {
  if (parallel_crossover_ > 0 && g.num_nodes() >= parallel_crossover_) {
    // Above the crossover: the parallel Jones–Plassmann pass.  Also
    // col ≤ deg+1, also deterministic (thread-count-independent), so the
    // replay/snapshot invariants hold the same way.
    coloring::JpOptions options;
    options.seed = jp_seed_;
    colors_ = coloring::parallel_jp_color(g.snapshot(), options, &build_stats_);
    built_parallel_ = true;
  } else {
    // Greedy initial coloring in decreasing-degree order: col ≤ deg+1.
    std::vector<graph::NodeId> order(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      order[v] = v;
    }
    std::stable_sort(order.begin(), order.end(), [&g](graph::NodeId a, graph::NodeId b) {
      return g.degree(a) > g.degree(b);
    });
    for (const graph::NodeId v : order) {
      colors_.set_color(v, smallest_free(g, colors_, v));
    }
  }
  slots_.resize(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    refresh_slot(v);
  }
}

void DynamicPrefixCodeScheduler::refresh_slot(graph::NodeId v) {
  slots_[v] = coding::slot_of(coding::encode(family_, colors_.color(v)));
}

std::vector<graph::NodeId> DynamicPrefixCodeScheduler::next_holiday() {
  ++holiday_;
  std::vector<graph::NodeId> happy;
  for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (slots_[v].matches(holiday_)) {
      happy.push_back(v);
    }
  }
  return happy;
}

RecolorEvent DynamicPrefixCodeScheduler::recolor(graph::NodeId v, bool due_to_insertion) {
  RecolorEvent event;
  event.holiday = holiday_;
  event.node = v;
  event.old_color = colors_.color(v);
  colors_.set_color(v, smallest_free(*graph_, colors_, v));
  event.new_color = colors_.color(v);
  event.due_to_insertion = due_to_insertion;
  refresh_slot(v);
  history_.push_back(event);
  return event;
}

std::optional<RecolorEvent> DynamicPrefixCodeScheduler::insert_edge(graph::NodeId u,
                                                                    graph::NodeId v) {
  if (!graph_->insert_edge(u, v)) {
    return std::nullopt;  // already married
  }
  if (colors_.color(u) != colors_.color(v)) {
    return std::nullopt;  // still proper; schedules unchanged
  }
  // The lower-degree endpoint recolors — its relative schedule loss is
  // smaller (§6 leaves the choice free; degree is the natural tie-breaker).
  const graph::NodeId loser = graph_->degree(u) <= graph_->degree(v) ? u : v;
  return recolor(loser, /*due_to_insertion=*/true);
}

std::optional<RecolorEvent> DynamicPrefixCodeScheduler::erase_edge(graph::NodeId u,
                                                                   graph::NodeId v) {
  if (!graph_->erase_edge(u, v)) {
    return std::nullopt;
  }
  // Rate repair: if some endpoint's color now exceeds deg+1+slack, its
  // hosting rate is disproportionately low for its new degree — recolor it.
  for (const graph::NodeId p : {u, v}) {
    if (colors_.color(p) > graph_->degree(p) + 1 + deletion_slack_) {
      return recolor(p, /*due_to_insertion=*/false);
    }
  }
  return std::nullopt;
}

graph::NodeId DynamicPrefixCodeScheduler::add_node() {
  const graph::NodeId v = graph_->add_node();
  colors_.resize(graph_->num_nodes());
  colors_.set_color(v, 1);  // isolated: color 1, happy every 2^|K(1)| holidays
  slots_.emplace_back();
  refresh_slot(v);
  return v;
}

BulkOutcome DynamicPrefixCodeScheduler::bulk_apply(std::span<const MutationCommand> commands) {
  BulkOutcome out;
  out.applied.assign(commands.size(), 0);
  const graph::NodeId old_n = graph_->num_nodes();

  // Phase 1 — topology only.  Every command lands before any recoloring, so
  // the repair below sees the batch's *final* shape (a node inserted against
  // and divorced within one batch never recolors at all).
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const MutationCommand& cmd = commands[i];
    switch (cmd.op) {
      case MutationOp::kInsertEdge:
        out.applied[i] = graph_->insert_edge(cmd.u, cmd.v) ? 1 : 0;
        break;
      case MutationOp::kEraseEdge:
        out.applied[i] = graph_->erase_edge(cmd.u, cmd.v) ? 1 : 0;
        break;
      case MutationOp::kAddNode:
        (void)graph_->add_node();
        out.applied[i] = 1;
        break;
    }
  }
  const graph::NodeId n = graph_->num_nodes();
  colors_.resize(n);
  slots_.resize(n);

  // Phase 2 — the affected set, in command order (deterministic).  Cause
  // codes: 1 = insertion conflict loser, 2 = post-erasure rate repair,
  // 3 = newly added node (no history event — it never had a color).
  std::vector<std::uint8_t> cause(n, 0);
  std::vector<coloring::Color> old_color(n, coloring::kUncolored);
  for (graph::NodeId v = old_n; v < n; ++v) {
    cause[v] = 3;
  }
  for (std::size_t i = 0; i < commands.size(); ++i) {
    if (out.applied[i] == 0 || commands[i].op != MutationOp::kInsertEdge) {
      continue;
    }
    const graph::NodeId u = commands[i].u;
    const graph::NodeId v = commands[i].v;
    const coloring::Color cu = colors_.color(u);
    const coloring::Color cv = colors_.color(v);
    if (cu == coloring::kUncolored || cu != cv || !graph_->has_edge(u, v)) {
      continue;  // no live conflict (other endpoint already queued, or divorced again)
    }
    // Same tie-breaker as the per-command path: the lower-degree endpoint
    // recolors (degrees of the batch-final topology).
    const graph::NodeId loser = graph_->degree(u) <= graph_->degree(v) ? u : v;
    cause[loser] = 1;
    old_color[loser] = colors_.color(loser);
    colors_.set_color(loser, coloring::kUncolored);
  }
  for (std::size_t i = 0; i < commands.size(); ++i) {
    if (out.applied[i] == 0 || commands[i].op != MutationOp::kEraseEdge) {
      continue;
    }
    for (const graph::NodeId p : {commands[i].u, commands[i].v}) {
      if (cause[p] == 0 &&
          colors_.color(p) > graph_->degree(p) + 1 + deletion_slack_) {
        cause[p] = 2;
        old_color[p] = colors_.color(p);
        colors_.set_color(p, coloring::kUncolored);
      }
    }
  }
  std::vector<graph::NodeId> targets;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (cause[v] != 0) {
      targets.push_back(v);
    }
  }

  // Phase 3 — one parallel repair pass against the fixed boundary colors,
  // then slots and history in ascending node order.
  const graph::Graph topology = graph_->snapshot();
  coloring::JpOptions options;
  options.seed = jp_seed_;
  coloring::parallel_jp_recolor(topology, colors_, targets, options, &out.jp);
  for (const graph::NodeId v : targets) {
    refresh_slot(v);
    if (cause[v] == 3) {
      continue;
    }
    RecolorEvent event;
    event.holiday = holiday_;
    event.node = v;
    event.old_color = old_color[v];
    event.new_color = colors_.color(v);
    event.due_to_insertion = cause[v] == 1;
    history_.push_back(event);
    ++out.recolored;
  }
  return out;
}

bool DynamicPrefixCodeScheduler::coloring_proper() const {
  for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) {
    for (const graph::NodeId w : graph_->neighbors(v)) {
      if (colors_.color(v) == colors_.color(w)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace fhg::dynamic
