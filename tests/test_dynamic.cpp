// Tests for fhg::dynamic — the §6 dynamic setting: insertions force targeted
// recoloring, deletions trigger (optional) rate repair, and the schedule
// stays conflict-free throughout.

#include <gtest/gtest.h>

#include <vector>

#include "fhg/dynamic/adapter.hpp"
#include "fhg/dynamic/dynamic_scheduler.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/graph/dynamic_graph.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/graph/properties.hpp"
#include "fhg/parallel/rng.hpp"

namespace fg = fhg::graph;
namespace fdy = fhg::dynamic;
namespace fcd = fhg::coding;

namespace {

fg::DynamicGraph dynamic_from(const fg::Graph& g) { return fg::DynamicGraph(g); }

}  // namespace

TEST(DynamicScheduler, StartsProperAndPeriodic) {
  fg::DynamicGraph g = dynamic_from(fg::gnp(60, 0.08, 3));
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  EXPECT_TRUE(scheduler.coloring_proper());
  for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(scheduler.period_of(v),
              std::uint64_t{1} << fcd::elias_omega_length(scheduler.color_of(v)));
  }
}

TEST(DynamicScheduler, InsertionWithDistinctColorsIsFree) {
  fg::DynamicGraph g(4);
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  // All isolated → everyone has color 1.  Connect 0-1: a recolor must occur.
  const auto first = scheduler.insert_edge(0, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(scheduler.coloring_proper());
  // Now connect 2-3 (both color 1): recolor again, but inserting 0-2 after
  // that is free if their colors already differ.
  static_cast<void>(scheduler.insert_edge(2, 3));
  const bool differ = scheduler.color_of(0) != scheduler.color_of(2);
  const auto maybe = scheduler.insert_edge(0, 2);
  EXPECT_EQ(maybe.has_value(), !differ);
  EXPECT_TRUE(scheduler.coloring_proper());
}

TEST(DynamicScheduler, InsertionRecolorsLowerDegreeEndpoint) {
  fg::DynamicGraph g(5);
  // Build a star around 0 first.
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  static_cast<void>(scheduler.insert_edge(0, 1));
  static_cast<void>(scheduler.insert_edge(0, 2));
  static_cast<void>(scheduler.insert_edge(0, 3));
  // Node 4 (degree 0) and hub 0: if they collide, 4 must be the one to move.
  if (scheduler.color_of(4) == scheduler.color_of(0)) {
    const auto event = scheduler.insert_edge(0, 4);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->node, 4U);
  } else {
    EXPECT_FALSE(scheduler.insert_edge(0, 4).has_value());
  }
  EXPECT_TRUE(scheduler.coloring_proper());
}

TEST(DynamicScheduler, InsertionStormKeepsProperness) {
  fg::DynamicGraph g(50);
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  fhg::parallel::Rng rng(17);
  std::size_t inserted = 0;
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<fg::NodeId>(rng.uniform_below(50));
    const auto v = static_cast<fg::NodeId>(rng.uniform_below(50));
    if (u == v) {
      continue;
    }
    static_cast<void>(scheduler.insert_edge(u, v));
    ++inserted;
    ASSERT_TRUE(scheduler.coloring_proper()) << "after insertion " << inserted;
  }
  // Colors stay degree-bounded: smallest-free recoloring keeps col ≤ deg+1.
  for (fg::NodeId v = 0; v < 50; ++v) {
    EXPECT_LE(scheduler.color_of(v), g.degree(v) + 1) << "node " << v;
  }
}

TEST(DynamicScheduler, RecoveryWithinNewPeriodAfterQuiescence) {
  fg::DynamicGraph g = dynamic_from(fg::gnp(40, 0.1, 7));
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  // Run a while, then hit node with insertions, then verify it hosts within
  // its (new) period after the last change — the §6 recovery guarantee.
  for (int t = 0; t < 20; ++t) {
    static_cast<void>(scheduler.next_holiday());
  }
  static_cast<void>(scheduler.insert_edge(0, 20));
  static_cast<void>(scheduler.insert_edge(0, 21));
  static_cast<void>(scheduler.insert_edge(0, 22));
  EXPECT_TRUE(scheduler.coloring_proper());

  const std::uint64_t period0 = scheduler.period_of(0);
  bool hosted = false;
  for (std::uint64_t i = 0; i < period0 && !hosted; ++i) {
    const auto happy = scheduler.next_holiday();
    hosted = std::find(happy.begin(), happy.end(), 0U) != happy.end();
  }
  EXPECT_TRUE(hosted) << "node 0 must host within one period (" << period0
                      << " holidays) of quiescence";
}

TEST(DynamicScheduler, HappySetsAreAlwaysIndependent) {
  fg::DynamicGraph g = dynamic_from(fg::gnp(40, 0.05, 11));
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  fhg::parallel::Rng rng(23);
  for (int t = 0; t < 300; ++t) {
    // Interleave random mutations with holidays.
    if (t % 3 == 0) {
      const auto u = static_cast<fg::NodeId>(rng.uniform_below(40));
      const auto v = static_cast<fg::NodeId>(rng.uniform_below(40));
      if (u != v) {
        if (rng.bernoulli(0.7)) {
          static_cast<void>(scheduler.insert_edge(u, v));
        } else {
          static_cast<void>(scheduler.erase_edge(u, v));
        }
      }
    }
    const auto happy = scheduler.next_holiday();
    const fg::Graph snapshot = g.snapshot();
    ASSERT_TRUE(fg::is_independent_set(snapshot, happy)) << "holiday " << t + 1;
  }
}

TEST(DynamicScheduler, DeletionRateRepairFires) {
  // Build a hub with high color, then strip its edges: with slack 0 the hub
  // must recolor down so its period tracks its shrunken degree.
  fg::DynamicGraph g = dynamic_from(fg::clique(8));
  fdy::DynamicPrefixCodeScheduler scheduler(g, fcd::CodeFamily::kEliasOmega,
                                            /*deletion_slack=*/0);
  // Find the node wearing the largest color (in a clique: color 8).
  fg::NodeId top = 0;
  for (fg::NodeId v = 1; v < 8; ++v) {
    if (scheduler.color_of(v) > scheduler.color_of(top)) {
      top = v;
    }
  }
  EXPECT_EQ(scheduler.color_of(top), 8U);
  // Remove all of top's edges.
  std::size_t repairs = 0;
  for (fg::NodeId v = 0; v < 8; ++v) {
    if (v != top && scheduler.erase_edge(top, v).has_value()) {
      ++repairs;
    }
  }
  EXPECT_GT(repairs, 0U);
  EXPECT_LE(scheduler.color_of(top), g.degree(top) + 1);
  EXPECT_TRUE(scheduler.coloring_proper());
}

TEST(DynamicScheduler, SlackDefersRepair) {
  fg::DynamicGraph g = dynamic_from(fg::clique(6));
  fdy::DynamicPrefixCodeScheduler lazy(g, fcd::CodeFamily::kEliasOmega,
                                       /*deletion_slack=*/100);
  fg::NodeId top = 0;
  for (fg::NodeId v = 1; v < 6; ++v) {
    if (lazy.color_of(v) > lazy.color_of(top)) {
      top = v;
    }
  }
  for (fg::NodeId v = 0; v < 6; ++v) {
    if (v != top) {
      EXPECT_FALSE(lazy.erase_edge(top, v).has_value());  // slack swallows it
    }
  }
  EXPECT_EQ(lazy.color_of(top), 6U);  // color kept; rate now disproportional
}

TEST(DynamicScheduler, AddNodeJoinsSociety) {
  fg::DynamicGraph g(3);
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  const fg::NodeId v = scheduler.add_node();
  EXPECT_EQ(v, 3U);
  EXPECT_EQ(scheduler.color_of(v), 1U);
  static_cast<void>(scheduler.insert_edge(0, v));
  EXPECT_TRUE(scheduler.coloring_proper());
  // New node participates in holidays.
  bool seen = false;
  for (int t = 0; t < 8 && !seen; ++t) {
    const auto happy = scheduler.next_holiday();
    seen = std::find(happy.begin(), happy.end(), v) != happy.end();
  }
  EXPECT_TRUE(seen);
}

TEST(DynamicScheduler, HistoryRecordsEvents) {
  fg::DynamicGraph g(4);
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  static_cast<void>(scheduler.next_holiday());
  static_cast<void>(scheduler.insert_edge(0, 1));  // forced collision: both color 1
  ASSERT_FALSE(scheduler.history().empty());
  const auto& event = scheduler.history().front();
  EXPECT_EQ(event.holiday, 1U);
  EXPECT_EQ(event.old_color, 1U);
  EXPECT_NE(event.new_color, 1U);
  EXPECT_TRUE(event.due_to_insertion);
}

// ------------------------------------------------- §6 edge cases (PR 3) ----

TEST(DynamicScheduler, DeletionSlackBoundaryIsExact) {
  // K4 colors greedily as 1,2,3,4 (equal degrees, stable id order), so node
  // 3 sits at col == deg + 1.  After one divorce its degree drops to 2:
  //   slack = 1  →  col 4 == deg + 1 + slack  →  *no* repair (boundary held)
  //   slack = 0  →  col 4 is one past deg + 1 + slack  →  repair fires
  {
    fg::DynamicGraph g = dynamic_from(fg::clique(4));
    fdy::DynamicPrefixCodeScheduler with_slack(g, fcd::CodeFamily::kEliasOmega,
                                               /*deletion_slack=*/1);
    ASSERT_EQ(with_slack.color_of(3), 4U);
    EXPECT_FALSE(with_slack.erase_edge(0, 3).has_value());
    EXPECT_EQ(with_slack.color_of(3), 4U);  // kept: exactly at the boundary
  }
  {
    fg::DynamicGraph g = dynamic_from(fg::clique(4));
    fdy::DynamicPrefixCodeScheduler eager(g, fcd::CodeFamily::kEliasOmega,
                                          /*deletion_slack=*/0);
    ASSERT_EQ(eager.color_of(3), 4U);
    const auto event = eager.erase_edge(0, 3);
    ASSERT_TRUE(event.has_value());  // one past the boundary: repair
    EXPECT_EQ(event->node, 3U);
    EXPECT_FALSE(event->due_to_insertion);
    EXPECT_LE(eager.color_of(3), g.degree(3) + 1);
    EXPECT_TRUE(eager.coloring_proper());
  }
}

TEST(DynamicScheduler, AddNodeThenImmediateInsertEdge) {
  fg::DynamicGraph g(2);
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  const fg::NodeId v = scheduler.add_node();
  EXPECT_EQ(v, 2U);
  EXPECT_EQ(scheduler.color_of(v), 1U);
  // Marrying the brand-new node into a color-1 household must recolor one
  // endpoint immediately — no holiday needs to pass in between.
  ASSERT_EQ(scheduler.color_of(0), 1U);
  const auto event = scheduler.insert_edge(v, 0);
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(scheduler.coloring_proper());
  // The recolored node's slot tracks its new color's codeword.
  const auto& moved = *event;
  EXPECT_EQ(scheduler.slot_of(moved.node),
            fcd::slot_of(fcd::encode(fcd::CodeFamily::kEliasOmega,
                                     scheduler.color_of(moved.node))));
  EXPECT_EQ(scheduler.period_of(moved.node),
            std::uint64_t{1} << fcd::elias_omega_length(scheduler.color_of(moved.node)));
}

TEST(DynamicScheduler, EraseOfNonexistentEdgeIsANoOp) {
  fg::DynamicGraph g(4);
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  static_cast<void>(scheduler.insert_edge(0, 1));
  const std::size_t history_before = scheduler.history().size();
  const std::size_t edges_before = g.num_edges();
  EXPECT_FALSE(scheduler.erase_edge(2, 3).has_value());   // never married
  EXPECT_FALSE(scheduler.erase_edge(0, 99).has_value());  // out of range
  EXPECT_EQ(g.num_edges(), edges_before);
  EXPECT_EQ(scheduler.history().size(), history_before);
  EXPECT_TRUE(scheduler.coloring_proper());
}

TEST(DynamicScheduler, RewindAndSkipMoveOnlyTheCounter) {
  fg::DynamicGraph g = dynamic_from(fg::cycle(8));
  fdy::DynamicPrefixCodeScheduler scheduler(g);
  const auto first = scheduler.next_holiday();
  static_cast<void>(scheduler.next_holiday());
  scheduler.rewind();
  EXPECT_EQ(scheduler.current_holiday(), 0U);
  EXPECT_EQ(scheduler.next_holiday(), first);  // pure function of slots + t
  scheduler.skip_to(100);
  EXPECT_EQ(scheduler.current_holiday(), 100U);
  scheduler.skip_to(50);  // never backwards
  EXPECT_EQ(scheduler.current_holiday(), 100U);
}

// ------------------------------------------------ Scheduler adapter (§6) ----

TEST(DynamicAdapter, ConformsToSchedulerAndBuildsPeriodRows) {
  const fg::Graph initial = fg::gnp(30, 0.12, 11);
  fdy::DynamicSchedulerAdapter adapter(initial);
  EXPECT_EQ(adapter.name(), "dynamic-prefix-code");
  EXPECT_TRUE(adapter.perfectly_periodic());
  const auto rows = adapter.period_phase_rows();
  ASSERT_EQ(rows.size(), initial.num_nodes());
  // Rows agree with a replay: node v is happy exactly at phase + k·period.
  for (std::uint64_t t = 1; t <= 64; ++t) {
    const auto happy = adapter.next_holiday();
    for (fg::NodeId v = 0; v < initial.num_nodes(); ++v) {
      const bool truth = std::binary_search(happy.begin(), happy.end(), v);
      const bool row_says = t >= rows[v].phase && (t - rows[v].phase) % rows[v].period == 0;
      ASSERT_EQ(row_says, truth) << "node " << v << " holiday " << t;
    }
  }
}

TEST(DynamicAdapter, LogsOnlyAppliedCommandsAndStamps) {
  fdy::DynamicSchedulerAdapter adapter(fg::Graph(4));
  for (int t = 0; t < 5; ++t) {
    static_cast<void>(adapter.next_holiday());
  }
  EXPECT_TRUE(adapter.apply(fdy::insert_edge_command(0, 1)).applied);
  EXPECT_FALSE(adapter.apply(fdy::insert_edge_command(0, 1)).applied);  // already married
  EXPECT_FALSE(adapter.apply(fdy::erase_edge_command(2, 3)).applied);   // never married
  EXPECT_TRUE(adapter.apply(fdy::add_node_command()).applied);
  EXPECT_THROW((void)adapter.apply(fdy::insert_edge_command(1, 1)), std::invalid_argument);
  ASSERT_EQ(adapter.mutation_log().size(), 2U);
  EXPECT_EQ(adapter.version(), 2U);
  for (const auto& cmd : adapter.mutation_log()) {
    EXPECT_EQ(cmd.holiday, 5U);  // stamped with the holiday they landed at
  }
  EXPECT_EQ(adapter.graph().num_nodes(), 5U);  // live topology grew
}

TEST(DynamicAdapter, GraphFollowsEveryTopologyChange) {
  // `graph()` is built on demand and must never serve a topology a later
  // mutation changed — on every mutation path, bulk and replay included.
  fdy::DynamicOptions options;
  options.bulk_threshold = 3;
  fdy::DynamicSchedulerAdapter adapter(fg::Graph(6), options);
  const auto expect_graph = [&adapter](std::size_t nodes, std::size_t edges) {
    EXPECT_EQ(adapter.num_nodes(), nodes);
    EXPECT_EQ(adapter.graph().num_nodes(), nodes);
    EXPECT_EQ(adapter.graph().num_edges(), edges);
  };
  expect_graph(6, 0);
  (void)adapter.apply(fdy::insert_edge_command(0, 1));
  expect_graph(6, 1);
  EXPECT_TRUE(adapter.graph().has_edge(0, 1));
  (void)adapter.apply_batch(std::vector{fdy::add_node_command(), fdy::insert_edge_command(6, 2)});
  expect_graph(7, 2);
  EXPECT_TRUE(adapter.graph().has_edge(2, 6));
  const auto bulk = adapter.apply_batch(std::vector{
      fdy::erase_edge_command(0, 1), fdy::insert_edge_command(3, 4), fdy::add_node_command()});
  EXPECT_TRUE(bulk.bulk);
  expect_graph(8, 2);
  EXPECT_FALSE(adapter.graph().has_edge(0, 1));
  EXPECT_TRUE(adapter.graph().has_edge(3, 4));
  std::vector<fdy::MutationCommand> replayed{fdy::insert_edge_command(5, 7)};
  replayed[0].holiday = adapter.current_holiday();
  (void)adapter.replay_batch(replayed, {1, false});
  expect_graph(8, 3);
  EXPECT_TRUE(adapter.graph().has_edge(5, 7));
}

TEST(DynamicAdapter, LogReplayReproducesScheduleExactly) {
  const fg::Graph initial = fg::gnp(24, 0.1, 17);
  fdy::DynamicSchedulerAdapter live(initial);
  fhg::parallel::Rng rng(23);
  // A mixed life: holidays pass, marriages and divorces land in between.
  for (int phase = 0; phase < 6; ++phase) {
    for (int t = 0; t < 4; ++t) {
      static_cast<void>(live.next_holiday());
    }
    std::vector<fdy::MutationCommand> mix;
    for (int c = 0; c < 5; ++c) {
      const auto u = static_cast<fg::NodeId>(rng.uniform_below(24));
      auto v = static_cast<fg::NodeId>(rng.uniform_below(23));
      v = v >= u ? v + 1 : v;
      mix.push_back(rng.bernoulli(0.6) ? fdy::insert_edge_command(u, v)
                                       : fdy::erase_edge_command(u, v));
    }
    static_cast<void>(live.apply_batch(mix));
  }
  ASSERT_FALSE(live.mutation_log().empty());

  // Replay the log over a fresh adapter, landing each command at its stamp.
  fdy::DynamicSchedulerAdapter replayed(initial);
  for (const auto& cmd : live.mutation_log()) {
    replayed.advance_to(cmd.holiday);
    const auto result = replayed.apply(cmd, /*restamp=*/false);
    EXPECT_TRUE(result.applied);  // logged commands re-apply deterministically
  }
  replayed.advance_to(live.current_holiday());

  EXPECT_EQ(replayed.mutation_log(), live.mutation_log());
  EXPECT_EQ(replayed.period_phase_rows(), live.period_phase_rows());
  EXPECT_EQ(replayed.graph().edges(), live.graph().edges());
  for (fg::NodeId v = 0; v < live.graph().num_nodes(); ++v) {
    EXPECT_EQ(replayed.scheduler().color_of(v), live.scheduler().color_of(v)) << "node " << v;
  }
  // And the two produce identical futures.
  for (int t = 0; t < 16; ++t) {
    EXPECT_EQ(replayed.next_holiday(), live.next_holiday());
  }
}
