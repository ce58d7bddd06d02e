// Tests for the parallel speculative Jones–Plassmann coloring: validity
// oracles across graph families and seeds, thread-count independence (the
// property the engine's snapshot/replay machinery rests on), partial
// recolors against a fixed boundary, and the engine integration — crossover
// builds, bulk mutation batches, snapshot v3 round trips, and the v2
// downgrade guard.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fhg/coloring/coloring.hpp"
#include "fhg/coloring/greedy.hpp"
#include "fhg/coloring/parallel_jp.hpp"
#include "fhg/dynamic/adapter.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/engine/snapshot.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/graph/graph.hpp"
#include "fhg/parallel/thread_pool.hpp"

#include "pinned_fixtures.hpp"

namespace fc = fhg::coloring;
namespace fdy = fhg::dynamic;
namespace fe = fhg::engine;
namespace fg = fhg::graph;
namespace fp = fhg::parallel;
namespace ft = fhg::testing;

namespace {

/// The family sweep the validity oracle runs over.
std::vector<std::pair<std::string, fg::Graph>> family_sweep(std::uint64_t seed) {
  std::vector<std::pair<std::string, fg::Graph>> graphs;
  graphs.emplace_back("power-law", fg::barabasi_albert(600, 3, seed));
  graphs.emplace_back("geometric", fg::random_geometric(600, 0.08, seed));
  graphs.emplace_back("gnp", fg::gnp(600, 0.02, seed));
  graphs.emplace_back("ring", fg::cycle(64));
  graphs.emplace_back("grid", fg::grid2d(12, 9));
  return graphs;
}

fg::NodeId max_degree(const fg::Graph& g) {
  fg::NodeId best = 0;
  for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
    best = std::max(best, g.degree(v));
  }
  return best;
}

}  // namespace

// ------------------------------------------------------------ validity -----

TEST(ParallelJp, ProperCompleteDegreeBoundedAcrossFamiliesAndSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    for (const auto& [name, g] : family_sweep(seed)) {
      fc::JpOptions options;
      options.seed = seed;
      fc::JpStats stats;
      const fc::Coloring colors = fc::parallel_jp_color(g, options, &stats);
      EXPECT_TRUE(colors.complete()) << name << " seed " << seed;
      EXPECT_TRUE(colors.proper(g)) << name << " seed " << seed;
      EXPECT_TRUE(colors.degree_bounded(g)) << name << " seed " << seed;
      EXPECT_EQ(stats.colored, g.num_nodes()) << name << " seed " << seed;
      EXPECT_GE(stats.rounds, 1U) << name << " seed " << seed;
    }
  }
}

TEST(ParallelJp, PaletteBoundedLikeGreedy) {
  // Both passes promise col(v) <= deg(v)+1, hence at most Δ+1 colors — the
  // palette bound the paper's schedule derivation needs.  Neither dominates
  // the other per graph; the oracle checks the shared bound.
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    for (const auto& [name, g] : family_sweep(seed)) {
      const fc::Coloring jp = fc::parallel_jp_color(g, {.seed = seed});
      const fc::Coloring greedy = fc::greedy_color(g, fc::Order::kLargestFirst);
      const fc::Color bound = max_degree(g) + 1;
      EXPECT_LE(jp.max_color(), bound) << name;
      EXPECT_LE(greedy.max_color(), bound) << name;
    }
  }
}

TEST(ParallelJp, EmptyAndTinyGraphs) {
  const fc::Coloring none = fc::parallel_jp_color(fg::Graph(0));
  EXPECT_EQ(none.num_nodes(), 0U);
  EXPECT_TRUE(none.complete());

  const fg::Graph lone(1);
  const fc::Coloring one = fc::parallel_jp_color(lone);
  EXPECT_EQ(one.color(0), 1U);

  const fc::Coloring pair = fc::parallel_jp_color(fg::clique(2));
  EXPECT_TRUE(pair.proper(fg::clique(2)));
}

// ------------------------------------- thread-count independence -----------

TEST(ParallelJp, IdenticalColoringAtAnyWorkerCount) {
  const fg::Graph g = fg::barabasi_albert(5000, 3, 13);
  fp::ThreadPool one(1);
  fp::ThreadPool two(2);
  fp::ThreadPool eight(8);

  fc::JpOptions options;
  options.seed = 99;
  fc::JpStats stats_one;
  fc::JpStats stats_two;
  fc::JpStats stats_eight;

  options.pool = &one;
  const fc::Coloring a = fc::parallel_jp_color(g, options, &stats_one);
  options.pool = &two;
  const fc::Coloring b = fc::parallel_jp_color(g, options, &stats_two);
  options.pool = &eight;
  // A tiny chunk forces many concurrent claims per round — the adversarial
  // schedule for determinism.
  options.chunk = 64;
  const fc::Coloring c = fc::parallel_jp_color(g, options, &stats_eight);

  for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(a.color(v), b.color(v)) << "node " << v;
    ASSERT_EQ(a.color(v), c.color(v)) << "node " << v;
  }
  // Even the per-round accounting is a pure function of (graph, seed).
  EXPECT_EQ(stats_one, stats_two);
  EXPECT_EQ(stats_one, stats_eight);
}

TEST(ParallelJp, SeedSelectsTheColoring) {
  const fg::Graph g = fg::gnp(400, 0.03, 5);
  const fc::Coloring a = fc::parallel_jp_color(g, {.seed = 1});
  const fc::Coloring b = fc::parallel_jp_color(g, {.seed = 2});
  EXPECT_TRUE(a.proper(g));
  EXPECT_TRUE(b.proper(g));
  bool differs = false;
  for (fg::NodeId v = 0; v < g.num_nodes() && !differs; ++v) {
    differs = a.color(v) != b.color(v);
  }
  EXPECT_TRUE(differs);  // different priorities, different (valid) colorings
}

TEST(ParallelJp, PriorityIsPureFunctionOfSeedAndNode) {
  EXPECT_EQ(fc::jp_priority(1, 7), fc::jp_priority(1, 7));
  EXPECT_NE(fc::jp_priority(1, 7), fc::jp_priority(2, 7));
  EXPECT_NE(fc::jp_priority(1, 7), fc::jp_priority(1, 8));
}

// ------------------------------------------------------ partial recolor -----

TEST(ParallelJpRecolor, RepairsTargetsAgainstFixedBoundary) {
  const fg::Graph g = fg::barabasi_albert(300, 3, 21);
  fc::Coloring colors = fc::parallel_jp_color(g, {.seed = 4});
  const fc::Coloring before = colors;

  std::vector<fg::NodeId> targets;
  for (fg::NodeId v = 0; v < g.num_nodes(); v += 7) {
    targets.push_back(v);
    colors.set_color(v, fc::kUncolored);
  }
  fc::JpStats stats;
  fc::parallel_jp_recolor(g, colors, targets, {.seed = 4}, &stats);

  EXPECT_TRUE(colors.complete());
  EXPECT_TRUE(colors.proper(g));
  EXPECT_EQ(stats.colored, targets.size());
  for (const fg::NodeId v : targets) {
    EXPECT_LE(colors.color(v), g.degree(v) + 1) << "target " << v;
  }
  // Non-targets are the fixed boundary: untouched by construction.
  std::size_t t = 0;
  for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (t < targets.size() && targets[t] == v) {
      ++t;
      continue;
    }
    ASSERT_EQ(colors.color(v), before.color(v)) << "boundary node " << v;
  }
}

TEST(ParallelJpRecolor, RejectsMalformedTargets) {
  const fg::Graph g = fg::cycle(8);
  fc::Coloring colors = fc::parallel_jp_color(g);

  // A still-colored target.
  EXPECT_THROW(fc::parallel_jp_recolor(g, colors, std::vector<fg::NodeId>{3}, {}),
               std::invalid_argument);
  colors.set_color(3, fc::kUncolored);
  colors.set_color(5, fc::kUncolored);
  // Unsorted and duplicate target lists.
  EXPECT_THROW(fc::parallel_jp_recolor(g, colors, std::vector<fg::NodeId>{5, 3}, {}),
               std::invalid_argument);
  EXPECT_THROW(fc::parallel_jp_recolor(g, colors, std::vector<fg::NodeId>{3, 3}, {}),
               std::invalid_argument);
  // Out of range.
  EXPECT_THROW(fc::parallel_jp_recolor(g, colors, std::vector<fg::NodeId>{3, 99}, {}),
               std::invalid_argument);
  // The well-formed call repairs both.
  fc::parallel_jp_recolor(g, colors, std::vector<fg::NodeId>{3, 5}, {});
  EXPECT_TRUE(colors.proper(g));
}

// --------------------------------------------------- engine integration -----

namespace {

fe::InstanceSpec dynamic_spec(std::uint32_t crossover, std::uint32_t bulk_threshold) {
  fe::InstanceSpec spec;
  spec.kind = fe::SchedulerKind::kDynamicPrefixCode;
  spec.parallel_crossover = crossover;
  spec.bulk_threshold = bulk_threshold;
  return spec;
}

/// A batch big enough to clear `bulk_threshold`, mixing inserts that force
/// conflicts with erases and node additions.
std::vector<fdy::MutationCommand> storm_batch(const fg::Graph& g, std::size_t count) {
  std::vector<fdy::MutationCommand> commands;
  const fg::NodeId n = g.num_nodes();
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<fg::NodeId>((3 * i) % n);
    const auto v = static_cast<fg::NodeId>((3 * i + 1 + i % 5) % n);
    if (u == v) {
      continue;
    }
    if (i % 4 == 3) {
      commands.push_back(fdy::erase_edge_command(u, v));
    } else {
      commands.push_back(fdy::insert_edge_command(u, v));
    }
  }
  commands.push_back(fdy::add_node_command());
  return commands;
}

}  // namespace

TEST(EngineParallelColoring, CrossoverBuildsWithJonesPlassmannAndCounts) {
  fe::Engine eng;
  const fg::Graph g = fg::barabasi_albert(256, 3, 9);
  // Crossover below the node count: the build must take the parallel pass.
  auto instance = eng.create_instance("jp", g, dynamic_spec(/*crossover=*/64, 0));
  EXPECT_TRUE(instance->build_stats().parallel);
  EXPECT_GE(instance->build_stats().jp.rounds, 1U);
  EXPECT_EQ(instance->build_stats().jp.colored, g.num_nodes());
  EXPECT_EQ(eng.metrics().counter("fhg_coloring_build_parallel_total").value(), 1U);

  // Above the node count: serial greedy, as before the crossover existed.
  auto greedy = eng.create_instance("greedy", g, dynamic_spec(/*crossover=*/1024, 0));
  EXPECT_FALSE(greedy->build_stats().parallel);
  EXPECT_EQ(eng.metrics().counter("fhg_coloring_build_serial_total").value(), 1U);
}

TEST(EngineParallelColoring, BulkBatchRoutesAndReportsStats) {
  fe::Engine eng;
  const fg::Graph g = fg::gnp(120, 0.06, 3);
  (void)eng.create_instance("dyn", g, dynamic_spec(/*crossover=*/16, /*bulk_threshold=*/8));
  (void)eng.step_all(4);

  // Below the threshold: the PR-3 per-command path.
  const auto small = eng.apply_mutations(
      "dyn", std::vector{fdy::insert_edge_command(0, 1), fdy::erase_edge_command(2, 3)});
  EXPECT_FALSE(small.bulk);
  EXPECT_EQ(eng.metrics().counter("fhg_coloring_inplace_batches_total").value(), 1U);

  // At the threshold: one bulk repair pass, JP stats surfaced.
  const auto big = eng.apply_mutations("dyn", storm_batch(g, 32));
  EXPECT_TRUE(big.bulk);
  EXPECT_GT(big.applied, 0U);
  EXPECT_EQ(eng.metrics().counter("fhg_coloring_bulk_batches_total").value(), 1U);
  EXPECT_EQ(eng.metrics().counter("fhg_coloring_parallel_rounds_total").value() > 0,
            big.jp_rounds > 0);

  // The live coloring stays proper through the bulk path.
  const auto audit = eng.audit("dyn");
  EXPECT_TRUE(audit.bounds_respected);
}

TEST(EngineParallelColoring, SnapshotV3RoundTripIsByteIdenticalThroughBulk) {
  fe::Engine eng;
  const fg::Graph g = fg::barabasi_albert(200, 3, 17);
  (void)eng.create_instance("dyn", g, dynamic_spec(/*crossover=*/32, /*bulk_threshold=*/8));
  (void)eng.step_all(8);
  (void)eng.apply_mutations("dyn", std::vector{fdy::insert_edge_command(1, 2)});
  (void)eng.apply_mutations("dyn", storm_batch(g, 24));  // bulk segment mid-log
  (void)eng.step_all(8);

  const auto bytes = eng.snapshot();
  fe::Engine copy;
  copy.load_snapshot(bytes);
  EXPECT_EQ(copy.snapshot(), bytes);  // canonical: restore re-encodes exactly

  // The restored tenant answers every probe identically — the bulk segment
  // replayed through the bulk path, not per command.
  auto original = eng.find("dyn");
  auto restored = copy.find("dyn");
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(original->num_nodes(), restored->num_nodes());
  for (fg::NodeId v = 0; v < original->num_nodes(); ++v) {
    for (std::uint64_t t = 1; t <= 64; ++t) {
      ASSERT_EQ(original->is_happy(v, t), restored->is_happy(v, t))
          << "node " << v << " holiday " << t;
    }
  }
}

TEST(EngineParallelColoring, GreedyBuiltBulkTenantRoundTrips) {
  // A greedy-built tenant that applied a bulk batch: the v3 batch records
  // carry the bulk segment, so restore re-encodes byte-identically.
  fe::Engine eng;
  const fg::Graph g = fg::gnp(100, 0.05, 2);
  (void)eng.create_instance("bulk", g, dynamic_spec(/*crossover=*/0, /*bulk_threshold=*/4));
  EXPECT_TRUE(eng.apply_mutations("bulk", storm_batch(g, 16)).bulk);
  const auto v3 = eng.snapshot();
  fe::Engine copy;
  copy.load_snapshot(v3);
  EXPECT_EQ(copy.snapshot(), v3);
}

TEST(EngineParallelColoring, V2FormatLogsStillLoad) {
  // Checked-in v2 bytes: "dyn" (cycle(8), dynamic, slack 1) with a
  // four-command log in two batches, and a static "stat", at holiday 6.
  // Crossover and bulk read back as 0 — the paths those tenants took — and
  // the log replays per command onto a proper coloring.
  const auto v2 = ft::from_hex(ft::kSnapshotV2Hex);
  fe::InstanceRegistry out(2);
  fe::restore_registry(out, v2);
  auto restored = out.find("dyn");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->spec().parallel_crossover, 0U);
  EXPECT_EQ(restored->spec().bulk_threshold, 0U);
  EXPECT_EQ(restored->mutation_log().size(), 4U);
  EXPECT_EQ(restored->num_nodes(), 9U);
  EXPECT_EQ(restored->current_holiday(), 6U);

  // It answers exactly like the same history applied live today.
  fe::InstanceSpec spec = dynamic_spec(/*crossover=*/0, /*bulk_threshold=*/0);
  spec.slack = 1;
  fe::Engine live;
  (void)live.create_instance("dyn", fg::cycle(8), spec);
  (void)live.step_all(3);
  (void)live.apply_mutations("dyn", std::vector{fdy::insert_edge_command(0, 4),
                                                fdy::erase_edge_command(1, 2),
                                                fdy::add_node_command()});
  (void)live.step_all(3);
  (void)live.apply_mutations("dyn", std::vector{fdy::insert_edge_command(8, 3)});
  const auto built = live.find("dyn");
  EXPECT_EQ(restored->mutation_log(), built->mutation_log());
  for (fg::NodeId v = 0; v < built->num_nodes(); ++v) {
    for (std::uint64_t t = 1; t <= 64; ++t) {
      ASSERT_EQ(restored->is_happy(v, t), built->is_happy(v, t))
          << "node " << v << " holiday " << t;
    }
  }
}

TEST(AdapterBulk, BulkAndPerCommandPathsBothLandProper) {
  const fg::Graph g = fg::barabasi_albert(150, 3, 8);
  const auto batch = storm_batch(g, 20);

  fdy::DynamicOptions bulk_options;
  bulk_options.bulk_threshold = 1;  // everything bulks
  fdy::DynamicSchedulerAdapter bulk(g, bulk_options);
  const fdy::BatchResult bulk_result = bulk.apply_batch(batch);
  EXPECT_TRUE(bulk_result.bulk);
  EXPECT_TRUE(bulk.scheduler().coloring_proper());
  EXPECT_EQ(bulk.batch_records().size(), 1U);
  EXPECT_TRUE(bulk.batch_records().front().bulk);
  EXPECT_EQ(bulk.batch_records().front().size, bulk_result.applied);

  fdy::DynamicOptions serial_options;  // threshold 0: never bulks
  fdy::DynamicSchedulerAdapter serial(g, serial_options);
  const fdy::BatchResult serial_result = serial.apply_batch(batch);
  EXPECT_FALSE(serial_result.bulk);
  EXPECT_TRUE(serial.scheduler().coloring_proper());
  // Same commands, same topology outcome — only the repair policy differs.
  EXPECT_EQ(bulk_result.applied, serial_result.applied);
  EXPECT_EQ(bulk.graph().num_edges(), serial.graph().num_edges());
}

TEST(AdapterBulk, ReplayRoutesSegmentsThroughRecordedPaths) {
  const fg::Graph g = fg::gnp(90, 0.07, 6);
  fdy::DynamicOptions options;
  options.bulk_threshold = 8;
  fdy::DynamicSchedulerAdapter live(g, options);

  (void)live.apply_batch(std::vector{fdy::insert_edge_command(0, 1),
                                     fdy::insert_edge_command(1, 2)});  // per-command
  (void)live.apply_batch(storm_batch(g, 16));                          // bulk
  (void)live.apply_batch(std::vector{fdy::erase_edge_command(0, 1)});  // per-command

  // Replay with records: identical coloring.  A *threshold-blind* replay of
  // the same log must be routed by the records, not the current threshold —
  // use a replica whose threshold would have bulked everything.
  fdy::DynamicOptions replica_options;
  replica_options.bulk_threshold = 1;
  fdy::DynamicSchedulerAdapter replica(g, replica_options);
  replica.replay_log(live.mutation_log(), live.batch_records());

  for (fg::NodeId v = 0; v < live.graph().num_nodes(); ++v) {
    ASSERT_EQ(live.scheduler().slot_of(v).period(), replica.scheduler().slot_of(v).period())
        << "node " << v;
    ASSERT_EQ(live.scheduler().slot_of(v).first_holiday(),
              replica.scheduler().slot_of(v).first_holiday())
        << "node " << v;
  }
  EXPECT_EQ(replica.batch_records(), live.batch_records());

  // Record sizes that do not cover the log are rejected up front.
  fdy::DynamicSchedulerAdapter fresh(g, replica_options);
  const std::vector<fdy::BatchRecord> bad{{1, false}};
  EXPECT_THROW(fresh.replay_log(live.mutation_log(), bad), std::invalid_argument);
}
