// Tests for fhg::engine — the multi-tenant serving layer: period-table O(1)
// queries vs. naive replay, concurrent step_all determinism, snapshot
// round-trips, registry semantics, and the bit-level snapshot codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "fhg/coding/bitio.hpp"
#include "fhg/core/prefix_code_scheduler.hpp"
#include "fhg/coloring/greedy.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/engine/period_table.hpp"
#include "fhg/engine/replay_index.hpp"
#include "fhg/engine/snapshot.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/parallel/rng.hpp"

#include "pinned_fixtures.hpp"

namespace fg = fhg::graph;
namespace fe = fhg::engine;
namespace fc = fhg::coding;
namespace fco = fhg::core;
namespace fdy = fhg::dynamic;
namespace ft = fhg::testing;

namespace {

/// InstanceSpec factory (avoids partially-designated initializers, which
/// -Wextra flags even when the omitted members have defaults).
fe::InstanceSpec spec_of(fe::SchedulerKind kind, std::uint64_t seed = 1,
                         std::vector<std::uint64_t> periods = {}) {
  fe::InstanceSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  spec.periods = std::move(periods);
  return spec;
}

/// Replays `s` from scratch and records which holidays ≤ horizon make each
/// node happy — the ground truth every fast path must agree with.
std::vector<std::vector<bool>> replay_membership(fco::Scheduler& s, std::uint64_t horizon) {
  s.reset();
  std::vector<std::vector<bool>> happy(s.graph().num_nodes(),
                                       std::vector<bool>(horizon + 1, false));
  for (std::uint64_t t = 1; t <= horizon; ++t) {
    for (const fg::NodeId v : s.next_holiday()) {
      happy[v][t] = true;
    }
  }
  return happy;
}

}  // namespace

// ---------------------------------------------------------- PeriodTable ----

TEST(PeriodTable, AgreesWithReplayOnRandomProbes) {
  const fg::Graph g = fg::gnp(60, 0.1, 7);
  const std::vector<fe::SchedulerKind> kinds{
      fe::SchedulerKind::kRoundRobin,
      fe::SchedulerKind::kPrefixCode,
      fe::SchedulerKind::kDegreeBound,
  };
  for (const auto kind : kinds) {
    auto s = fe::make_scheduler(g, spec_of(kind));
    const auto table = fe::PeriodTable::build(*s);
    ASSERT_TRUE(table.has_value()) << fe::scheduler_kind_name(kind);
    constexpr std::uint64_t kHorizon = 512;
    const auto truth = replay_membership(*s, kHorizon);
    fhg::parallel::Rng rng(99);
    for (int probe = 0; probe < 1000; ++probe) {
      const auto v = static_cast<fg::NodeId>(rng.uniform_below(g.num_nodes()));
      const std::uint64_t t = 1 + rng.uniform_below(kHorizon);
      EXPECT_EQ(table->is_happy(v, t), truth[v][t])
          << fe::scheduler_kind_name(kind) << " node " << v << " holiday " << t;
    }
  }
}

TEST(PeriodTable, NextGatheringIsFirstMatchAfter) {
  const fg::Graph g = fg::star(9);
  const auto s = fe::make_scheduler(g, spec_of(fe::SchedulerKind::kDegreeBound));
  const auto table = fe::PeriodTable::build(*s);
  ASSERT_TRUE(table.has_value());
  for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const std::uint64_t after : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{37}}) {
      const std::uint64_t next = table->next_gathering(v, after);
      EXPECT_GT(next, after);
      EXPECT_TRUE(table->is_happy(v, next));
      for (std::uint64_t t = after + 1; t < next; ++t) {
        EXPECT_FALSE(table->is_happy(v, t));
      }
    }
  }
  // phase is the first gathering overall.
  for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(table->next_gathering(v, 0), table->phase(v));
  }
}

TEST(PeriodTable, RejectsAperiodicSchedulers) {
  const fg::Graph g = fg::cycle(6);
  const auto s = fe::make_scheduler(g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  EXPECT_FALSE(fe::PeriodTable::build(*s).has_value());
}

// ------------------------------------------------------ Scheduler phases ----

TEST(SchedulerPhase, MatchesFirstAppearance) {
  const fg::Graph g = fg::barabasi_albert(40, 2, 11);
  for (const auto kind : {fe::SchedulerKind::kRoundRobin, fe::SchedulerKind::kPrefixCode,
                          fe::SchedulerKind::kDegreeBound}) {
    auto s = fe::make_scheduler(g, spec_of(kind));
    std::vector<std::uint64_t> first(g.num_nodes(), 0);
    for (std::uint64_t t = 1; t <= 2048; ++t) {
      for (const fg::NodeId v : s->next_holiday()) {
        if (first[v] == 0) {
          first[v] = t;
        }
      }
    }
    for (fg::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto phase = s->phase_of(v);
      ASSERT_TRUE(phase.has_value());
      if (first[v] != 0) {
        EXPECT_EQ(*phase, first[v]) << fe::scheduler_kind_name(kind) << " node " << v;
      }
    }
  }
}

TEST(SchedulerPhase, AdvanceToSkipsStatelessSchedulers) {
  const fg::Graph g = fg::clique(8);
  auto s = fe::make_scheduler(g, spec_of(fe::SchedulerKind::kDegreeBound));
  s->advance_to(1'000'000'000ULL);
  EXPECT_EQ(s->current_holiday(), 1'000'000'000ULL);
  // Replay-based default: phased greedy really replays.
  auto pg = fe::make_scheduler(g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  pg->advance_to(100);
  EXPECT_EQ(pg->current_holiday(), 100U);
}

TEST(SchedulerPhase, AdvanceToPreservesSchedule) {
  // Skipping then stepping must equal stepping all the way (stateless kinds).
  const fg::Graph g = fg::gnp(30, 0.15, 3);
  for (const auto kind : {fe::SchedulerKind::kRoundRobin, fe::SchedulerKind::kPrefixCode,
                          fe::SchedulerKind::kDegreeBound, fe::SchedulerKind::kFirstComeFirstGrab}) {
    auto a = fe::make_scheduler(g, spec_of(kind, 5));
    auto b = fe::make_scheduler(g, spec_of(kind, 5));
    for (std::uint64_t t = 1; t <= 64; ++t) {
      (void)a->next_holiday();
    }
    b->advance_to(64);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(a->next_holiday(), b->next_holiday()) << fe::scheduler_kind_name(kind);
    }
  }
}

// ---------------------------------------------------------- ReplayIndex ----

TEST(ReplayIndex, MembershipAndNextGathering) {
  fe::ReplayIndex index(4);
  index.observe(1, std::vector<fg::NodeId>{0, 2});
  index.observe(2, std::vector<fg::NodeId>{1});
  index.observe(3, std::vector<fg::NodeId>{0, 3});
  EXPECT_EQ(index.horizon(), 3U);
  EXPECT_TRUE(index.is_happy(0, 1));
  EXPECT_FALSE(index.is_happy(0, 2));
  EXPECT_TRUE(index.is_happy(0, 3));
  EXPECT_EQ(index.next_gathering(0, 1), std::optional<std::uint64_t>{3});
  EXPECT_EQ(index.next_gathering(1, 2), std::nullopt);
  EXPECT_EQ(index.appearances(0).size(), 2U);
}

// ----------------------------------------------------- Instance queries ----

TEST(Instance, AperiodicQueriesAgreeWithReplay) {
  const fg::Graph g = fg::gnp(40, 0.12, 21);
  fe::Instance instance("t", g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  ASSERT_FALSE(instance.periodic());

  auto truth_scheduler = fe::make_scheduler(g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  constexpr std::uint64_t kHorizon = 256;
  const auto truth = replay_membership(*truth_scheduler, kHorizon);

  fhg::parallel::Rng rng(5);
  for (int probe = 0; probe < 1000; ++probe) {
    const auto v = static_cast<fg::NodeId>(rng.uniform_below(g.num_nodes()));
    const std::uint64_t t = 1 + rng.uniform_below(kHorizon);
    EXPECT_EQ(instance.is_happy(v, t), truth[v][t]) << "node " << v << " holiday " << t;
  }

  // next_gathering walks the memoized prefix and extends it on demand.
  const auto next = instance.next_gathering(0, kHorizon);
  ASSERT_TRUE(next.has_value());
  EXPECT_GT(*next, kHorizon);
  EXPECT_TRUE(instance.is_happy(0, *next));
}

TEST(Instance, RejectsOutOfRangeNodes) {
  const fg::Graph g = fg::path(5);
  fe::Instance periodic("p", g, spec_of(fe::SchedulerKind::kDegreeBound));
  fe::Instance aperiodic("a", g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  EXPECT_THROW((void)periodic.is_happy(5, 1), std::out_of_range);
  EXPECT_THROW((void)periodic.next_gathering(99, 0), std::out_of_range);
  EXPECT_THROW((void)aperiodic.is_happy(5, 1), std::out_of_range);
}

TEST(Instance, ReplayLimitBoundsFarFutureQueries) {
  const fg::Graph g = fg::cycle(6);
  fe::Instance instance("t", g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  // Within the limit: extends and answers.
  (void)instance.is_happy(0, 100);
  EXPECT_GE(instance.current_holiday(), 100U);
  // Far beyond: refuses instead of replaying under the lock forever.
  EXPECT_THROW((void)instance.is_happy(0, instance.current_holiday() + 1'000, /*replay_limit=*/10),
               std::runtime_error);
}

TEST(Instance, StreamDeliversEveryHoliday) {
  const fg::Graph g = fg::cycle(5);
  fe::Instance instance("t", g, spec_of(fe::SchedulerKind::kRoundRobin));
  std::vector<std::uint64_t> seen;
  const auto result = instance.stream(6, [&](std::uint64_t t, std::span<const fg::NodeId> happy) {
    seen.push_back(t);
    EXPECT_FALSE(happy.empty());
  });
  EXPECT_EQ(result.holidays, 6U);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
}

TEST(Instance, AuditReportsPeriodicFairness) {
  const fg::Graph g = fg::random_regular(24, 3, 2);
  fe::Instance instance("t", g, spec_of(fe::SchedulerKind::kDegreeBound));
  instance.step(64);
  const auto audit = instance.audit();
  EXPECT_EQ(audit.horizon, 64U);
  EXPECT_TRUE(audit.bounds_respected);
  // Regular graph + identical periods => perfectly even service.
  EXPECT_NEAR(audit.jain, 1.0, 1e-9);
  EXPECT_GT(audit.throughput_ratio, 0.0);
}

TEST(Instance, AuditTracksAperiodicGaps) {
  const fg::Graph g = fg::star(10);
  fe::Instance instance("t", g, spec_of(fe::SchedulerKind::kPhasedGreedy));
  instance.step(200);
  const auto audit = instance.audit();
  EXPECT_EQ(audit.horizon, 200U);
  // Theorem 3.1: every gap within deg+1 (checked against gap_bound).
  EXPECT_TRUE(audit.bounds_respected) << "violators: " << audit.bound_violators.size();
  EXPECT_GT(audit.worst_gap, 0U);
}

// -------------------------------------------------------------- Registry ----

TEST(Registry, CreateFindErase) {
  fe::InstanceRegistry registry(4);
  const fg::Graph g = fg::path(4);
  (void)registry.create("a", g, spec_of(fe::SchedulerKind::kRoundRobin));
  (void)registry.create("b", g, spec_of(fe::SchedulerKind::kDegreeBound));
  EXPECT_EQ(registry.size(), 2U);
  EXPECT_NE(registry.find("a"), nullptr);
  EXPECT_EQ(registry.find("zzz"), nullptr);
  EXPECT_THROW((void)registry.create("a", g, spec_of(fe::SchedulerKind::kRoundRobin)),
               std::invalid_argument);
  EXPECT_TRUE(registry.erase("a"));
  EXPECT_FALSE(registry.erase("a"));
  EXPECT_EQ(registry.size(), 1U);
  const auto all = registry.all_sorted();
  ASSERT_EQ(all.size(), 1U);
  EXPECT_EQ(all[0]->name(), "b");
}

TEST(Registry, ErasedInstanceSurvivesInFlightHandles) {
  fe::InstanceRegistry registry(2);
  const fg::Graph g = fg::clique(5);
  auto handle = registry.create("x", g, spec_of(fe::SchedulerKind::kDegreeBound));
  EXPECT_TRUE(registry.erase("x"));
  // The shared_ptr keeps the instance alive and usable.
  EXPECT_TRUE(handle->is_happy(0, handle->period_table_shared()->phase(0)));
}

// -------------------------------------------------- BatchExecutor sweep ----

TEST(Executor, StepAllMatchesSequentialStepping) {
  // The same fleet stepped by a many-thread executor and by hand must land
  // in identical states: scheduling is deterministic per instance.
  const std::uint64_t kSteps = 37;
  fe::Engine parallel_engine({.shards = 8, .threads = 8});
  std::vector<std::unique_ptr<fco::Scheduler>> reference;
  std::vector<fg::Graph> graphs;
  std::vector<std::string> names;
  for (int i = 0; i < 50; ++i) {
    graphs.push_back(fg::gnp(30, 0.1, 100 + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 50; ++i) {
    const fe::InstanceSpec spec = spec_of(
        (i % 2 == 0) ? fe::SchedulerKind::kPhasedGreedy : fe::SchedulerKind::kDegreeBound,
        static_cast<std::uint64_t>(i));
    names.push_back("inst-" + std::to_string(i));
    (void)parallel_engine.create_instance(names.back(), graphs[i], spec);
    reference.push_back(fe::make_scheduler(graphs[i], spec));
  }
  const auto stats = parallel_engine.step_all(kSteps);
  EXPECT_EQ(stats.instances, 50U);
  EXPECT_EQ(stats.holidays, 50U * kSteps);

  std::uint64_t reference_happy = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (std::uint64_t t = 0; t < kSteps; ++t) {
      reference_happy += reference[i]->next_holiday().size();
    }
    EXPECT_EQ(parallel_engine.find(names[i])->current_holiday(), kSteps);
  }
  EXPECT_EQ(stats.total_happy, reference_happy);

  // A second, single-threaded engine lands in the same state too.
  fe::Engine serial_engine({.shards = 1, .threads = 1});
  for (std::size_t i = 0; i < names.size(); ++i) {
    const fe::InstanceSpec spec = spec_of(
        (i % 2 == 0) ? fe::SchedulerKind::kPhasedGreedy : fe::SchedulerKind::kDegreeBound,
        static_cast<std::uint64_t>(i));
    (void)serial_engine.create_instance(names[i], graphs[i], spec);
  }
  const auto serial_stats = serial_engine.step_all(kSteps);
  EXPECT_EQ(serial_stats.total_happy, stats.total_happy);
}

// -------------------------------------------------------------- Snapshot ----

TEST(Snapshot, TruncatedInputThrows) {
  fe::InstanceRegistry registry(2);
  const std::vector<std::uint8_t> garbage{0x00, 0x01, 0x02};
  EXPECT_THROW(fe::restore_registry(registry, garbage), std::runtime_error);
}

TEST(Snapshot, MalformedSnapshotLeavesRegistryUntouched) {
  fe::InstanceRegistry registry(2);
  (void)registry.create("keep", fg::path(4), spec_of(fe::SchedulerKind::kRoundRobin));

  // A valid snapshot, truncated mid-stream: magic/version parse but the
  // instance payload is cut off.
  fe::InstanceRegistry donor(2);
  (void)donor.create("a", fg::clique(6), spec_of(fe::SchedulerKind::kDegreeBound));
  (void)donor.create("b", fg::cycle(8), spec_of(fe::SchedulerKind::kPrefixCode));
  auto bytes = fe::snapshot_registry(donor);
  bytes.resize(bytes.size() / 2);

  EXPECT_THROW(fe::restore_registry(registry, bytes), std::runtime_error);
  // The failed restore must not have cleared or half-populated the registry.
  EXPECT_EQ(registry.size(), 1U);
  EXPECT_NE(registry.find("keep"), nullptr);
  EXPECT_EQ(registry.find("a"), nullptr);
}

TEST(Snapshot, RoundTripIsByteIdentical) {
  fe::Engine engine({.shards = 4, .threads = 2});
  (void)engine.create_instance("periodic", fg::gnp(50, 0.08, 3),
                               spec_of(fe::SchedulerKind::kPrefixCode));
  (void)engine.create_instance("aperiodic", fg::barabasi_albert(40, 2, 4),
                               spec_of(fe::SchedulerKind::kPhasedGreedy));
  (void)engine.create_instance("weighted", fg::path(6),
                               spec_of(fe::SchedulerKind::kWeighted, 1, {2, 4, 4, 8, 8, 2}));
  (void)engine.create_instance("random", fg::cycle(12),
                               spec_of(fe::SchedulerKind::kFirstComeFirstGrab, 77));
  (void)engine.step_all(100);

  const auto bytes = engine.snapshot();
  fe::Engine restored({.shards = 2, .threads = 1});
  restored.load_snapshot(bytes);

  EXPECT_EQ(restored.num_instances(), 4U);
  const auto bytes2 = restored.snapshot();
  EXPECT_EQ(bytes, bytes2);
}

TEST(Snapshot, RestorePreservesStateAndQueries) {
  fe::Engine engine({.shards = 4, .threads = 2});
  const fg::Graph pg = fg::gnp(40, 0.1, 9);
  const fg::Graph ag = fg::gnp(40, 0.1, 10);
  (void)engine.create_instance("p", pg, spec_of(fe::SchedulerKind::kDegreeBound));
  (void)engine.create_instance("a", ag, spec_of(fe::SchedulerKind::kPhasedGreedy));
  (void)engine.step_all(128);

  fe::Engine restored;
  restored.load_snapshot(engine.snapshot());

  for (const auto* name : {"p", "a"}) {
    ASSERT_NE(restored.find(name), nullptr) << name;
    EXPECT_EQ(restored.find(name)->current_holiday(), 128U) << name;
  }
  // Queries agree on both engines, within and beyond the stepped horizon.
  fhg::parallel::Rng rng(13);
  for (int probe = 0; probe < 500; ++probe) {
    const auto v = static_cast<fg::NodeId>(rng.uniform_below(40));
    const std::uint64_t t = 1 + rng.uniform_below(200);
    EXPECT_EQ(engine.is_happy("p", v, t), restored.is_happy("p", v, t));
    EXPECT_EQ(engine.is_happy("a", v, t), restored.is_happy("a", v, t));
  }
  // Aperiodic replay restore also reconstructs the fairness statistics.
  const auto audit_a = engine.audit("a");
  const auto audit_b = restored.audit("a");
  EXPECT_EQ(audit_a.worst_gap, audit_b.worst_gap);
  EXPECT_DOUBLE_EQ(audit_a.jain, audit_b.jain);
  // total_happy is reconstructed analytically for the periodic instance.
  EXPECT_EQ(engine.find("p")->total_happy(), restored.find("p")->total_happy());
}

// ------------------------------------------------------------------ Spec ----

TEST(Spec, KindNamesRoundTrip) {
  // Every kind — sweeping the catalogue, so a freshly added kind cannot
  // silently break name parsing (or be forgotten here).
  for (const auto kind : fe::all_scheduler_kinds()) {
    const auto parsed = fe::parse_scheduler_kind(fe::scheduler_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << fe::scheduler_kind_name(kind);
    EXPECT_EQ(*parsed, kind) << fe::scheduler_kind_name(kind);
    EXPECT_NE(fe::scheduler_kind_name(kind), "unknown");
  }
  EXPECT_EQ(fe::parse_scheduler_kind("nope"), std::nullopt);
}

TEST(Spec, WeightedSpecValidatesPeriodCount) {
  const fg::Graph g = fg::path(3);
  EXPECT_THROW(
      (void)fe::make_scheduler(g, spec_of(fe::SchedulerKind::kWeighted, 1, {2, 4})),
      std::invalid_argument);
}

// ------------------------------------------- Dynamic tenants + mutations ----

TEST(EngineMutation, DynamicTenantServesAcrossRecolor) {
  fe::Engine eng({.shards = 2, .threads = 2});
  // Four isolated parents: everyone starts at color 1, so the first marriage
  // is guaranteed to collide and force a recolor.
  (void)eng.create_instance("dyn", fg::Graph(4), spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  const auto handle = eng.find("dyn");
  ASSERT_TRUE(handle->dynamic());
  ASSERT_TRUE(handle->periodic());
  EXPECT_EQ(handle->table_version(), 0U);
  (void)eng.step_all(8);

  const auto before = eng.query_snapshot();
  const std::uint64_t epoch_before = eng.registry().epoch();
  // Pre-mutation answers over a window wide enough to see the recolor.
  std::vector<std::uint8_t> pre;
  for (fg::NodeId v = 0; v < 4; ++v) {
    for (std::uint64_t t = 1; t <= 64; ++t) {
      pre.push_back(eng.is_happy("dyn", v, t) ? 1 : 0);
    }
  }

  const std::vector<fdy::MutationCommand> cmds{fdy::insert_edge_command(0, 1)};
  const auto result = eng.apply_mutations("dyn", cmds);
  EXPECT_EQ(result.applied, 1U);
  EXPECT_EQ(result.recolors, 1U);
  EXPECT_EQ(result.table_version, 1U);
  EXPECT_EQ(handle->table_version(), 1U);

  // A table change moves no epoch and rebuilds no view: the view held
  // across the batch is the current one, and it answers at the
  // post-mutation version — exactly what the engine answers now.
  EXPECT_EQ(eng.registry().epoch(), epoch_before);
  const auto after = eng.query_snapshot();
  EXPECT_EQ(before.get(), after.get());
  std::vector<fe::Probe> probes;
  for (fg::NodeId v = 0; v < 4; ++v) {
    for (std::uint64_t t = 1; t <= 64; ++t) {
      probes.push_back({*before->id_of("dyn"), v, t});
    }
  }
  std::vector<std::uint8_t> held(probes.size());
  before->query_batch(probes, held);
  std::vector<std::uint64_t> held_next(probes.size());
  before->next_gathering_batch(probes, held_next);
  bool changed = false;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto& p = probes[i];
    EXPECT_EQ(held[i] != 0, eng.is_happy("dyn", p.node, p.holiday))
        << "node " << p.node << " holiday " << p.holiday;
    EXPECT_EQ(held_next[i], eng.next_gathering("dyn", p.node, p.holiday).value_or(0))
        << "node " << p.node << " after " << p.holiday;
    changed |= held[i] != pre[i];
  }
  EXPECT_TRUE(changed) << "the recolor must change some served answer";

  // Ground truth: step the tenant onward and compare every produced happy
  // set against the served answers — across the recolor boundary.
  const auto log = handle->mutation_log();
  ASSERT_EQ(log.size(), 1U);
  EXPECT_EQ(log[0].holiday, 8U);
  (void)handle->stream(64, [&](std::uint64_t t, std::span<const fg::NodeId> happy) {
    for (fg::NodeId v = 0; v < 4; ++v) {
      const bool truth = std::binary_search(happy.begin(), happy.end(), v);
      EXPECT_EQ(eng.is_happy("dyn", v, t), truth) << "node " << v << " holiday " << t;
    }
  });
  // next_gathering agrees with membership on the post-mutation schedule.
  for (fg::NodeId v = 0; v < 4; ++v) {
    const auto next = eng.next_gathering("dyn", v, 100);
    ASSERT_TRUE(next.has_value());
    EXPECT_TRUE(eng.is_happy("dyn", v, *next));
    for (std::uint64_t t = 101; t < *next; ++t) {
      EXPECT_FALSE(eng.is_happy("dyn", v, t));
    }
  }
}

TEST(EngineMutation, RejectsNonDynamicInstancesAndBadCommands) {
  fe::Engine eng;
  (void)eng.create_instance("static", fg::cycle(8), spec_of(fe::SchedulerKind::kPrefixCode));
  (void)eng.create_instance("dyn", fg::cycle(8), spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  const std::vector<fdy::MutationCommand> cmds{fdy::insert_edge_command(0, 2)};
  EXPECT_THROW((void)eng.apply_mutations("static", cmds), std::logic_error);
  EXPECT_THROW((void)eng.apply_mutations("missing", cmds), std::out_of_range);
  const std::vector<fdy::MutationCommand> bad{fdy::insert_edge_command(3, 3)};
  EXPECT_THROW((void)eng.apply_mutations("dyn", bad), std::invalid_argument);
  const std::vector<fdy::MutationCommand> out_of_range{fdy::erase_edge_command(0, 99)};
  EXPECT_THROW((void)eng.apply_mutations("dyn", out_of_range), std::invalid_argument);

  // Batches are all-or-nothing: a malformed command anywhere rejects the
  // whole batch with nothing applied, logged, or republished.
  const auto handle = eng.find("dyn");
  const std::vector<fdy::MutationCommand> half_bad{fdy::insert_edge_command(0, 2),
                                                   fdy::erase_edge_command(0, 99)};
  EXPECT_THROW((void)eng.apply_mutations("dyn", half_bad), std::invalid_argument);
  EXPECT_TRUE(handle->mutation_log().empty());
  EXPECT_EQ(handle->table_version(), 0U);
  EXPECT_NO_THROW((void)eng.is_happy("dyn", 0, 1));  // still serving
}

TEST(EngineMutation, AddNodeGrowsServedTenant) {
  fe::Engine eng;
  (void)eng.create_instance("dyn", fg::cycle(6), spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  const auto handle = eng.find("dyn");
  EXPECT_EQ(handle->num_nodes(), 6U);
  const std::vector<fdy::MutationCommand> cmds{fdy::add_node_command(),
                                               fdy::insert_edge_command(6, 0)};
  const auto result = eng.apply_mutations("dyn", cmds);
  EXPECT_EQ(result.applied, 2U);
  EXPECT_EQ(handle->num_nodes(), 7U);
  // The recipe graph is unchanged; only the live topology grew.
  EXPECT_EQ(handle->graph().num_nodes(), 6U);
  // The new node is served like any other.
  const auto next = eng.next_gathering("dyn", 6, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(eng.is_happy("dyn", 6, *next));
}

TEST(EngineMutation, HeldViewAnswersRacingBatchesAtPublishedVersions) {
  // Writers apply batches (each adds a node) to one dynamic tenant while
  // readers run both batch kernels on a view taken before any of them,
  // probing up to the live node count.  Each batch run must be answered
  // from exactly one published table version, and a probe whose node
  // exists must never be rejected.
  fe::Engine eng({.shards = 2, .threads = 1});
  const fg::Graph recipe = fg::cycle(12);
  (void)eng.create_instance("dyn", recipe, spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  (void)eng.create_instance("static", fg::cycle(9), spec_of(fe::SchedulerKind::kPrefixCode));
  const auto handle = eng.find("dyn");
  const auto view = eng.query_snapshot();
  const std::uint32_t dyn = *view->id_of("dyn");
  const std::uint32_t fixed = *view->id_of("static");

  constexpr int kWriters = 2;
  constexpr int kBatches = 40;  // per writer
  constexpr int kReaders = 2;
  constexpr std::size_t kMaxRecorded = 1500;  // observations kept per reader
  struct Observation {
    std::vector<fe::Probe> probes;
    std::vector<std::uint64_t> answers;
    bool membership = true;
  };
  std::atomic<int> readers_ready{0};
  std::atomic<int> writers_left{kWriters};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::vector<Observation>> seen(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      fhg::parallel::Rng rng(100 + static_cast<std::uint64_t>(r));
      readers_ready.fetch_add(1);  // writers start once every reader runs
      bool membership = true;
      do {
        const fg::NodeId n = view->num_nodes(dyn);
        Observation obs;
        obs.membership = membership;
        for (int i = 0; i < 24; ++i) {
          obs.probes.push_back({dyn, static_cast<fg::NodeId>(rng.uniform_below(n)),
                                1 + rng.uniform_below(400)});
        }
        for (int i = 0; i < 4; ++i) {
          obs.probes.push_back({fixed, static_cast<fg::NodeId>(rng.uniform_below(9)),
                                1 + rng.uniform_below(400)});
        }
        obs.answers.assign(obs.probes.size(), 0);
        try {
          if (membership) {
            std::vector<std::uint8_t> out(obs.probes.size());
            view->query_batch(obs.probes, out);
            std::copy(out.begin(), out.end(), obs.answers.begin());
          } else {
            view->next_gathering_batch(obs.probes, obs.answers);
          }
        } catch (const std::out_of_range&) {
          rejected.fetch_add(1);
          continue;
        }
        if (seen[r].size() < kMaxRecorded) {
          seen[r].push_back(std::move(obs));
        }
        membership = !membership;
      } while (writers_left.load() > 0);
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      fhg::parallel::Rng rng(7 + static_cast<std::uint64_t>(w));
      while (readers_ready.load() < kReaders) {
        std::this_thread::yield();
      }
      for (int b = 0; b < kBatches; ++b) {
        const fg::NodeId n = handle->num_nodes();  // nodes only ever grow
        std::vector<fdy::MutationCommand> cmds{fdy::add_node_command()};
        for (int e = 0; e < 3; ++e) {
          const auto u = static_cast<fg::NodeId>(rng.uniform_below(n));
          const auto v = static_cast<fg::NodeId>(rng.uniform_below(n));
          if (u != v) {
            cmds.push_back(rng.uniform_below(4) == 0 ? fdy::erase_edge_command(u, v)
                                                     : fdy::insert_edge_command(u, v));
          }
        }
        cmds.push_back(fdy::insert_edge_command(n, static_cast<fg::NodeId>(rng.uniform_below(n))));
        (void)eng.apply_mutations("dyn", cmds);
        std::this_thread::yield();
      }
      writers_left.fetch_sub(1);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(rejected.load(), 0U) << "a probe on an existing node was rejected";
  EXPECT_EQ(handle->table_version(), static_cast<std::uint64_t>(kWriters * kBatches));
  EXPECT_EQ(eng.query_snapshot().get(), view.get());  // no batch rebuilt the view

  // Every published version, rebuilt by replaying the tenant's batches over
  // its recipe on a fresh engine.
  fe::Engine replay({.shards = 1, .threads = 1});
  (void)replay.create_instance("dyn", recipe, spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  const auto replayed = replay.find("dyn");
  std::vector<std::shared_ptr<const fe::PeriodTable>> versions{replayed->period_table_shared()};
  const fe::Instance::PersistedState state = handle->persisted_state();
  std::size_t offset = 0;
  for (const fdy::BatchRecord& record : state.batches) {
    (void)replay.wal_replay_batch(
        "dyn", std::span(state.log).subspan(offset, record.size), record);
    offset += record.size;
    versions.push_back(replayed->period_table_shared());
  }
  ASSERT_EQ(versions.size(), static_cast<std::size_t>(kWriters * kBatches + 1));
  EXPECT_EQ(*versions.back(), *handle->period_table_shared());

  std::size_t checked = 0;
  for (const auto& observations : seen) {
    for (const Observation& obs : observations) {
      bool matched = false;
      for (const auto& table : versions) {
        bool all = true;
        for (std::size_t i = 0; i < obs.probes.size() && all; ++i) {
          const fe::Probe& p = obs.probes[i];
          if (p.instance != dyn) {
            continue;
          }
          if (p.node >= table->num_nodes()) {
            all = false;
          } else if (obs.membership) {
            all = (obs.answers[i] != 0) == table->is_happy(p.node, p.holiday);
          } else {
            all = obs.answers[i] == table->next_gathering(p.node, p.holiday);
          }
        }
        matched |= all;
      }
      EXPECT_TRUE(matched) << "a batch run matched no single published version";
      for (std::size_t i = 0; i < obs.probes.size(); ++i) {
        const fe::Probe& p = obs.probes[i];
        if (p.instance == fixed) {
          EXPECT_EQ(obs.answers[i],
                    obs.membership ? std::uint64_t{eng.is_happy("static", p.node, p.holiday)}
                                   : *eng.next_gathering("static", p.node, p.holiday));
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0U);

  // Once the writers are done the held view answers at the final version,
  // bounds dynamic probes by the live count, and rejects the first id past
  // it from both kernels.
  const fg::NodeId live = handle->num_nodes();
  EXPECT_EQ(view->num_nodes(dyn), live);
  std::vector<fe::Probe> last;
  for (fg::NodeId v = 0; v < live; ++v) {
    last.push_back({dyn, v, 1 + v % 97});
  }
  std::vector<std::uint8_t> member(last.size());
  std::vector<std::uint64_t> next(last.size());
  view->query_batch(last, member);
  view->next_gathering_batch(last, next);
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(member[i] != 0, versions.back()->is_happy(last[i].node, last[i].holiday));
    EXPECT_EQ(next[i], versions.back()->next_gathering(last[i].node, last[i].holiday));
  }
  const std::vector<fe::Probe> past{{dyn, live, 1}};
  std::uint8_t member_out = 0;
  std::uint64_t next_out = 0;
  EXPECT_THROW(view->query_batch(past, std::span(&member_out, 1)), std::out_of_range);
  EXPECT_THROW(view->next_gathering_batch(past, std::span(&next_out, 1)), std::out_of_range);
}

TEST(SnapshotV2, MidLogRestoreIsByteIdentical) {
  fe::Engine eng({.shards = 4, .threads = 2});
  (void)eng.create_instance("dyn-a", fg::gnp(24, 0.1, 5),
                            spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  (void)eng.create_instance("dyn-b", fg::cycle(16),
                            spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  (void)eng.create_instance("static", fg::clique(6), spec_of(fe::SchedulerKind::kDegreeBound));
  (void)eng.create_instance("aper", fg::gnp(20, 0.1, 6),
                            spec_of(fe::SchedulerKind::kPhasedGreedy));

  // Mutations land at different holidays: mid-log, mid-history.
  (void)eng.step_all(8);
  (void)eng.apply_mutations(
      "dyn-a", std::vector{fdy::insert_edge_command(0, 1), fdy::erase_edge_command(2, 3),
                           fdy::add_node_command()});
  (void)eng.step_all(8);
  (void)eng.apply_mutations(
      "dyn-a", std::vector{fdy::insert_edge_command(24, 4)});  // touches the added node
  (void)eng.apply_mutations(
      "dyn-b", std::vector{fdy::insert_edge_command(0, 2), fdy::insert_edge_command(0, 4)});
  (void)eng.step_all(8);

  const auto bytes = eng.snapshot();
  fe::Engine restored({.shards = 2, .threads = 1});
  restored.load_snapshot(bytes);
  EXPECT_EQ(restored.snapshot(), bytes);  // byte-identical re-snapshot, mid-log

  // The restored dynamic tenants carry the same log and answer identically.
  for (const auto* name : {"dyn-a", "dyn-b"}) {
    const auto original = eng.find(name);
    const auto copy = restored.find(name);
    ASSERT_NE(copy, nullptr) << name;
    EXPECT_EQ(original->mutation_log(), copy->mutation_log()) << name;
    EXPECT_EQ(original->current_holiday(), copy->current_holiday()) << name;
    EXPECT_EQ(original->num_nodes(), copy->num_nodes()) << name;
    for (fg::NodeId v = 0; v < original->num_nodes(); ++v) {
      for (std::uint64_t t = 1; t <= 64; ++t) {
        ASSERT_EQ(original->is_happy(v, t), copy->is_happy(v, t))
            << name << " node " << v << " holiday " << t;
      }
    }
  }
}

TEST(SnapshotV2, V1FixtureStillLoads) {
  // Checked-in v1 bytes: "deg" (cycle(10), degree-bound) and "stat"
  // (gnp(12, 0.2, 29), default spec), both at holiday 4.
  const auto v1 = ft::from_hex(ft::kSnapshotV1Hex);
  fe::InstanceRegistry out(2);
  fe::restore_registry(out, v1);  // version dispatch: v1 still loads
  ASSERT_EQ(out.size(), 2U);

  // A v1 restore zeroes the v3-only spec knobs: those tenants were built
  // serial, and replay must keep them serial.  Each answers exactly like a
  // tenant freshly built from the same recipe.
  fe::InstanceRegistry fresh(2);
  fe::InstanceSpec deg_spec = spec_of(fe::SchedulerKind::kDegreeBound);
  fe::InstanceSpec stat_spec;
  for (fe::InstanceSpec* spec : {&deg_spec, &stat_spec}) {
    spec->parallel_crossover = 0;
    spec->bulk_threshold = 0;
  }
  (void)fresh.create("deg", fg::cycle(10), deg_spec);
  (void)fresh.create("stat", fg::gnp(12, 0.2, 29), stat_spec);
  for (const auto* name : {"deg", "stat"}) {
    const auto restored = out.find(name);
    const auto built = fresh.find(name);
    ASSERT_NE(restored, nullptr) << name;
    EXPECT_EQ(restored->spec(), built->spec()) << name;
    EXPECT_EQ(restored->current_holiday(), 4U) << name;
    built->fast_forward(4);
    for (fg::NodeId v = 0; v < built->num_nodes(); ++v) {
      for (std::uint64_t t = 1; t <= 64; ++t) {
        ASSERT_EQ(restored->is_happy(v, t), built->is_happy(v, t))
            << name << " node " << v << " holiday " << t;
      }
    }
  }
}

namespace {

/// A v3 single-instance snapshot of "x": all-zero spec fields, 4 nodes, and
/// one (first delta, second delta) pair per edge.
std::vector<std::uint8_t> blob_with_edge_deltas(
    std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> deltas) {
  fc::BitWriter w;
  w.put_bits(0x46484753, 32);  // "FHGS"
  w.put_uint(3);               // version
  w.put_uint(1);               // instance count
  w.put_uint(1);
  w.put_bits('x', 8);
  for (int field = 0; field < 7; ++field) {
    w.put_uint(0);  // kind, code, seed, slack, crossover, bulk, period count
  }
  w.put_uint(4);
  w.put_uint(deltas.size());
  for (const auto& [first, second] : deltas) {
    w.put_uint(first);
    w.put_uint(second);
  }
  w.put_uint(0);  // holiday
  w.put_uint(0);  // empty log
  w.put_uint(0);  // no batch records
  return w.finish();
}

}  // namespace

TEST(SnapshotV3, NonCanonicalEdgeStreamsFailTyped) {
  // The canonical coding of edge {1, 3} restores and re-encodes exactly.
  const auto canonical = blob_with_edge_deltas({{1, 1}});
  EXPECT_EQ(fe::snapshot_instance(*fe::restore_instance(canonical)), canonical);

  // Deltas whose 64-bit sums wrap around to second = 3, with first narrowing
  // to 1: a decoder that adds before it checks reads edge {1, 3} from these
  // 24 bytes, which re-encode to other bytes.
  const auto wrapped = blob_with_edge_deltas({{0xFFFFFFFF00000001ULL, 0x100000001ULL}});
  EXPECT_EQ(wrapped.size(), 24U);
  EXPECT_THROW((void)fe::restore_instance(wrapped), fc::DecodeError);

  EXPECT_THROW((void)fe::restore_instance(blob_with_edge_deltas({{4, 0}})), fc::DecodeError);
  EXPECT_THROW((void)fe::restore_instance(blob_with_edge_deltas({{3, 0}})), fc::DecodeError);
  // A repeated edge, and two edges out of order.
  EXPECT_THROW((void)fe::restore_instance(blob_with_edge_deltas({{0, 0}, {0, 0}})),
               fc::DecodeError);
  EXPECT_THROW((void)fe::restore_instance(blob_with_edge_deltas({{0, 2}, {0, 0}})),
               fc::DecodeError);
}

TEST(SnapshotV3, OutOfRangeLogCommandFailsTyped) {
  // A v3 blob of dynamic tenant "x" on 4 edgeless nodes whose log is one
  // per-command batch: insert edge {0, v} at holiday 0.
  const auto blob_inserting = [](std::uint64_t v) {
    fc::BitWriter w;
    w.put_bits(0x46484753, 32);  // "FHGS"
    w.put_uint(3);               // version
    w.put_uint(1);               // instance count
    w.put_uint(1);
    w.put_bits('x', 8);
    w.put_uint(static_cast<std::uint64_t>(fe::SchedulerKind::kDynamicPrefixCode));
    for (int field = 0; field < 6; ++field) {
      w.put_uint(0);  // code, seed, slack, crossover, bulk, period count
    }
    w.put_uint(4);  // nodes
    w.put_uint(0);  // edges
    w.put_uint(0);  // holiday
    w.put_uint(1);  // log: one command
    w.put_uint(static_cast<std::uint64_t>(fdy::MutationOp::kInsertEdge));
    w.put_uint(0);  // holiday delta
    w.put_uint(0);
    w.put_uint(v);
    w.put_uint(1);  // batch records: one, of size 1, per command
    w.put_uint(1);
    w.put_bit(false);
    return w.finish();
  };
  const auto in_range = blob_inserting(3);
  EXPECT_EQ(fe::snapshot_instance(*fe::restore_instance(in_range)), in_range);

  // Past n the blob still parses; the replay refuses the command, and the
  // restore reports that as a decode failure, not std::invalid_argument.
  const auto past_n = blob_inserting(5);
  EXPECT_THROW((void)fe::restore_instance(past_n), fc::DecodeError);
  fe::InstanceRegistry registry(2);
  (void)registry.create("keep", fg::path(4), spec_of(fe::SchedulerKind::kRoundRobin));
  EXPECT_THROW(fe::restore_registry(registry, past_n), fc::DecodeError);
  EXPECT_EQ(registry.size(), 1U);
  EXPECT_NE(registry.find("keep"), nullptr);
}

TEST(SnapshotV2, TruncationAndCorruptionFailTyped) {
  fe::Engine eng;
  (void)eng.create_instance("dyn", fg::cycle(8), spec_of(fe::SchedulerKind::kDynamicPrefixCode));
  (void)eng.step_all(4);
  (void)eng.apply_mutations("dyn", std::vector{fdy::insert_edge_command(0, 2)});
  const auto bytes = eng.snapshot();

  // Every proper prefix either fails with a typed error or — for cuts that
  // only drop zero padding — restores cleanly.  Nothing else is acceptable.
  std::size_t threw = 0;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    fe::InstanceRegistry scratch(2);
    try {
      fe::restore_registry(scratch, std::span(bytes.data(), len));
    } catch (const std::runtime_error&) {
      ++threw;
    } catch (const std::invalid_argument&) {
      ++threw;
    }
  }
  EXPECT_GE(threw, bytes.size() - 2);

  // Single-bit corruption: typed error or a well-formed (different) tenancy;
  // never UB — the sanitizer job keeps this honest.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x10;
    fe::InstanceRegistry scratch(2);
    try {
      fe::restore_registry(scratch, corrupt);
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }

  // Deterministic garbage with a valid magic still fails typed.
  fhg::parallel::Rng rng(99);
  std::vector<std::uint8_t> garbage{0x46, 0x48, 0x47, 0x53};
  for (int i = 0; i < 64; ++i) {
    garbage.push_back(static_cast<std::uint8_t>(rng.uniform_below(256)));
  }
  fe::InstanceRegistry scratch(2);
  EXPECT_THROW(fe::restore_registry(scratch, garbage), std::runtime_error);
}
