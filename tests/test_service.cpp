// Tests for fhg::service — the sharded asynchronous request pipeline:
// typed backpressure at admission, drain-on-shutdown completing every
// accepted request, mutation/query serialization through one shard's FIFO,
// and cross-shard determinism of answers against the direct synchronous
// engine path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/service/metrics.hpp"
#include "fhg/service/service.hpp"
#include "fhg/workload/scenario.hpp"

namespace fa = fhg::api;
namespace fd = fhg::dynamic;
namespace fe = fhg::engine;
namespace fg = fhg::graph;
namespace fs = fhg::service;
namespace fw = fhg::workload;

namespace {

fw::ScenarioSpec fleet_spec(std::size_t fleet, double aperiodic = 0.25, double dyn = 0.0) {
  fw::ScenarioSpec spec;
  spec.family = fw::GraphFamily::kPowerLaw;
  spec.fleet = fleet;
  spec.nodes = 16;
  spec.seed = 7;
  spec.horizon = 256;
  spec.aperiodic = aperiodic;
  spec.dynamic_share = dyn;
  return spec;
}

std::unique_ptr<fe::Engine> make_fleet(const fw::ScenarioSpec& spec) {
  auto engine = std::make_unique<fe::Engine>(fe::EngineOptions{.shards = 8, .threads = 2});
  fw::ScenarioGenerator(spec).populate(*engine);
  (void)engine->step_all(32);
  return engine;
}

/// A one-instance engine with a dynamic tenant named "dyn" over C_8.
std::unique_ptr<fe::Engine> make_dynamic_single() {
  auto engine = std::make_unique<fe::Engine>(fe::EngineOptions{.shards = 4, .threads = 1});
  fe::InstanceSpec spec;
  spec.kind = fe::SchedulerKind::kDynamicPrefixCode;
  (void)engine->create_instance("dyn", fg::cycle(8), spec);
  (void)engine->step_all(16);
  return engine;
}

}  // namespace

// ----------------------------------------------------------- metrics -------

TEST(ServiceMetrics, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(fs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(fs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(fs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(fs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(fs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(fs::Histogram::bucket_of(7), 3u);
  EXPECT_EQ(fs::Histogram::bucket_of(8), 4u);
  // Values past the last exact bucket clamp into it.
  EXPECT_EQ(fs::Histogram::bucket_of(~std::uint64_t{0}), fs::Histogram::kBuckets - 1);
  EXPECT_EQ(fs::Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(fs::Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(fs::Histogram::bucket_floor(4), 8u);
}

TEST(ServiceMetrics, HistogramRecordsTotalsAndMerges) {
  fs::Histogram a;
  a.record(0);
  a.record(5);
  a.record(5);
  EXPECT_EQ(a.total(), 3u);
  fs::Histogram b;
  b.record(1);
  b.merge(a);
  EXPECT_EQ(b.total(), 4u);
  EXPECT_EQ(b.buckets[fs::Histogram::bucket_of(5)], 2u);
}

TEST(ServiceMetrics, ShardMergeSumsCountersAndMaxesHighWater) {
  fs::ShardMetrics a;
  a.accepted = 10;
  a.queue_high_water = 3;
  fs::ShardMetrics b;
  b.accepted = 5;
  b.queue_high_water = 8;
  a.merge(b);
  EXPECT_EQ(a.accepted, 15u);
  EXPECT_EQ(a.queue_high_water, 8u);
}

// -------------------------------------------------------- admission --------

TEST(Service, BackpressureRejectsTypedWhenQueueFull) {
  auto engine = make_dynamic_single();
  // Deferred start: nothing drains, so the queue fills deterministically.
  fs::Service service(*engine, {.shards = 1, .queue_capacity = 4, .start = false});
  std::vector<fs::Submission<bool>> accepted;
  for (int i = 0; i < 4; ++i) {
    auto pending = service.is_happy("dyn", 0, 1 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(pending.accepted()) << i;
    accepted.push_back(std::move(pending));
  }
  auto refused = service.is_happy("dyn", 0, 99);
  ASSERT_FALSE(refused.accepted());
  EXPECT_EQ(*refused.reject, fs::Reject::kQueueFull);
  EXPECT_EQ(fs::reject_name(*refused.reject), "queue-full");

  // The callback flavor is refused the same way, without invoking `done`.
  std::atomic<int> invoked{0};
  const auto reject = service.is_happy("dyn", 0, 99, [&](fs::Outcome<bool>) { ++invoked; });
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, fs::Reject::kQueueFull);

  // Draining starts the worker: every *accepted* request still completes.
  service.drain();
  for (auto& pending : accepted) {
    EXPECT_NO_THROW((void)pending.future.get());
  }
  EXPECT_EQ(invoked.load(), 0);
  const auto totals = service.metrics().totals();
  EXPECT_EQ(totals.accepted, 4u);
  EXPECT_EQ(totals.rejected_full, 2u);
  EXPECT_EQ(totals.queue_high_water, 4u);
}

TEST(Service, StoppedServiceRejectsTyped) {
  auto engine = make_dynamic_single();
  fs::Service service(*engine, {.shards = 2});
  service.drain();
  EXPECT_TRUE(service.stopped());
  auto refused = service.next_gathering("dyn", 0, 0);
  ASSERT_FALSE(refused.accepted());
  EXPECT_EQ(*refused.reject, fs::Reject::kStopped);
  EXPECT_EQ(fs::reject_name(*refused.reject), "stopped");
  EXPECT_GE(service.metrics().totals().rejected_stopped, 1u);
}

TEST(Service, UnknownInstanceAndBadNodeFailPerRequest) {
  auto engine = make_dynamic_single();
  fs::Service service(*engine, {.shards = 2});
  // A failing request must not poison valid ones coalesced with it.
  auto good = service.is_happy("dyn", 0, 1);
  auto missing = service.is_happy("no-such-tenant", 0, 1);
  auto bad_node = service.is_happy("dyn", 1000, 1);
  ASSERT_TRUE(good.accepted());
  ASSERT_TRUE(missing.accepted());
  ASSERT_TRUE(bad_node.accepted());
  EXPECT_NO_THROW((void)good.future.get());
  EXPECT_THROW((void)missing.future.get(), std::runtime_error);
  EXPECT_THROW((void)bad_node.future.get(), std::runtime_error);

  std::atomic<bool> saw_error{false};
  ASSERT_FALSE(service.next_gathering("no-such-tenant", 0, 0,
                                      [&](fs::Outcome<std::uint64_t> outcome) {
                                        saw_error = !outcome.ok() && !outcome.error.empty();
                                      })
                   .has_value());
  service.drain();
  EXPECT_TRUE(saw_error.load());
  EXPECT_GE(service.metrics().totals().failed, 3u);
}

// ------------------------------------------------------------ drain --------

TEST(Service, DrainCompletesEveryAcceptedRequest) {
  const fw::ScenarioSpec spec = fleet_spec(16);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 4, .queue_capacity = 8192});
  std::atomic<std::uint64_t> completed{0};
  std::uint64_t accepted = 0;
  const auto stream = generator.request_stream(2000, 3);
  for (const fa::Request& request : stream) {
    std::optional<fs::Reject> reject;
    if (const auto* next = std::get_if<fa::NextGatheringRequest>(&request)) {
      reject = service.next_gathering(next->instance, next->node, next->after,
                                      [&](fs::Outcome<std::uint64_t>) { ++completed; });
    } else {
      const auto& happy = std::get<fa::IsHappyRequest>(request);
      reject = service.is_happy(happy.instance, happy.node, happy.holiday,
                                [&](fs::Outcome<bool>) { ++completed; });
    }
    accepted += reject.has_value() ? 0 : 1;
  }
  service.drain();
  EXPECT_EQ(completed.load(), accepted);
  const auto totals = service.metrics().totals();
  EXPECT_EQ(totals.accepted, accepted);
  EXPECT_EQ(totals.queries + totals.next_gatherings, accepted);
  EXPECT_EQ(totals.latency_us.total(), accepted);
  EXPECT_GE(totals.batches, 1u);
  EXPECT_EQ(totals.batch_size.total(), totals.batches);
  EXPECT_EQ(totals.failed, 0u);
  // Drain is idempotent and the second call still reports stopped.
  service.drain();
  EXPECT_TRUE(service.stopped());
}

// -------------------------------------------- mutation serialization -------

TEST(Service, MutationSerializesAgainstQueriesOnOneShard) {
  auto engine = make_dynamic_single();
  auto twin = make_dynamic_single();

  // Queue Q1 → M → Q2 → M2 → Q3 on the single shard *before* starting the
  // worker, so the FIFO order is exactly the submission order.
  fs::Service service(*engine, {.shards = 1, .queue_capacity = 64, .start = false});
  const fg::NodeId node = 3;
  const std::uint64_t holiday = 12;
  const std::vector<fd::MutationCommand> first{fd::insert_edge_command(3, 6)};
  const std::vector<fd::MutationCommand> second{fd::erase_edge_command(3, 6),
                                                fd::insert_edge_command(1, 5)};
  auto q1 = service.is_happy("dyn", node, holiday);
  auto m1 = service.apply_mutations("dyn", first);
  auto q2 = service.is_happy("dyn", node, holiday);
  auto m2 = service.apply_mutations("dyn", second);
  auto q3 = service.is_happy("dyn", node, holiday);
  ASSERT_TRUE(q1.accepted() && m1.accepted() && q2.accepted() && m2.accepted() &&
              q3.accepted());
  service.start();
  service.drain();

  // The twin runs the identical sequence synchronously: the async pipeline
  // must observe each query at the same schedule version.
  const bool expect1 = twin->is_happy("dyn", node, holiday);
  const fe::MutationResult twin_m1 = twin->apply_mutations("dyn", first);
  const bool expect2 = twin->is_happy("dyn", node, holiday);
  const fe::MutationResult twin_m2 = twin->apply_mutations("dyn", second);
  const bool expect3 = twin->is_happy("dyn", node, holiday);

  EXPECT_EQ(q1.future.get(), expect1);
  EXPECT_EQ(q2.future.get(), expect2);
  EXPECT_EQ(q3.future.get(), expect3);
  const fe::MutationResult r1 = m1.future.get();
  const fe::MutationResult r2 = m2.future.get();
  EXPECT_EQ(r1.applied, twin_m1.applied);
  EXPECT_EQ(r2.applied, twin_m2.applied);
  EXPECT_EQ(r1.table_version, twin_m1.table_version);
  EXPECT_EQ(r2.table_version, twin_m2.table_version);
  EXPECT_EQ(engine->find("dyn")->table_version(), twin->find("dyn")->table_version());
  EXPECT_EQ(engine->find("dyn")->mutation_log().size(),
            twin->find("dyn")->mutation_log().size());
  EXPECT_EQ(service.metrics().totals().mutations, 2u);
}

TEST(Service, ReadsOwnAddNodeThroughHandle) {
  // One connection's frames, pipelined through `handle` without waiting:
  // a read primes the query view, then a batch adds a node (and marries it
  // to node 0, forcing a recolor), then both reads ask about the new node.
  // The view is not rebuilt by the batch, so the reads must see the node
  // through the live bound — ok, and equal to a direct engine call.
  auto engine = make_dynamic_single();
  fs::Service service(*engine, {.shards = 2});
  const fg::NodeId fresh = engine->find("dyn")->num_nodes();
  std::vector<fa::Request> frames;
  frames.emplace_back(fa::IsHappyRequest{"dyn", 0, 5});
  frames.emplace_back(fa::ApplyMutationsRequest{
      "dyn", {fd::add_node_command(), fd::insert_edge_command(fresh, 0)}});
  frames.emplace_back(fa::IsHappyRequest{"dyn", fresh, 40});
  frames.emplace_back(fa::NextGatheringRequest{"dyn", fresh, 40});
  std::vector<std::promise<fa::Response>> done(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    service.handle(std::move(frames[i]),
                   [&done, i](fa::Response response) { done[i].set_value(std::move(response)); });
  }
  std::vector<fa::Response> responses;
  for (auto& promise : done) {
    responses.push_back(promise.get_future().get());
  }
  for (const fa::Response& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status.detail;
  }
  const auto& mutation = std::get<fa::ApplyMutationsResponse>(responses[1].payload);
  EXPECT_EQ(mutation.applied, 2u);
  EXPECT_EQ(engine->find("dyn")->num_nodes(), fresh + 1);
  EXPECT_EQ(std::get<fa::IsHappyResponse>(responses[2].payload).happy,
            engine->is_happy("dyn", fresh, 40));
  const auto next = engine->next_gathering("dyn", fresh, 40);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(std::get<fa::NextGatheringResponse>(responses[3].payload).holiday, *next);
}

TEST(Service, MutatingNonDynamicInstanceFailsTyped) {
  const fw::ScenarioSpec spec = fleet_spec(4, /*aperiodic=*/0.0);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 2});
  auto pending =
      service.apply_mutations(generator.tenant_name(0), {fd::insert_edge_command(0, 2)});
  ASSERT_TRUE(pending.accepted());
  EXPECT_THROW((void)pending.future.get(), std::runtime_error);
}

// ---------------------------------------------------- determinism ----------

TEST(Service, AnswersMatchDirectEngineAcrossShardCounts) {
  const fw::ScenarioSpec spec = fleet_spec(32);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  const auto stream = generator.request_stream(1500, 11);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    fs::Service service(*engine, {.shards = shards, .queue_capacity = 4096});
    std::vector<std::pair<const fa::IsHappyRequest*, fs::Submission<bool>>> memberships;
    std::vector<std::pair<const fa::NextGatheringRequest*, fs::Submission<std::uint64_t>>> nexts;
    for (const fa::Request& request : stream) {
      if (const auto* happy = std::get_if<fa::IsHappyRequest>(&request)) {
        auto pending = service.is_happy(happy->instance, happy->node, happy->holiday);
        ASSERT_TRUE(pending.accepted());
        memberships.emplace_back(happy, std::move(pending));
      } else {
        const auto& next = std::get<fa::NextGatheringRequest>(request);
        auto pending = service.next_gathering(next.instance, next.node, next.after);
        ASSERT_TRUE(pending.accepted());
        nexts.emplace_back(&next, std::move(pending));
      }
    }
    service.drain();
    for (auto& [request, pending] : memberships) {
      EXPECT_EQ(pending.future.get(),
                engine->is_happy(request->instance, request->node, request->holiday))
          << shards << " shards, instance " << request->instance;
    }
    for (auto& [request, pending] : nexts) {
      EXPECT_EQ(pending.future.get(),
                engine->next_gathering(request->instance, request->node, request->after)
                    .value_or(fe::kNoGathering))
          << shards << " shards, instance " << request->instance;
    }
  }
}

TEST(Service, ConcurrentSubmittersAllComplete) {
  const fw::ScenarioSpec spec = fleet_spec(16);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 4, .queue_capacity = 512});
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 500;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto stream = generator.request_stream(kPerClient, 100 + c);
      for (const fa::Request& request : stream) {
        // Every request degrades to a membership probe here: the test
        // exercises admission under contention, not answer shapes.
        const auto [name, node, holiday] = [&] {
          if (const auto* next = std::get_if<fa::NextGatheringRequest>(&request)) {
            return std::tuple<std::string, fg::NodeId, std::uint64_t>(next->instance,
                                                                      next->node, next->after);
          }
          const auto& happy = std::get<fa::IsHappyRequest>(request);
          return std::tuple<std::string, fg::NodeId, std::uint64_t>(happy.instance, happy.node,
                                                                    happy.holiday);
        }();
        for (;;) {
          const auto reject = service.is_happy(name, node, holiday,
                                               [&](fs::Outcome<bool>) { ++completed; });
          if (!reject) {
            ++submitted;
            break;
          }
          ASSERT_EQ(*reject, fs::Reject::kQueueFull);  // bounded queue, not stopped
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  service.drain();
  EXPECT_EQ(submitted.load(), kClients * kPerClient);
  EXPECT_EQ(completed.load(), submitted.load());
  EXPECT_EQ(service.metrics().totals().accepted, submitted.load());
}

// --------------------------------------------------- request stream --------

TEST(Workload, RequestStreamIsDeterministicAndRespectsShares) {
  fw::ScenarioSpec spec = fleet_spec(32, /*aperiodic=*/0.1, /*dyn=*/0.5);
  spec.mutation = 0.2;
  const fw::ScenarioGenerator a(spec);
  const fw::ScenarioGenerator b(spec);
  const auto stream_a = a.request_stream(4000, 5);
  EXPECT_EQ(stream_a, b.request_stream(4000, 5));
  EXPECT_NE(stream_a, a.request_stream(4000, 6)) << "rounds must differ";

  // Requests are addressed by tenant name ("<family>-<slot>"); recover the
  // slot to cross-check the recipe the roll was kept for.
  const auto slot_of = [](std::string_view name) {
    return static_cast<std::size_t>(
        std::strtoull(std::string(name.substr(name.rfind('-') + 1)).c_str(), nullptr, 10));
  };
  std::size_t mutates = 0;
  std::size_t nexts = 0;
  for (const fa::Request& request : stream_a) {
    if (const auto* mutate = std::get_if<fa::ApplyMutationsRequest>(&request)) {
      const std::size_t slot = slot_of(mutate->instance);
      ASSERT_LT(slot, spec.fleet);
      // Only dynamic slots may be asked to mutate, and the commands are
      // materialized into the request itself.
      EXPECT_EQ(a.recipe_at(slot, 0).kind, fe::SchedulerKind::kDynamicPrefixCode);
      EXPECT_FALSE(mutate->commands.empty());
      ++mutates;
    } else if (const auto* next = std::get_if<fa::NextGatheringRequest>(&request)) {
      ASSERT_LT(slot_of(next->instance), spec.fleet);
      ASSERT_LT(next->node, spec.nodes);
      ++nexts;
    } else {
      const auto& happy = std::get<fa::IsHappyRequest>(request);
      ASSERT_LT(slot_of(happy.instance), spec.fleet);
      ASSERT_LT(happy.node, spec.nodes);
      ASSERT_GE(happy.holiday, 1u);
    }
  }
  EXPECT_GT(mutates, 0u);
  EXPECT_GT(nexts, 0u);
  EXPECT_LT(mutates, stream_a.size() / 2);
}
