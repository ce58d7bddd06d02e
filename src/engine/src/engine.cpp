#include "fhg/engine/engine.hpp"

#include <chrono>
#include <stdexcept>

namespace fhg::engine {

namespace {

/// Microseconds elapsed since `start`, saturated at zero.
std::uint64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  return us.count() > 0 ? static_cast<std::uint64_t>(us.count()) : 0;
}

}  // namespace

Engine::Telemetry::Telemetry(obs::Registry& registry)
    : queries(registry.counter("fhg_engine_queries_total")),
      batches(registry.counter("fhg_engine_batches_total")),
      batch_probes(registry.counter("fhg_engine_batch_probes_total")),
      mutation_batches(registry.counter("fhg_engine_mutation_batches_total")),
      mutation_commands(registry.counter("fhg_engine_mutation_commands_total")),
      recolors(registry.counter("fhg_engine_recolors_total")),
      bulk_batches(registry.counter("fhg_coloring_bulk_batches_total")),
      inplace_batches(registry.counter("fhg_coloring_inplace_batches_total")),
      parallel_rounds(registry.counter("fhg_coloring_parallel_rounds_total")),
      coloring_conflicts(registry.counter("fhg_coloring_conflicts_total")),
      builds_parallel(registry.counter("fhg_coloring_build_parallel_total")),
      builds_serial(registry.counter("fhg_coloring_build_serial_total")),
      instances_created(registry.counter("fhg_engine_instances_created_total")),
      instances_erased(registry.counter("fhg_engine_instances_erased_total")),
      snapshots(registry.counter("fhg_engine_snapshots_total")),
      snapshot_bytes(registry.counter("fhg_engine_snapshot_bytes_total")),
      restores(registry.counter("fhg_engine_restores_total")),
      instance_snapshots(registry.counter("fhg_engine_instance_snapshots_total")),
      adoptions(registry.counter("fhg_engine_instance_adoptions_total")),
      query_batch_us(registry.histogram("fhg_engine_query_batch_us")),
      mutation_us(registry.histogram("fhg_engine_mutation_us")),
      instances(registry.gauge("fhg_engine_instances")),
      nodes(registry.gauge("fhg_engine_nodes")),
      table_versions(registry.gauge("fhg_engine_table_versions")),
      last_snapshot_bytes(registry.gauge("fhg_engine_snapshot_bytes")) {}

Engine::Engine(EngineOptions options)
    : options_(options),
      telemetry_(metrics_),
      pool_(options.threads),
      registry_(options.shards),
      executor_(registry_, pool_) {}

api::Status Engine::try_create_instance(std::string name, graph::Graph g, InstanceSpec spec,
                                        std::shared_ptr<Instance>* created) {
  // Build first — a malformed spec (unknown kind, weighted period mismatch)
  // surfaces as `std::invalid_argument` from the scheduler factory — then
  // insert, where the only failure left is a name collision.
  std::shared_ptr<Instance> instance;
  try {
    instance = std::make_shared<Instance>(std::move(name), std::move(g), std::move(spec));
  } catch (const std::invalid_argument& e) {
    return api::Status::error(api::StatusCode::kInvalidArgument, e.what());
  } catch (const std::bad_alloc&) {
    return api::Status::error(api::StatusCode::kResourceExhausted,
                              "instance too large to allocate");
  } catch (const std::exception& e) {
    return api::Status::error(api::StatusCode::kInternal, e.what());
  }
  if (!registry_.insert(instance)) {
    return api::Status::error(api::StatusCode::kAlreadyExists,
                              "instance '" + instance->name() + "' already exists");
  }
  // Which path built the initial coloring, plus the JP round/conflict totals
  // when it was the parallel one — the observable trace of the crossover.
  const ColoringBuildStats& build = instance->build_stats();
  if (build.parallel) {
    telemetry_.builds_parallel.increment();
    telemetry_.parallel_rounds.add(build.jp.rounds);
    telemetry_.coloring_conflicts.add(build.jp.conflicts);
  } else {
    telemetry_.builds_serial.increment();
  }
  if (created != nullptr) {
    *created = std::move(instance);
  }
  telemetry_.instances_created.increment();
  if (WalSink* sink = wal_sink()) {
    sink->on_lifecycle();  // fold the new fleet shape into durable state
  }
  return api::Status::good();
}

std::shared_ptr<Instance> Engine::create_instance(std::string name, graph::Graph g,
                                                  InstanceSpec spec) {
  std::shared_ptr<Instance> created;
  const api::Status status =
      try_create_instance(std::move(name), std::move(g), std::move(spec), &created);
  if (!status.ok()) {
    throw std::invalid_argument("Engine::create_instance: " + status.detail);
  }
  return created;
}

api::Status Engine::erase_instance(std::string_view name) {
  if (!registry_.erase(name)) {
    return api::Status::error(api::StatusCode::kNotFound,
                              "no instance named '" + std::string(name) + "'");
  }
  telemetry_.instances_erased.increment();
  if (WalSink* sink = wal_sink()) {
    sink->on_lifecycle();  // log segments must never outlive their tenants
  }
  return api::Status::good();
}

std::shared_ptr<Instance> Engine::require(std::string_view instance) const {
  auto found = registry_.find(instance);
  if (!found) {
    throw std::out_of_range("Engine: no instance named '" + std::string(instance) + "'");
  }
  return found;
}

bool Engine::is_happy(std::string_view instance, graph::NodeId v, std::uint64_t t) {
  telemetry_.queries.increment();
  return require(instance)->is_happy(v, t);
}

std::optional<std::uint64_t> Engine::next_gathering(std::string_view instance, graph::NodeId v,
                                                    std::uint64_t after) {
  telemetry_.queries.increment();
  return require(instance)->next_gathering(v, after);
}

FairnessAudit Engine::audit(std::string_view instance) { return require(instance)->audit(); }

MutationResult Engine::apply_mutations(std::string_view instance,
                                       std::span<const dynamic::MutationCommand> commands) {
  const auto start = std::chrono::steady_clock::now();
  const MutationResult result = require(instance)->apply_mutations(commands, wal_sink());
  telemetry_.mutation_batches.increment();
  telemetry_.mutation_commands.add(commands.size());
  telemetry_.recolors.add(result.recolors);
  if (result.bulk) {
    telemetry_.bulk_batches.increment();
    telemetry_.parallel_rounds.add(result.jp_rounds);
    telemetry_.coloring_conflicts.add(result.jp_conflicts);
  } else {
    telemetry_.inplace_batches.increment();
  }
  telemetry_.mutation_us.record(elapsed_us(start));
  return result;
}

MutationResult Engine::wal_replay_batch(std::string_view instance,
                                        std::span<const dynamic::MutationCommand> commands,
                                        dynamic::BatchRecord record) {
  const auto start = std::chrono::steady_clock::now();
  const MutationResult result = require(instance)->wal_replay_batch(commands, record);
  telemetry_.mutation_batches.increment();
  telemetry_.mutation_commands.add(commands.size());
  telemetry_.recolors.add(result.recolors);
  if (result.bulk) {
    telemetry_.bulk_batches.increment();
    telemetry_.parallel_rounds.add(result.jp_rounds);
    telemetry_.coloring_conflicts.add(result.jp_conflicts);
  } else {
    telemetry_.inplace_batches.increment();
  }
  telemetry_.mutation_us.record(elapsed_us(start));
  return result;
}

std::shared_ptr<const QuerySnapshot> Engine::query_snapshot() {
  const std::uint64_t epoch = registry_.epoch();
  auto view = view_.load(std::memory_order_acquire);
  if (view && view->epoch() == epoch) {
    return view;  // warm path: no locks taken
  }
  const std::lock_guard<std::mutex> lock(view_mutex_);
  view = view_.load(std::memory_order_acquire);
  // Re-read the epoch under the rebuild lock: a create/erase racing the
  // rebuild bumps it again, and the next reader rebuilds once more.
  const std::uint64_t current = registry_.epoch();
  if (view && view->epoch() == current) {
    return view;
  }
  view = QuerySnapshot::build(registry_, current);
  view_.store(view, std::memory_order_release);
  return view;
}

std::vector<std::uint8_t> Engine::query_batch(std::span<const Probe> probes) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> out(probes.size());
  query_snapshot()->query_batch(probes, out);
  telemetry_.batches.increment();
  telemetry_.batch_probes.add(probes.size());
  telemetry_.query_batch_us.record(elapsed_us(start));
  return out;
}

std::vector<std::uint64_t> Engine::next_gathering_batch(std::span<const Probe> probes) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> out(probes.size());
  query_snapshot()->next_gathering_batch(probes, out);
  telemetry_.batches.increment();
  telemetry_.batch_probes.add(probes.size());
  telemetry_.query_batch_us.record(elapsed_us(start));
  return out;
}

std::vector<std::uint8_t> Engine::snapshot() const {
  std::vector<std::uint8_t> bytes = snapshot_registry(registry_);
  telemetry_.snapshots.increment();
  telemetry_.snapshot_bytes.add(bytes.size());
  telemetry_.last_snapshot_bytes.set(static_cast<std::int64_t>(bytes.size()));
  return bytes;
}

void Engine::load_snapshot(std::span<const std::uint8_t> bytes) {
  restore_registry(registry_, bytes);
  telemetry_.restores.increment();
}

api::Status Engine::snapshot_instance(std::string_view instance,
                                      std::vector<std::uint8_t>& out) const {
  const std::shared_ptr<Instance> found = registry_.find(instance);
  if (!found) {
    return api::Status::error(api::StatusCode::kNotFound,
                              "no instance named '" + std::string(instance) + "'");
  }
  out = engine::snapshot_instance(*found);
  telemetry_.instance_snapshots.increment();
  telemetry_.snapshot_bytes.add(out.size());
  return api::Status::good();
}

api::Status Engine::adopt_instance(std::span<const std::uint8_t> bytes,
                                   std::string_view expect_name, bool* replaced) {
  // Parse, build, replay, and fast-forward before touching the registry — a
  // malformed blob must never displace the tenant it claimed to replace.
  std::shared_ptr<Instance> instance;
  try {
    instance = restore_instance(bytes);
  } catch (const std::exception& e) {
    return api::Status::error(api::StatusCode::kInvalidArgument, e.what());
  }
  if (!expect_name.empty() && instance->name() != expect_name) {
    return api::Status::error(api::StatusCode::kInvalidArgument,
                              "snapshot holds instance '" + instance->name() +
                                  "', not the requested '" + std::string(expect_name) + "'");
  }
  bool displaced = false;
  // Replace-insert: a create racing the adoption can take the name between
  // the erase and the insert; the migration wins deterministically.
  while (!registry_.insert(instance)) {
    displaced |= registry_.erase(instance->name());
  }
  telemetry_.adoptions.increment();
  if (WalSink* sink = wal_sink()) {
    sink->on_lifecycle();  // the adopted tenant's fleet shape must be durable
  }
  if (replaced != nullptr) {
    *replaced = displaced;
  }
  return api::Status::good();
}

void Engine::refresh_gauges() {
  std::int64_t instances = 0;
  std::int64_t nodes = 0;
  std::int64_t versions = 0;
  for (const auto& instance : registry_.all_sorted()) {
    ++instances;
    nodes += static_cast<std::int64_t>(instance->num_nodes());
    versions += static_cast<std::int64_t>(instance->table_version());
  }
  telemetry_.instances.set(instances);
  telemetry_.nodes.set(nodes);
  telemetry_.table_versions.set(versions);
}

}  // namespace fhg::engine
