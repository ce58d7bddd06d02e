#pragma once

/// \file engine.hpp
/// The multi-tenant scheduling engine: the library's serving layer.
///
/// One `Engine` owns a sharded `InstanceRegistry` of named scheduler
/// instances, a thread pool, and a `BatchExecutor` that advances all of them
/// concurrently.  Queries route through each instance's fast path — O(1)
/// period-table arithmetic for perfectly periodic schedules (the paper's
/// punchline made operational: a served schedule never has to be replayed),
/// memoized replay otherwise.  `snapshot`/`load_snapshot` round-trip the
/// whole tenancy through the Elias-coded wire format so engines survive
/// restarts and state can be shipped between processes.
///
/// ```
/// fhg::engine::Engine engine;
/// engine.create_instance("acme", fhg::graph::gnp(500, 0.02, 1),
///                        {.kind = fhg::engine::SchedulerKind::kDegreeBound});
/// engine.step_all(1024);
/// bool happy = engine.is_happy("acme", 7, 123456789);   // O(1), no replay
/// auto bytes = engine.snapshot();                        // compact, canonical
/// ```

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fhg/api/status.hpp"
#include "fhg/engine/executor.hpp"
#include "fhg/engine/instance.hpp"
#include "fhg/engine/query_batch.hpp"
#include "fhg/engine/registry.hpp"
#include "fhg/engine/snapshot.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/engine/wal_sink.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/parallel/thread_pool.hpp"

namespace fhg::engine {

/// Construction-time sizing of an `Engine`.
struct EngineOptions {
  std::size_t shards = 16;   ///< registry shard count
  std::size_t threads = 0;   ///< worker threads (0 = hardware concurrency)
};

/// The multi-tenant serving engine: a sharded registry of named scheduler
/// instances, a worker pool advancing them in parallel, and the lock-free
/// batched query pipeline.  Thread-safe throughout; see the member docs for
/// the exact contract of each path.  The asynchronous front-end
/// (`fhg::service::Service`) layers request queues and coalescing on top of
/// this class without the engine knowing about it.
class Engine {
 public:
  /// Builds an empty engine: `options.shards` registry shards and a pool of
  /// `options.threads` workers (0 means hardware concurrency).
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;             ///< non-copyable (owns threads)
  Engine& operator=(const Engine&) = delete;  ///< non-assignable

  /// The options the engine was built with.
  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }

  /// The underlying sharded instance registry.
  [[nodiscard]] InstanceRegistry& registry() noexcept { return registry_; }
  /// Const view of the underlying sharded instance registry.
  [[nodiscard]] const InstanceRegistry& registry() const noexcept { return registry_; }

  /// Creates a named instance with a typed verdict instead of an exception:
  /// `kInvalidArgument` for a malformed spec, `kAlreadyExists` for a taken
  /// name.  On success `*created` (when non-null) receives the new instance.
  api::Status try_create_instance(std::string name, graph::Graph g, InstanceSpec spec,
                                  std::shared_ptr<Instance>* created = nullptr);

  /// Creates a named instance.  Thin shim over `try_create_instance` kept
  /// for construction-time call sites that treat failure as fatal: throws
  /// `std::invalid_argument` on duplicate names or malformed specs.
  std::shared_ptr<Instance> create_instance(std::string name, graph::Graph g, InstanceSpec spec);

  /// Looks up an instance; nullptr if absent.
  [[nodiscard]] std::shared_ptr<Instance> find(std::string_view name) const {
    return registry_.find(name);
  }

  /// Removes an instance.  `kNotFound` when no such tenant exists; in-flight
  /// queries holding the instance finish safely either way.
  api::Status erase_instance(std::string_view name);

  /// Number of registered instances (a racing snapshot; see
  /// `InstanceRegistry::size`).
  [[nodiscard]] std::size_t num_instances() const { return registry_.size(); }

  /// Advances every instance by `n` holidays on the worker pool.
  StepStats step_all(std::uint64_t n) { return executor_.step_all(n); }

  /// Membership query on one instance.  Throws `std::out_of_range` for an
  /// unknown instance name.
  [[nodiscard]] bool is_happy(std::string_view instance, graph::NodeId v, std::uint64_t t);

  /// First happy holiday of `v` strictly after `after` on one instance.
  [[nodiscard]] std::optional<std::uint64_t> next_gathering(std::string_view instance,
                                                            graph::NodeId v, std::uint64_t after);

  /// Fairness audit of one instance.
  [[nodiscard]] FairnessAudit audit(std::string_view instance);

  /// Applies a batch of live topology mutations to a dynamic tenant
  /// (`SchedulerKind::kDynamicPrefixCode`): edges appear/dissolve and nodes
  /// join *in place*, recoloring per §6 instead of erasing and recreating
  /// the tenant.  The instance republishes its period table at a new
  /// version; the registry epoch does not move and no query view is
  /// rebuilt.  Every `QuerySnapshot` — the current one and any held from
  /// before the batch — reads a dynamic tenant's table through its
  /// `Instance`, so the next batch run against it answers at the new
  /// version.  Throws `std::out_of_range` for an unknown instance,
  /// `std::logic_error` for a non-dynamic one.
  MutationResult apply_mutations(std::string_view instance,
                                 std::span<const dynamic::MutationCommand> commands);

  /// WAL-recovery entry point: re-applies one durable batch to a (typically
  /// just-restored) tenant through the routing path its record names,
  /// keeping the persisted holiday stamps.  Records the same mutation
  /// telemetry as `apply_mutations` (and, like it, leaves the registry
  /// epoch alone), but never calls the attached sink — the batch is already
  /// durable.  Throws `std::out_of_range` for an unknown instance,
  /// `std::logic_error` for a non-dynamic one, `std::runtime_error` on
  /// log/state divergence.
  MutationResult wal_replay_batch(std::string_view instance,
                                  std::span<const dynamic::MutationCommand> commands,
                                  dynamic::BatchRecord record);

  /// Attaches (or, with nullptr, detaches) the durability sink every
  /// subsequent committed mutation batch is handed to before it becomes
  /// visible.  The sink must outlive the engine or a later `attach_wal`
  /// call; attach *after* recovery has replayed the existing log.  Not a
  /// synchronization point — don't race attachment against in-flight
  /// mutation batches.
  void attach_wal(WalSink* sink) noexcept { wal_.store(sink, std::memory_order_release); }

  /// The attached durability sink, or nullptr (the default).
  [[nodiscard]] WalSink* wal_sink() const noexcept {
    return wal_.load(std::memory_order_acquire);
  }

  /// The current lock-free query view: an immutable snapshot of the
  /// fleet's membership, rebuilt only when instances have been created,
  /// erased, adopted or restored since the last call — never by a mutation
  /// batch.  After warm-up this is one atomic load + one epoch check.  The
  /// returned snapshot stays valid however the registry changes afterwards:
  /// its ids keep naming the tenants it captured (resolve probe ids and run
  /// batches against the same snapshot), static tenants answer from the
  /// tables it captured, and dynamic tenants answer at their latest
  /// published table version.
  [[nodiscard]] std::shared_ptr<const QuerySnapshot> query_snapshot();

  /// Batched membership: `result[i] = is_happy` for each (instance, family,
  /// holiday) probe, answered against the *current* snapshot with
  /// sorted-access locality.  Probe instance ids are snapshot indices
  /// (`QuerySnapshot::id_of`) — only valid here while no create/erase has
  /// intervened since they were resolved.  If membership can change
  /// concurrently, hold the snapshot you resolved against and call its
  /// `query_batch` directly; ids minted from a stale snapshot would
  /// otherwise silently rebind to different tenants.
  [[nodiscard]] std::vector<std::uint8_t> query_batch(std::span<const Probe> probes);

  /// Batched next-gathering: `result[i]` is the first happy holiday strictly
  /// after `probes[i].holiday`, or `kNoGathering` when an aperiodic search
  /// gives up.  Same snapshot-validity contract as `query_batch`.
  [[nodiscard]] std::vector<std::uint64_t> next_gathering_batch(std::span<const Probe> probes);

  /// Serializes every instance into the canonical Elias-coded format.
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const;

  /// Replaces all instances with the snapshot's contents.
  void load_snapshot(std::span<const std::uint8_t> bytes);

  /// Serializes one named tenant as a count-1 snapshot stream — the unit the
  /// cluster router ships when migrating an instance between backends.
  /// `kNotFound` when no such tenant exists; on success `out` holds the
  /// blob.
  api::Status snapshot_instance(std::string_view instance, std::vector<std::uint8_t>& out) const;

  /// Adopts the single tenant of a count-1 snapshot stream, replacing any
  /// same-named one — the receiving half of an instance migration.  When
  /// `expect_name` is non-empty the snapshot's tenant must carry that name
  /// (`kInvalidArgument` otherwise); `kInvalidArgument` also covers a
  /// malformed stream.  On success `*replaced` (when non-null) reports
  /// whether an existing tenant was displaced.
  api::Status adopt_instance(std::span<const std::uint8_t> bytes, std::string_view expect_name,
                             bool* replaced = nullptr);

  /// The engine's telemetry registry (`fhg_engine_*` counters, gauges and
  /// timing histograms).  Per-engine rather than process-global, so twin
  /// engines fed identical workloads produce identical counter snapshots —
  /// the property the GetStats transport-equivalence tests rest on.  The
  /// service layer registers its per-shard metrics here too, making this
  /// registry the one scrape domain `GetStats` serves.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// Recomputes the fleet-shape gauges (`fhg_engine_instances`,
  /// `fhg_engine_nodes`, `fhg_engine_table_versions`) from the registry.
  /// Called by stats serving just before a snapshot; cheap (one pass over
  /// the instance list), so scraping pays for freshness, not the hot path.
  void refresh_gauges();

 private:
  [[nodiscard]] std::shared_ptr<Instance> require(std::string_view instance) const;

  /// Cached registry handles: registered once at construction, recorded via
  /// relaxed atomics on the serving paths.  Reference members, so const
  /// paths (e.g. `snapshot()`) can record without the registry being
  /// mutable.
  struct Telemetry {
    explicit Telemetry(obs::Registry& registry);
    obs::Counter& queries;            ///< single-call is_happy / next_gathering
    obs::Counter& batches;            ///< batched query kernel invocations
    obs::Counter& batch_probes;       ///< probes answered by batch kernels
    obs::Counter& mutation_batches;   ///< apply_mutations calls
    obs::Counter& mutation_commands;  ///< commands across those calls
    obs::Counter& recolors;           ///< recolor events mutations forced
    obs::Counter& bulk_batches;       ///< mutation batches on the bulk path
    obs::Counter& inplace_batches;    ///< mutation batches on the per-command path
    obs::Counter& parallel_rounds;    ///< Jones–Plassmann rounds (builds + bulk repairs)
    obs::Counter& coloring_conflicts; ///< JP proposals lost to a higher priority
    obs::Counter& builds_parallel;    ///< instance colorings built by the JP pass
    obs::Counter& builds_serial;      ///< instance colorings built serial-greedy
    obs::Counter& instances_created;  ///< successful creates
    obs::Counter& instances_erased;   ///< successful erases
    obs::Counter& snapshots;          ///< snapshot() calls
    obs::Counter& snapshot_bytes;     ///< bytes across those snapshots
    obs::Counter& restores;           ///< load_snapshot() calls
    obs::Counter& instance_snapshots; ///< snapshot_instance() successes
    obs::Counter& adoptions;          ///< adopt_instance() successes
    obs::HistogramCell& query_batch_us;  ///< batch kernel wall time (µs)
    obs::HistogramCell& mutation_us;     ///< apply_mutations wall time (µs)
    obs::Gauge& instances;               ///< live tenant count (refresh_gauges)
    obs::Gauge& nodes;                   ///< total nodes across tenants
    obs::Gauge& table_versions;          ///< summed period-table versions
    obs::Gauge& last_snapshot_bytes;     ///< size of the latest snapshot
  };

  /// Attached durability sink (nullptr = durability off).  Atomic so the
  /// mutation path pays one acquire load, not a lock.
  std::atomic<WalSink*> wal_{nullptr};
  EngineOptions options_;
  obs::Registry metrics_;  ///< must precede telemetry_ (handles point into it)
  Telemetry telemetry_;
  parallel::ThreadPool pool_;
  InstanceRegistry registry_;
  BatchExecutor executor_;
  /// Published query view (epoch/seqlock style): readers do a lock-free
  /// atomic load; the rebuild after a membership change is serialized by
  /// `view_mutex_` and re-validated against the registry epoch.  Table
  /// changes never reach here (see `QuerySnapshot`).
  std::atomic<std::shared_ptr<const QuerySnapshot>> view_{nullptr};
  std::mutex view_mutex_;
};

}  // namespace fhg::engine
