#pragma once

/// \file query_batch.hpp
/// The lock-free batched read path of the engine.
///
/// `QuerySnapshot` is an immutable, flat view of the registry's
/// *membership* at one epoch: instances sorted by name, with each static
/// periodic tenant's `PeriodTable` pointer pulled into a parallel array.
/// The engine publishes the current snapshot through an atomic `shared_ptr`
/// and rebuilds it only when the registry's epoch has moved — i.e. when a
/// tenant was created, erased, adopted or restored.  A dynamic tenant's
/// mutation batch moves nothing: the snapshot reads such a tenant's table
/// through the `Instance` it holds, one `period_table_shared()` load per
/// instance run, so every view — including one held across the batch —
/// answers at the tenant's latest published version.  After warm-up every
/// `query_batch` call is: one atomic load, one relaxed epoch check, then
/// pure table arithmetic.  No shard mutex, no name hashing, no per-probe
/// allocation.
///
/// Probes address instances by their snapshot index (resolve names once via
/// `id_of`, amortized over thousands of probes).  The batch kernel
/// counting-sorts probe *indices* by instance id in O(probes + fleet), so
/// all probes against one table run back-to-back over its
/// structure-of-arrays storage — the sorted-access locality that makes
/// batching ~an order of magnitude faster than calling `Engine::is_happy`
/// per probe.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fhg/engine/instance.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::engine {

class InstanceRegistry;

/// One (instance, family, holiday) probe.  `holiday` is the queried holiday
/// `t` for membership batches and the exclusive lower bound `after` for
/// next-gathering batches.
struct Probe {
  std::uint32_t instance = 0;  ///< index into the snapshot (see `QuerySnapshot::id_of`)
  graph::NodeId node = 0;      ///< the family asking
  std::uint64_t holiday = 0;

  friend constexpr bool operator==(const Probe&, const Probe&) noexcept = default;
};

/// Sentinel for "no gathering found within the search limit" in
/// `next_gathering_batch` results (holidays are 1-based, so 0 is free).
inline constexpr std::uint64_t kNoGathering = 0;

class QuerySnapshot {
 public:
  /// Flattens the registry's current membership (sorted by name) and stamps
  /// it with `epoch`.
  [[nodiscard]] static std::shared_ptr<const QuerySnapshot> build(const InstanceRegistry& registry,
                                                                  std::uint64_t epoch);

  /// Registry epoch this snapshot was built at.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Number of instances captured.
  [[nodiscard]] std::size_t size() const noexcept { return instances_.size(); }

  /// Snapshot index of `name`; nullopt if the instance was not present when
  /// the snapshot was taken.  O(1): the build indexes every name in a hash
  /// map, so per-request name resolution (the `fhg::service` front-end
  /// resolves each queued request exactly once) costs one hash, not a
  /// binary search.
  [[nodiscard]] std::optional<std::uint32_t> id_of(std::string_view name) const;

  /// The instance at snapshot index `id` (shared ownership: stays valid even
  /// if the registry has since erased it).
  [[nodiscard]] const std::shared_ptr<Instance>& instance(std::uint32_t id) const {
    return instances_[id];
  }

  /// Name of the instance at snapshot index `id`.
  [[nodiscard]] std::string_view name(std::uint32_t id) const { return names_[id]; }

  /// Node count of instance `id` — the bound the batch kernels validate
  /// probes against.  Static tenants answer the count captured at build
  /// time; dynamic tenants answer their live count (one table load), which
  /// only grows, so a probe that passes here also passes the kernel's own
  /// check against the table it loads later.  Batch-entry hook: callers
  /// that coalesce independent requests (the service layer) pre-validate
  /// each probe against this bound so one malformed request is rejected
  /// alone instead of poisoning the whole batch with an exception.
  [[nodiscard]] graph::NodeId num_nodes(std::uint32_t id) const {
    return dynamic_[id] != 0 ? instances_[id]->num_nodes() : num_nodes_[id];
  }

  /// Answers `out[i] = is_happy(probes[i])` for every probe.  Periodic
  /// instances are answered lock-free from their period tables in sorted
  /// order — a dynamic tenant's run from the one table version it loads,
  /// with every probe of the run checked against that version's node
  /// count; aperiodic instances fall back to the per-instance replay path.
  /// Throws `std::out_of_range` on an invalid instance index or node (the
  /// contents of `out` are then unspecified).
  void query_batch(std::span<const Probe> probes, std::span<std::uint8_t> out) const;

  /// Answers `out[i] = next_gathering(probes[i])` (first happy holiday
  /// strictly after `probes[i].holiday`), or `kNoGathering` when an
  /// aperiodic search gives up.  Same ordering and error contract as
  /// `query_batch`.
  void next_gathering_batch(std::span<const Probe> probes, std::span<std::uint64_t> out) const;

 private:
  QuerySnapshot() = default;

  /// Probe indices grouped by instance id (counting sort, O(probes +
  /// fleet)) — the shared iteration order of both batch kernels.  Also
  /// validates every probe's instance, and the node of every probe on a
  /// static tenant; dynamic tenants' nodes are validated per run against
  /// the table version the kernel holds.
  [[nodiscard]] std::vector<std::uint32_t> sorted_order(std::span<const Probe> probes) const;

  /// The shared body of both batch kernels: walks `probes` one instance run
  /// at a time and calls `on_table(table, probe, k)` for every probe `k` of a
  /// periodic run, or `on_instance(instance, probe, k)` for every probe of an
  /// aperiodic one.
  template <typename OnTable, typename OnInstance>
  void for_each_run(std::span<const Probe> probes, OnTable on_table,
                    OnInstance on_instance) const;

  /// Throws `std::out_of_range` naming instance `id` for node `node`.
  [[noreturn]] void throw_bad_node(std::uint32_t id, graph::NodeId node) const;

  /// Transparent hashing so `id_of` takes a string_view without allocating.
  struct NameHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint64_t epoch_ = 0;
  std::vector<std::shared_ptr<Instance>> instances_;  ///< sorted by name
  std::vector<std::string_view> names_;               ///< views into instances_' names
  /// name → snapshot index; keys view into instances_' names (stable: the
  /// shared_ptrs above keep every instance alive for the snapshot's life).
  std::unordered_map<std::string_view, std::uint32_t, NameHash, std::equal_to<>> ids_;
  /// Static periodic tenants' tables, captured at build time (they never
  /// change); nullptr for aperiodic and dynamic tenants.
  std::vector<std::shared_ptr<const PeriodTable>> tables_;
  /// Non-zero for dynamic tenants: their table is loaded from the instance
  /// per run, never captured, so a mutation batch republishes without the
  /// view being rebuilt and the view never pins an old table version.
  std::vector<std::uint8_t> dynamic_;
  std::vector<graph::NodeId> num_nodes_;  ///< per-instance node counts at build time (static)
};

}  // namespace fhg::engine
