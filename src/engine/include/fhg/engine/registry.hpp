#pragma once

/// \file registry.hpp
/// Sharded ownership of named scheduler instances.
///
/// The registry is the engine's tenancy layer: thousands of sessions, each
/// mapping a string id to an `Instance`.  The map is split into `S` shards,
/// each behind its own mutex, so create/find/erase from many threads contend
/// only 1/S of the time — and the `BatchExecutor` steals work shard by shard
/// instead of serializing on one lock.  Instances are handed out as
/// `shared_ptr`, so an instance being erased never invalidates a query in
/// flight.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fhg/engine/instance.hpp"

namespace fhg::engine {

class InstanceRegistry {
 public:
  /// `shards` fixes the shard count for the registry's lifetime (min 1).
  explicit InstanceRegistry(std::size_t shards = 16);

  InstanceRegistry(const InstanceRegistry&) = delete;
  InstanceRegistry& operator=(const InstanceRegistry&) = delete;

  /// Creates and registers an instance.  Throws `std::invalid_argument` if
  /// the name is already taken.
  std::shared_ptr<Instance> create(std::string name, graph::Graph g, InstanceSpec spec);

  /// Registers an already built instance under its own name.  Returns false
  /// (and leaves the registry untouched) when the name is taken — the
  /// non-throwing half of `create`, for callers that report typed statuses.
  bool insert(std::shared_ptr<Instance> instance);

  /// Looks up an instance; nullptr if absent.
  [[nodiscard]] std::shared_ptr<Instance> find(std::string_view name) const;

  /// Removes an instance; returns false if absent.  In-flight queries
  /// holding the shared_ptr finish safely.
  bool erase(std::string_view name);

  /// Removes every instance.
  void clear();

  /// Number of registered instances (sums shard sizes; a racing snapshot).
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Monotonic *membership* counter: bumped by every successful
  /// create/insert/erase/clear, and by nothing else — a dynamic tenant's
  /// mutation batch republishes its own table without moving it.  A
  /// `QuerySnapshot` stamps the epoch it was built at, so readers can detect
  /// a changed tenant set with one relaxed atomic load instead of walking
  /// the shards.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// All instances of one shard (shared ownership, unspecified order).
  [[nodiscard]] std::vector<std::shared_ptr<Instance>> shard_instances(std::size_t shard) const;

  /// Every instance, sorted by name — the deterministic iteration order used
  /// by snapshots.
  [[nodiscard]] std::vector<std::shared_ptr<Instance>> all_sorted() const;

 private:
  /// Transparent hashing so find/erase take string_view without allocating
  /// a temporary std::string on the query hot path.
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<Instance>, StringHash, std::equal_to<>> map;
  };

  [[nodiscard]] Shard& shard_for(std::string_view name) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace fhg::engine
