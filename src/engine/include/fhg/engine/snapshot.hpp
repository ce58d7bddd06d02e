#pragma once

/// \file snapshot.hpp
/// Compact engine snapshots built on the `fhg::coding` Elias layer.
///
/// A snapshot stores, per instance, the *recipe* rather than raw scheduler
/// state: name, `InstanceSpec`, the conflict graph, the holiday counter,
/// the mutation log and its batch segmentation.  Restore rebuilds each
/// scheduler deterministically, replays the log through the recorded batch
/// paths (bulk Jones–Plassmann or per command), and fast-forwards: O(1)
/// counter skip for periodic instances, exact replay (including gap
/// statistics and the replay index) for aperiodic ones.  The field layouts
/// live in `records.hpp`; this file adds the header (magic, version,
/// instance count) and the instance record that composes them.
///
/// Writers emit v3 only.  v1 (recipe and holiday) and v2 (adds the slack
/// spec field and the mutation log) are read-only: their readers default
/// the parallel-coloring knobs to 0, so those tenants rebuild serial-greedy
/// and replay per command, exactly how they were built.
///
/// The encoding is canonical — instances sorted by name, edges sorted
/// lexicographically, logs in apply order — and the readers accept only
/// that order, so snapshot → restore → snapshot is byte-identical,
/// including mid-log.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fhg/engine/registry.hpp"

namespace fhg::engine {

/// Wire-format versions.  v1: recipe + holiday only.  v2: adds the
/// per-instance mutation log and the `slack` spec field.  v3 (current): adds
/// the parallel-coloring spec fields and the log's batch segmentation.
inline constexpr std::uint64_t kSnapshotVersionV1 = 1;
inline constexpr std::uint64_t kSnapshotVersionV2 = 2;
inline constexpr std::uint64_t kSnapshotVersionLatest = 3;

/// Serializes every instance of `registry` (names, specs, graphs, holiday
/// counters, mutation logs and batch records) into a canonical v3 byte
/// string.
[[nodiscard]] std::vector<std::uint8_t> snapshot_registry(const InstanceRegistry& registry);

/// Clears `registry` and repopulates it from `bytes`, fast-forwarding each
/// instance to its snapshotted holiday.  Throws `coding::DecodeError` when
/// `bytes` does not parse; on any failure `registry` is left untouched.
void restore_registry(InstanceRegistry& registry, std::span<const std::uint8_t> bytes);

/// Serializes a single instance as a count-1 snapshot stream — the migration
/// unit the cluster router ships between backends.  The bytes are a regular
/// snapshot (same magic/version/count header), so `restore_registry` loads
/// them too.
[[nodiscard]] std::vector<std::uint8_t> snapshot_instance(const Instance& instance);

/// Rebuilds the one instance of a count-1 snapshot stream: parse, construct
/// the recipe state, replay the mutation log, fast-forward.  Throws
/// `coding::DecodeError` when `bytes` does not parse or holds more than one
/// instance.
[[nodiscard]] std::shared_ptr<Instance> restore_instance(std::span<const std::uint8_t> bytes);

}  // namespace fhg::engine
