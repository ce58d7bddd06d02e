#pragma once

// Checked-in snapshot bytes and the seeded builders shared by the
// pinned-bytes, engine, WAL and decoder-fuzz suites.
//
// The v1 and v2 snapshot fixtures below are full hex: no writer for those
// formats exists, so these bytes are the only input their readers get.  The
// larger artifacts (the dynamic fleet, the migrate blob, a WAL run's record
// payloads) are rebuilt from seeds and pinned by length and digest in
// `test_pinned_bytes.cpp`.

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/graph/graph.hpp"
#include "fhg/wal/wal.hpp"
#include "fhg/workload/scenario.hpp"

namespace fhg::testing {

using Bytes = std::vector<std::uint8_t>;

/// A snapshot v1 tenancy, written by the v1 writer before it was retired:
/// "deg" (cycle(10), degree-bound, seed 1) and "stat" (gnp(12, 0.2, 29),
/// default spec), both stepped to holiday 4.
inline constexpr std::string_view kSnapshotV1Hex =
    "464847534563232b3b1892323e4294a5294a52d6b9ba30ba2b124a432291a25511373d1a";

/// A snapshot v2 tenancy, written by the v2 writer before it was retired:
/// "dyn" (cycle(8), dynamic prefix code, slack 1) with a three-command and a
/// one-command batch in its log, and "stat" (gnp(12, 0.2, 29), default spec),
/// stepped to holiday 6.
inline constexpr std::string_view kSnapshotV2Hex =
    "46484753556323cb73d8892121ef4a5294a5edb2d4a2afb0858d7374617456264a432291a25511373d1f";

inline std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

inline Bytes from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  Bytes bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

/// 64-bit FNV-1a: the digest the pinned suite compares large artifacts by.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

/// One 1024-node tenant of `power-law:fleet=128,nodes=1024,aperiodic=0`,
/// stepped off holiday 0, as the blob `SnapshotInstance` returns.
inline Bytes migrate_blob() {
  const auto spec = workload::parse_scenario("power-law:fleet=128,nodes=1024,aperiodic=0");
  const workload::ScenarioGenerator generator(*spec);
  workload::TenantSpec tenant = generator.tenant(0);
  engine::Engine engine({.shards = 1, .threads = 1});
  (void)engine.create_instance(tenant.name, std::move(tenant.graph), tenant.spec);
  engine.step_all(37);
  Bytes blob;
  if (!engine.snapshot_instance(tenant.name, blob).ok()) {
    throw std::runtime_error("migrate_blob: snapshot_instance failed");
  }
  return blob;
}

/// The scenario behind `dynamic_fleet()` and `write_wal_run()`.
inline constexpr const char* kDynamicFleetScenario =
    "power-law:fleet=10,nodes=32,aperiodic=0,dynamic=1,mutation=0.5,cmds=6";

/// A fully dynamic fleet with mutation history: scenario tenants after
/// three mutation rounds, plus one tenant whose low bulk threshold puts a
/// bulk segment in its batch records.
inline std::unique_ptr<engine::Engine> dynamic_fleet() {
  const auto spec = workload::parse_scenario(kDynamicFleetScenario);
  const workload::ScenarioGenerator generator(*spec);
  auto eng = std::make_unique<engine::Engine>(engine::EngineOptions{.shards = 2, .threads = 1});
  generator.populate(*eng);
  engine::InstanceSpec bulky;
  bulky.kind = engine::SchedulerKind::kDynamicPrefixCode;
  bulky.bulk_threshold = 4;
  (void)eng->create_instance("bulky", graph::Graph(16), bulky);
  for (std::uint64_t round = 0; round < 3; ++round) {
    eng->step_all(11);
    (void)generator.mutation_round(*eng, round);
    (void)eng->apply_mutations(
        "bulky",
        std::vector{dynamic::insert_edge_command(1, 2 + round), dynamic::add_node_command(),
                    dynamic::insert_edge_command(3, 4 + round),
                    dynamic::insert_edge_command(5, 6 + round),
                    dynamic::erase_edge_command(1, 2 + round)});
    (void)eng->apply_mutations("bulky", std::vector{dynamic::insert_edge_command(0, 9)});
  }
  return eng;
}

/// A mkdtemp-owned scratch directory, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "fhg-test-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string sub(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

inline Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Fills `dir` with a WAL run: `dynamic_fleet()` as the base snapshot, then
/// three more rounds of scenario mutations and four-command batches on
/// "bulky" (bulk path) appended to two shards of segments.
inline void write_wal_run(const std::string& dir) {
  auto eng = dynamic_fleet();
  wal::Manager manager(*eng, {.dir = dir, .shards = 2, .fsync_every = 0});
  (void)manager.recover();
  manager.compact();
  eng->attach_wal(&manager);
  const auto spec = workload::parse_scenario(kDynamicFleetScenario);
  const workload::ScenarioGenerator generator(*spec);
  for (std::uint64_t round = 3; round < 6; ++round) {
    eng->step_all(5);
    (void)generator.mutation_round(*eng, round);
    (void)eng->apply_mutations(
        "bulky", std::vector{dynamic::add_node_command(), dynamic::insert_edge_command(19, round),
                             dynamic::insert_edge_command(7, 8 + round),
                             dynamic::insert_edge_command(9, 12 + round)});
  }
  eng->attach_wal(nullptr);
}

/// Every record payload in `dir`'s segments: segments in file-name order,
/// records in append order.  Skips each 16-byte segment header and each
/// record's 8-byte (length, crc32) frame.
inline std::vector<Bytes> wal_payloads(const std::string& dir) {
  std::vector<std::filesystem::path> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  std::vector<Bytes> payloads;
  for (const auto& path : segments) {
    const Bytes bytes = read_file(path);
    for (std::size_t off = 16; off + 8 <= bytes.size();) {
      const std::size_t length = std::size_t{bytes[off]} << 24 | std::size_t{bytes[off + 1]} << 16 |
                                 std::size_t{bytes[off + 2]} << 8 | std::size_t{bytes[off + 3]};
      payloads.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(off + 8),
                            bytes.begin() + static_cast<std::ptrdiff_t>(off + 8 + length));
      off += 8 + length;
    }
  }
  return payloads;
}

}  // namespace fhg::testing
