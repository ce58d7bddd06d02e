#include "fhg/engine/snapshot.hpp"

#include <stdexcept>
#include <string>

#include "fhg/engine/records.hpp"

namespace fhg::engine {

namespace detail {

/// The one non-Engine door into `Instance::replay_mutation_log` (see the
/// friend declaration in instance.hpp): both restore entry points rebuild
/// tenants through this shim.
struct SnapshotReplay {
  static void replay(Instance& instance, std::span<const dynamic::MutationCommand> log,
                     std::span<const dynamic::BatchRecord> records) {
    instance.replay_mutation_log(log, records);
  }
};

}  // namespace detail

namespace {

constexpr std::uint32_t kMagic = 0x46484753;  // "FHGS"

[[noreturn]] void fail(const std::string& what) {
  throw coding::DecodeError("snapshot: " + what);
}

void write_header(coding::BitWriter& w, std::uint64_t count) {
  w.put_bits(kMagic, 32);
  w.put_uint(kSnapshotVersionLatest);
  w.put_uint(count);
}

/// One instance's record — the shared body of the tenancy-wide and
/// single-instance writers, so a single-instance blob is a count-1 tenancy
/// snapshot byte for byte.
void write_instance(coding::BitWriter& w, const Instance& instance) {
  // One locked read for (holiday, log, batches): a tenant stepping and
  // mutating concurrently can never tear the triple a restore replays from.
  const Instance::PersistedState state = instance.persisted_state();
  records::write_serial_name(w, instance.name());
  records::write_spec(w, instance.spec(), kSnapshotVersionLatest);
  records::write_graph(w, instance.graph());
  w.put_uint(state.holiday);
  records::write_commands(w, state.log, records::Stamps::kDelta);
  records::write_batch_records(w, state.batches);
}

/// One instance's parsed-but-not-built record (see `restore_registry`'s
/// parse-everything-first discipline).
struct Parsed {
  std::string name;
  InstanceSpec spec;
  graph::Graph graph;
  std::uint64_t holiday = 0;
  std::vector<dynamic::MutationCommand> log;
  std::vector<dynamic::BatchRecord> batches;
};

Parsed read_instance(coding::BitReader& r, std::uint64_t version) {
  Parsed p;
  p.name = records::read_serial_name(r);
  p.spec = records::read_spec(r, version);
  if (version < 3) {
    // Pre-v3 tenants were built serial-greedy and replayed per command;
    // zero both knobs so the rebuild takes exactly those paths.
    p.spec.parallel_crossover = 0;
    p.spec.bulk_threshold = 0;
  }
  p.graph = records::read_graph(r);
  p.holiday = r.get_uint();
  if (version >= 2) {
    p.log = records::read_commands(r, records::Stamps::kDelta);
    if (!p.log.empty() && p.spec.kind != SchedulerKind::kDynamicPrefixCode) {
      fail("mutation log on non-dynamic instance '" + p.name + "'");
    }
  }
  if (version >= 3) {
    p.batches = records::read_batch_records(r, p.log.size());
  }
  return p;
}

/// Builds a live instance from a parsed record: construct the recipe state,
/// replay the mutation log through the recorded batch paths, fast-forward.
/// A record that parses can still describe a tenant the schedulers refuse
/// (a spec the factory rejects, a log command past the node count); that is
/// a decode failure too, not the builders' `std::invalid_argument`.
std::shared_ptr<Instance> build_instance(Parsed&& p) {
  try {
    auto instance =
        std::make_shared<Instance>(std::move(p.name), std::move(p.graph), std::move(p.spec));
    if (!p.log.empty()) {
      // Replay the mutation log over the freshly built recipe state: every
      // recolor decision is deterministic, so this lands on the identical
      // coloring and slots the snapshotted tenant had.  The batch records
      // (v3) route each segment through the path the live tenant took;
      // pre-v3 logs replay per command, which is how they were applied.
      detail::SnapshotReplay::replay(*instance, p.log, p.batches);
    }
    instance->fast_forward(p.holiday);
    return instance;
  } catch (const std::invalid_argument& e) {
    fail(std::string("instance does not build: ") + e.what());
  }
}

/// Shared header parse: magic, version.
std::uint64_t read_header(coding::BitReader& r) {
  if (r.get_bits(32) != kMagic) {
    fail("bad magic");
  }
  const std::uint64_t version = r.get_uint();
  if (version < kSnapshotVersionV1 || version > kSnapshotVersionLatest) {
    fail("unsupported version " + std::to_string(version));
  }
  return version;
}

}  // namespace

std::vector<std::uint8_t> snapshot_registry(const InstanceRegistry& registry) {
  const auto instances = registry.all_sorted();
  coding::BitWriter w;
  write_header(w, instances.size());
  for (const auto& instance : instances) {
    write_instance(w, *instance);
  }
  return w.finish();
}

std::vector<std::uint8_t> snapshot_instance(const Instance& instance) {
  coding::BitWriter w;
  write_header(w, 1);
  write_instance(w, instance);
  return w.finish();
}

std::shared_ptr<Instance> restore_instance(std::span<const std::uint8_t> bytes) {
  coding::BitReader r(bytes);
  const std::uint64_t version = read_header(r);
  const std::uint64_t count = r.get_uint();
  if (count != 1) {
    fail("expected a single-instance snapshot, found " + std::to_string(count) + " instances");
  }
  return build_instance(read_instance(r, version));
}

void restore_registry(InstanceRegistry& registry, std::span<const std::uint8_t> bytes) {
  coding::BitReader r(bytes);
  const std::uint64_t version = read_header(r);
  const std::uint64_t count = r.get_uint();
  coding::check_count(r, count, 8, "instance");

  // Parse the whole stream before touching the registry, so a malformed
  // snapshot cannot leave a half-restored tenancy (or destroy the old one).
  std::vector<Parsed> parsed;
  parsed.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Parsed p = read_instance(r, version);
    // The canonical encoding is strictly name-sorted; enforcing it here
    // also rules out duplicate names before the destructive phase below.
    if (!parsed.empty() && parsed.back().name >= p.name) {
      fail("instances out of canonical name order at '" + p.name + "'");
    }
    parsed.push_back(std::move(p));
  }

  // Build, replay, and fast-forward every instance *before* touching the
  // registry: scheduler construction and log replay are the paths that can
  // still throw on a pathological snapshot, so they must run while the old
  // tenancy is intact.  After this loop the destructive phase is
  // exception-free and the registry can never be left half-restored.
  std::vector<std::shared_ptr<Instance>> instances;
  instances.reserve(parsed.size());
  for (auto& p : parsed) {
    instances.push_back(build_instance(std::move(p)));
  }

  registry.clear();
  for (auto& instance : instances) {
    // A create racing the restore on another shard can take a snapshotted
    // name between the clear and this insert; the restore wins
    // deterministically (last writer is the snapshot's tenant).
    while (!registry.insert(instance)) {
      (void)registry.erase(instance->name());
    }
  }
}

}  // namespace fhg::engine
