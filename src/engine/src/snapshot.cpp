#include "fhg/engine/snapshot.hpp"

#include <limits>
#include <stdexcept>
#include <string>

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

// The length-field plausibility guard is shared with the api wire codec:
// see coding::check_count beside BitReader in fhg/coding/bitio.hpp.
using coding::check_count;

void write_graph(BitWriter& w, const graph::Graph& g) {
  w.put_uint(g.num_nodes());
  const std::vector<graph::Edge> edges = g.edges();  // sorted lexicographically
  w.put_uint(edges.size());
  graph::NodeId prev_first = 0;
  for (const graph::Edge& e : edges) {
    w.put_uint(e.first - prev_first);       // non-negative: edges are sorted
    w.put_uint(e.second - e.first - 1);     // second > first always
    prev_first = e.first;
  }
}

graph::Graph read_graph(BitReader& r) {
  const std::uint64_t n64 = r.get_uint();
  if (n64 > std::numeric_limits<graph::NodeId>::max()) {
    throw std::runtime_error("snapshot: node count " + std::to_string(n64) +
                             " exceeds NodeId range");
  }
  const auto n = static_cast<graph::NodeId>(n64);
  const std::uint64_t m = r.get_uint();
  check_count(r, m, 2, "edge");  // each edge costs >= 2 bits (two codewords)
  std::vector<graph::Edge> edges;
  edges.reserve(m);
  std::uint64_t prev_first = 0;
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t first = prev_first + r.get_uint();
    const std::uint64_t second = first + 1 + r.get_uint();
    if (second >= n64) {
      throw std::runtime_error("snapshot: edge endpoint " + std::to_string(second) +
                               " out of range for " + std::to_string(n64) + " nodes");
    }
    edges.push_back({static_cast<graph::NodeId>(first), static_cast<graph::NodeId>(second)});
    prev_first = first;
  }
  return graph::Graph::from_edges(n, edges);
}

void write_spec(BitWriter& w, const InstanceSpec& spec, std::uint64_t version) {
  w.put_uint(static_cast<std::uint64_t>(spec.kind));
  w.put_uint(static_cast<std::uint64_t>(spec.code));
  w.put_uint(spec.seed);
  if (version >= 2) {
    w.put_uint(spec.slack);
  }
  if (version >= 3) {
    w.put_uint(spec.parallel_crossover);
    w.put_uint(spec.bulk_threshold);
  }
  w.put_uint(spec.periods.size());
  for (const std::uint64_t p : spec.periods) {
    w.put_uint(p);
  }
}

InstanceSpec read_spec(BitReader& r, std::uint64_t version) {
  InstanceSpec spec;
  const std::uint64_t kind = r.get_uint();
  if (kind > static_cast<std::uint64_t>(SchedulerKind::kDynamicPrefixCode)) {
    throw std::runtime_error("snapshot: unknown scheduler kind " + std::to_string(kind));
  }
  spec.kind = static_cast<SchedulerKind>(kind);
  const std::uint64_t code = r.get_uint();
  if (code > static_cast<std::uint64_t>(coding::CodeFamily::kEliasOmega)) {
    throw std::runtime_error("snapshot: unknown code family " + std::to_string(code));
  }
  spec.code = static_cast<coding::CodeFamily>(code);
  spec.seed = r.get_uint();
  if (version >= 2) {
    const std::uint64_t slack = r.get_uint();
    if (slack > std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("snapshot: slack " + std::to_string(slack) + " out of range");
    }
    spec.slack = static_cast<std::uint32_t>(slack);
  }
  if (version >= 3) {
    const std::uint64_t crossover = r.get_uint();
    const std::uint64_t bulk = r.get_uint();
    if (crossover > std::numeric_limits<std::uint32_t>::max() ||
        bulk > std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("snapshot: coloring threshold out of range");
    }
    spec.parallel_crossover = static_cast<std::uint32_t>(crossover);
    spec.bulk_threshold = static_cast<std::uint32_t>(bulk);
  } else {
    // Pre-v3 tenants were built serial-greedy and replayed per command;
    // zero both knobs so the rebuild takes exactly those paths.
    spec.parallel_crossover = 0;
    spec.bulk_threshold = 0;
  }
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 1, "period");
  spec.periods.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    spec.periods[i] = r.get_uint();
  }
  return spec;
}

/// Mutation log: count, then per command (op, holiday delta, endpoints).
/// Stamps are non-decreasing along a log, so delta coding keeps them small.
void write_log(BitWriter& w, std::span<const dynamic::MutationCommand> log) {
  w.put_uint(log.size());
  std::uint64_t prev_holiday = 0;
  for (const dynamic::MutationCommand& cmd : log) {
    w.put_uint(static_cast<std::uint64_t>(cmd.op));
    w.put_uint(cmd.holiday - prev_holiday);
    w.put_uint(cmd.u);
    w.put_uint(cmd.v);
    prev_holiday = cmd.holiday;
  }
}

std::vector<dynamic::MutationCommand> read_log(BitReader& r) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 4, "mutation");  // four codewords of >= 1 bit each
  std::vector<dynamic::MutationCommand> log;
  log.reserve(count);
  std::uint64_t prev_holiday = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    dynamic::MutationCommand cmd;
    const std::uint64_t op = r.get_uint();
    if (op > static_cast<std::uint64_t>(dynamic::MutationOp::kAddNode)) {
      throw std::runtime_error("snapshot: unknown mutation op " + std::to_string(op));
    }
    cmd.op = static_cast<dynamic::MutationOp>(op);
    cmd.holiday = prev_holiday + r.get_uint();
    const std::uint64_t u = r.get_uint();
    const std::uint64_t v = r.get_uint();
    if (u > std::numeric_limits<graph::NodeId>::max() ||
        v > std::numeric_limits<graph::NodeId>::max()) {
      throw std::runtime_error("snapshot: mutation endpoint out of NodeId range");
    }
    cmd.u = static_cast<graph::NodeId>(u);
    cmd.v = static_cast<graph::NodeId>(v);
    prev_holiday = cmd.holiday;
    log.push_back(cmd);
  }
  return log;
}

/// Batch segmentation (v3): count, then per record (applied size, bulk bit).
/// Replay routes each log segment through the recorded path, so the restored
/// coloring matches even when thresholds changed since the snapshot.
void write_batches(BitWriter& w, std::span<const dynamic::BatchRecord> batches) {
  w.put_uint(batches.size());
  for (const dynamic::BatchRecord& record : batches) {
    w.put_uint(record.size);
    w.put_bits(record.bulk ? 1 : 0, 1);
  }
}

std::vector<dynamic::BatchRecord> read_batches(BitReader& r, std::size_t log_size) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 2, "batch record");  // one codeword + one flag bit
  std::vector<dynamic::BatchRecord> batches;
  batches.reserve(count);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    dynamic::BatchRecord record;
    const std::uint64_t size = r.get_uint();
    if (size == 0 || size > std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("snapshot: batch record size " + std::to_string(size) +
                               " out of range");
    }
    record.size = static_cast<std::uint32_t>(size);
    record.bulk = r.get_bits(1) != 0;
    total += record.size;
    batches.push_back(record);
  }
  if (total != log_size) {
    throw std::runtime_error("snapshot: batch records cover " + std::to_string(total) +
                             " commands, log has " + std::to_string(log_size));
  }
  return batches;
}

void write_name(BitWriter& w, const std::string& name) {
  w.put_uint(name.size());
  for (const char c : name) {
    w.put_bits(static_cast<std::uint8_t>(c), 8);
  }
}

std::string read_name(BitReader& r) {
  const std::uint64_t length = r.get_uint();
  check_count(r, length, 8, "name byte");
  std::string name(length, '\0');
  for (std::uint64_t i = 0; i < length; ++i) {
    name[i] = static_cast<char>(r.get_bits(8));
  }
  return name;
}

/// One instance's record, serialized exactly as `snapshot_registry` writes
/// it — the shared body of the tenancy-wide and single-instance writers, so
/// a single-instance blob is a count-1 tenancy snapshot byte for byte.
void write_instance(BitWriter& w, const Instance& instance, std::uint64_t version) {
  if (version < 2 && instance.dynamic()) {
    throw std::invalid_argument("snapshot_registry: instance '" + instance.name() +
                                "' is dynamic; its mutation log needs format v2");
  }
  // One locked read for (holiday, log, batches): a tenant stepping and
  // mutating concurrently can never tear the triple a restore replays from.
  const Instance::PersistedState state = instance.persisted_state();
  if (version < 3) {
    // Downgrade guard: pre-v3 formats cannot say "this coloring came from
    // the parallel builder" or "this log segment was a bulk batch", and a
    // restore that re-derives either choice lands on a different (if
    // equally proper) coloring.  Refuse the lossy write, like v1 does for
    // mutation logs.
    if (instance.build_stats().parallel) {
      throw std::invalid_argument("snapshot_registry: instance '" + instance.name() +
                                  "' built its coloring with the parallel pass; format v" +
                                  std::to_string(version) + " cannot record that");
    }
    for (const dynamic::BatchRecord& record : state.batches) {
      if (record.bulk) {
        throw std::invalid_argument("snapshot_registry: instance '" + instance.name() +
                                    "' applied a bulk mutation batch; its segmentation needs "
                                    "format v3");
      }
    }
  }
  write_name(w, instance.name());
  write_spec(w, instance.spec(), version);
  write_graph(w, instance.graph());
  w.put_uint(state.holiday);
  if (version >= 2) {
    write_log(w, state.log);
  }
  if (version >= 3) {
    write_batches(w, state.batches);
  }
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

Parsed read_instance(BitReader& r, std::uint64_t version) {
  Parsed p;
  p.name = read_name(r);
  p.spec = read_spec(r, version);
  p.graph = read_graph(r);
  p.holiday = r.get_uint();
  if (version >= 2) {
    p.log = read_log(r);
    if (!p.log.empty() && p.spec.kind != SchedulerKind::kDynamicPrefixCode) {
      throw std::runtime_error("snapshot: mutation log on non-dynamic instance '" + p.name +
                               "'");
    }
  }
  if (version >= 3) {
    p.batches = read_batches(r, p.log.size());
  }
  return p;
}

/// Builds a live instance from a parsed record: construct the recipe state,
/// replay the mutation log through the recorded batch paths, fast-forward.
std::shared_ptr<Instance> build_instance(Parsed&& p) {
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
}

/// Shared header parse: magic, version.
std::uint64_t read_header(BitReader& r) {
  if (r.get_bits(32) != kMagic) {
    throw std::runtime_error("snapshot: bad magic");
  }
  const std::uint64_t version = r.get_uint();
  if (version < kSnapshotVersionV1 || version > kSnapshotVersionLatest) {
    throw std::runtime_error("snapshot: unsupported version " + std::to_string(version));
  }
  return version;
}

}  // namespace

std::vector<std::uint8_t> snapshot_registry(const InstanceRegistry& registry,
                                            std::uint64_t version) {
  if (version < kSnapshotVersionV1 || version > kSnapshotVersionLatest) {
    throw std::invalid_argument("snapshot_registry: unknown version " + std::to_string(version));
  }
  BitWriter w;
  w.put_bits(kMagic, 32);
  w.put_uint(version);
  const auto instances = registry.all_sorted();
  w.put_uint(instances.size());
  for (const auto& instance : instances) {
    write_instance(w, *instance, version);
  }
  return w.finish();
}

std::vector<std::uint8_t> snapshot_instance(const Instance& instance, std::uint64_t version) {
  if (version < kSnapshotVersionV1 || version > kSnapshotVersionLatest) {
    throw std::invalid_argument("snapshot_instance: unknown version " +
                                std::to_string(version));
  }
  BitWriter w;
  w.put_bits(kMagic, 32);
  w.put_uint(version);
  w.put_uint(1);
  write_instance(w, instance, version);
  return w.finish();
}

std::shared_ptr<Instance> restore_instance(std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  const std::uint64_t version = read_header(r);
  const std::uint64_t count = r.get_uint();
  if (count != 1) {
    throw std::runtime_error("snapshot: expected a single-instance snapshot, found " +
                             std::to_string(count) + " instances");
  }
  return build_instance(read_instance(r, version));
}

void restore_registry(InstanceRegistry& registry, std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  const std::uint64_t version = read_header(r);
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 8, "instance");

  // Parse the whole stream before touching the registry, so a malformed
  // snapshot cannot leave a half-restored tenancy (or destroy the old one).
  std::vector<Parsed> parsed;
  parsed.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Parsed p = read_instance(r, version);
    // The canonical encoding is strictly name-sorted; enforcing it here
    // also rules out duplicate names before the destructive phase below.
    if (!parsed.empty() && parsed.back().name >= p.name) {
      throw std::runtime_error("snapshot: instances out of canonical name order at '" + p.name +
                               "'");
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
