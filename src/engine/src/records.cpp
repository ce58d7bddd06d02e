#include "fhg/engine/records.hpp"

#include <limits>

namespace fhg::engine::records {

namespace {

using coding::BitReader;
using coding::BitWriter;
using coding::check_count;

[[noreturn]] void fail(const std::string& what) { throw coding::DecodeError("record: " + what); }

std::uint32_t read_u32(BitReader& r, const char* what) {
  const std::uint64_t value = r.get_uint();
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    fail(std::string(what) + " " + std::to_string(value) + " out of range");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::uint64_t read_enum(BitReader& r, std::uint64_t bound, const char* what) {
  const std::uint64_t value = r.get_uint();
  if (value >= bound) {
    fail(std::string("unknown ") + what + " " + std::to_string(value));
  }
  return value;
}

void fail_node_range(std::uint64_t value) {
  fail("node id " + std::to_string(value) + " out of NodeId range");
}

void write_serial_name(BitWriter& w, std::string_view name) {
  w.put_uint(name.size());
  for (const char c : name) {
    w.put_bits(static_cast<std::uint8_t>(c), 8);
  }
}

std::string read_serial_name(BitReader& r) {
  const std::uint64_t length = r.get_uint();
  check_count(r, length, 8, "name byte");
  std::string name(static_cast<std::size_t>(length), '\0');
  for (char& c : name) {
    c = static_cast<char>(r.get_bits(8));
  }
  return name;
}

void write_spec(BitWriter& w, const InstanceSpec& spec, std::uint64_t layout) {
  w.put_uint(static_cast<std::uint64_t>(spec.kind));
  w.put_uint(static_cast<std::uint64_t>(spec.code));
  w.put_uint(spec.seed);
  if (layout >= 2) {
    w.put_uint(spec.slack);
  }
  if (layout >= 3) {
    w.put_uint(spec.parallel_crossover);
    w.put_uint(spec.bulk_threshold);
  }
  w.put_uint(spec.periods.size());
  for (const std::uint64_t p : spec.periods) {
    w.put_uint(p);
  }
}

InstanceSpec read_spec(BitReader& r, std::uint64_t layout) {
  InstanceSpec spec;
  spec.kind = static_cast<SchedulerKind>(read_enum(
      r, static_cast<std::uint64_t>(SchedulerKind::kDynamicPrefixCode) + 1, "scheduler kind"));
  spec.code = static_cast<coding::CodeFamily>(read_enum(
      r, static_cast<std::uint64_t>(coding::CodeFamily::kEliasOmega) + 1, "code family"));
  spec.seed = r.get_uint();
  if (layout >= 2) {
    spec.slack = read_u32(r, "slack");
  }
  if (layout >= 3) {
    spec.parallel_crossover = read_u32(r, "parallel crossover");
    spec.bulk_threshold = read_u32(r, "bulk threshold");
  }
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 1, "period");
  spec.periods.resize(static_cast<std::size_t>(count));
  for (std::uint64_t& p : spec.periods) {
    p = r.get_uint();
  }
  return spec;
}

void write_commands(BitWriter& w, std::span<const dynamic::MutationCommand> commands,
                    Stamps stamps) {
  w.put_uint(commands.size());
  std::uint64_t prev = 0;
  for (const dynamic::MutationCommand& cmd : commands) {
    w.put_uint(static_cast<std::uint64_t>(cmd.op));
    w.put_uint(cmd.holiday - prev);
    w.put_uint(cmd.u);
    w.put_uint(cmd.v);
    if (stamps == Stamps::kDelta) {
      prev = cmd.holiday;
    }
  }
}

std::vector<dynamic::MutationCommand> read_commands(BitReader& r, Stamps stamps) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 4, "mutation command");  // four codewords of >= 1 bit
  std::vector<dynamic::MutationCommand> commands(static_cast<std::size_t>(count));
  std::uint64_t prev = 0;
  for (dynamic::MutationCommand& cmd : commands) {
    cmd.op = static_cast<dynamic::MutationOp>(read_enum(
        r, static_cast<std::uint64_t>(dynamic::MutationOp::kAddNode) + 1, "mutation op"));
    cmd.holiday = prev + r.get_uint();
    cmd.u = read_node(r);
    cmd.v = read_node(r);
    if (stamps == Stamps::kDelta) {
      prev = cmd.holiday;
    }
  }
  return commands;
}

void write_edges(BitWriter& w, std::span<const graph::Edge> edges) {
  w.put_uint(edges.size());
  for (const graph::Edge& e : edges) {
    w.put_uint(e.first);
    w.put_uint(e.second);
  }
}

std::vector<graph::Edge> read_edges(BitReader& r) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 2, "edge");  // two codewords of >= 1 bit each
  std::vector<graph::Edge> edges(static_cast<std::size_t>(count));
  for (graph::Edge& e : edges) {
    e.first = read_node(r);
    e.second = read_node(r);
  }
  return edges;
}

void write_graph(BitWriter& w, const graph::Graph& g) {
  w.put_uint(g.num_nodes());
  const std::vector<graph::Edge> edges = g.edges();  // sorted lexicographically
  w.put_uint(edges.size());
  graph::NodeId prev_first = 0;
  for (const graph::Edge& e : edges) {
    w.put_uint(e.first - prev_first);    // non-negative: edges are sorted
    w.put_uint(e.second - e.first - 1);  // second > first always
    prev_first = e.first;
  }
}

graph::Graph read_graph(BitReader& r) {
  const graph::NodeId n = read_node(r);
  const std::uint64_t m = r.get_uint();
  check_count(r, m, 2, "edge");  // each edge costs >= 2 bits (two codewords)
  std::vector<graph::Edge> edges(static_cast<std::size_t>(m));
  graph::Edge prev{0, 0};
  for (graph::Edge& e : edges) {
    // Bound each delta before adding it, so no sum can wrap or narrow into
    // range: first < n, then first < second < n.
    const std::uint64_t first_delta = r.get_uint();
    if (first_delta >= std::uint64_t{n} - prev.first) {
      fail("edge endpoint past " + std::to_string(n) + " nodes");
    }
    e.first = prev.first + static_cast<graph::NodeId>(first_delta);
    const std::uint64_t second_delta = r.get_uint();
    if (second_delta >= std::uint64_t{n} - e.first - 1) {
      fail("edge endpoint past " + std::to_string(n) + " nodes");
    }
    e.second = e.first + 1 + static_cast<graph::NodeId>(second_delta);
    if (first_delta == 0 && e.second <= prev.second) {
      fail("edges out of canonical order");
    }
    prev = e;
  }
  return graph::Graph::from_edges(n, edges);
}

void write_batch_records(BitWriter& w, std::span<const dynamic::BatchRecord> records) {
  w.put_uint(records.size());
  for (const dynamic::BatchRecord& record : records) {
    w.put_uint(record.size);
    w.put_bit(record.bulk);
  }
}

std::vector<dynamic::BatchRecord> read_batch_records(BitReader& r, std::size_t log_size) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 2, "batch record");  // one codeword + one flag bit
  std::vector<dynamic::BatchRecord> records(static_cast<std::size_t>(count));
  std::uint64_t total = 0;
  for (dynamic::BatchRecord& record : records) {
    record.size = read_u32(r, "batch record size");
    if (record.size == 0) {
      fail("empty batch record");
    }
    record.bulk = r.get_bit();
    total += record.size;
  }
  if (total != log_size) {
    fail("batch records cover " + std::to_string(total) + " commands, log has " +
         std::to_string(log_size));
  }
  return records;
}

std::vector<std::uint8_t> encode_batch(const WalCommit& commit) {
  BitWriter w;
  write_name(w, commit.instance);
  w.put_uint(commit.batch_index);
  w.put_uint(commit.holiday);
  w.put_bit(commit.record.bulk);
  write_commands(w, commit.commands, Stamps::kDelta);
  return w.finish();
}

CommittedBatch decode_batch(std::span<const std::uint8_t> payload) {
  BitReader r(payload);
  CommittedBatch batch;
  batch.instance = read_name(r, "instance name byte");
  batch.batch_index = r.get_uint();
  batch.holiday = r.get_uint();
  batch.record.bulk = r.get_bit();
  batch.commands = read_commands(r, Stamps::kDelta);
  if (batch.commands.size() > std::numeric_limits<std::uint32_t>::max()) {
    fail("batch of " + std::to_string(batch.commands.size()) + " commands");
  }
  batch.record.size = static_cast<std::uint32_t>(batch.commands.size());
  return batch;
}

}  // namespace fhg::engine::records
