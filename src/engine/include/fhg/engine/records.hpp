#pragma once

/// \file records.hpp
/// The one owner of every record's byte layout.
///
/// Engine snapshots (`snapshot.hpp`), WAL record payloads (`fhg::wal`) and
/// api wire frames (`fhg::api`) are built from the same records; each has
/// exactly one encoder and one decoder here, and the format layers add only
/// their own framing (magic, versions, tags, CRCs).  Every integer is a
/// `coding::BitWriter::put_uint` codeword (Elias delta of `value + 1`):
///
/// | record          | layout                                                   |
/// |-----------------|----------------------------------------------------------|
/// | byte field      | length, zero pad to a byte boundary, raw bytes (names in api and WAL, api blobs) |
/// | serial name     | length, then 8 bits per byte, unaligned (snapshots)      |
/// | spec            | kind, code, seed, [slack: v2+], [crossover, bulk: v3+], period count, periods |
/// | command run     | count, then op, stamp, u, v per command                  |
/// | edge list       | count, then (first, second) per edge (api)               |
/// | graph           | n, m, then (first − previous first, second − first − 1) per edge, sorted (snapshots) |
/// | batch records   | count, then (size, bulk bit) per record                  |
/// | committed batch | name, batch index, holiday, bulk bit, delta command run (the WAL payload) |
///
/// A command run writes its stamps absolute (api) or as deltas from the
/// previous stamp, the first from 0 (snapshot log, WAL).  The api's spec is
/// the v2 layout.
///
/// Decoders are strict: truncation, implausible counts, unknown enum values,
/// ids past `graph::NodeId` and non-canonical graphs all throw
/// `coding::DecodeError`, and nothing is allocated from an unchecked count.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fhg/coding/bitio.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/engine/wal_sink.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::engine::records {

/// How a command run writes its holiday stamps.
enum class Stamps : std::uint8_t {
  kAbsolute,  ///< each stamp as is (api)
  kDelta,     ///< each stamp minus the previous one, the first minus 0
};

/// A decoded WAL payload: one committed batch, owning its name and commands.
struct CommittedBatch {
  std::string instance;
  std::uint64_t batch_index = 0;
  std::uint64_t holiday = 0;
  dynamic::BatchRecord record;  ///< `size` is the decoded command count
  std::vector<dynamic::MutationCommand> commands;

  friend bool operator==(const CommittedBatch&, const CommittedBatch&) = default;
};

/// Reads an enum codeword, throwing when it is `bound` or above.
[[nodiscard]] std::uint64_t read_enum(coding::BitReader& r, std::uint64_t bound,
                                      const char* what);

/// Throws the out-of-range `DecodeError` for a decoded node id `value`.
[[noreturn]] void fail_node_range(std::uint64_t value);

// The field codecs on every request's path (node ids, names, blobs) are
// inline so the api codec in another library compiles them in place.

/// Reads a node id, throwing when it does not fit `graph::NodeId`.
[[nodiscard]] inline graph::NodeId read_node(coding::BitReader& r) {
  const std::uint64_t value = r.get_uint();
  if (value > std::numeric_limits<graph::NodeId>::max()) {
    fail_node_range(value);
  }
  return static_cast<graph::NodeId>(value);
}

/// Byte-aligned fields move at memcpy speed for at most seven padding bits.
inline void write_bytes(coding::BitWriter& w, std::span<const std::uint8_t> bytes) {
  w.put_uint(bytes.size());
  w.put_bytes(bytes);
}

/// Reads a byte field into a `std::string` or a `std::vector<std::uint8_t>`;
/// `what` names one byte of the field in the implausible-length error.
template <class Bytes>
[[nodiscard]] Bytes read_bytes(coding::BitReader& r, const char* what) {
  const std::uint64_t length = r.get_uint();
  coding::check_count(r, length, 8, what);
  Bytes bytes;
  bytes.resize(static_cast<std::size_t>(length));
  r.get_bytes({reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size()});
  return bytes;
}

inline void write_name(coding::BitWriter& w, std::string_view name) {
  write_bytes(w, {reinterpret_cast<const std::uint8_t*>(name.data()), name.size()});
}

[[nodiscard]] inline std::string read_name(coding::BitReader& r, const char* what) {
  return read_bytes<std::string>(r, what);
}
void write_serial_name(coding::BitWriter& w, std::string_view name);
[[nodiscard]] std::string read_serial_name(coding::BitReader& r);

/// `layout` is the snapshot version (1–3) whose spec fields to write.
void write_spec(coding::BitWriter& w, const InstanceSpec& spec, std::uint64_t layout);
/// Fields a layout lacks keep their `InstanceSpec` defaults.
[[nodiscard]] InstanceSpec read_spec(coding::BitReader& r, std::uint64_t layout);

void write_commands(coding::BitWriter& w, std::span<const dynamic::MutationCommand> commands,
                    Stamps stamps);
[[nodiscard]] std::vector<dynamic::MutationCommand> read_commands(coding::BitReader& r,
                                                                  Stamps stamps);

void write_edges(coding::BitWriter& w, std::span<const graph::Edge> edges);
[[nodiscard]] std::vector<graph::Edge> read_edges(coding::BitReader& r);

void write_graph(coding::BitWriter& w, const graph::Graph& g);
/// Accepts only the canonical encoding: every endpoint below n, edges
/// strictly increasing, so decode → encode reproduces the input bits.
[[nodiscard]] graph::Graph read_graph(coding::BitReader& r);

void write_batch_records(coding::BitWriter& w, std::span<const dynamic::BatchRecord> records);
/// Throws unless the records cover exactly `log_size` commands.
[[nodiscard]] std::vector<dynamic::BatchRecord> read_batch_records(coding::BitReader& r,
                                                                   std::size_t log_size);

/// The WAL record payload of `commit` (no frame).
[[nodiscard]] std::vector<std::uint8_t> encode_batch(const WalCommit& commit);
[[nodiscard]] CommittedBatch decode_batch(std::span<const std::uint8_t> payload);

}  // namespace fhg::engine::records
