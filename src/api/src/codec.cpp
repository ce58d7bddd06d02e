#include "fhg/api/codec.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "fhg/coding/bitio.hpp"
#include "fhg/engine/records.hpp"
#include "fhg/engine/snapshot.hpp"
#include "fhg/obs/registry.hpp"

namespace fhg::api {

namespace {

using coding::BitReader;
using coding::BitWriter;

// -- Codec telemetry ----------------------------------------------------------
//
// Bytes and frames through the codec land on the process-wide registry
// (`obs::Registry::global()`), *not* on any engine's registry: the /metrics
// endpoint scrapes them, but GetStats deliberately excludes them so that
// serving a stats request does not perturb the stats it reports.  The hot
// counters are cached once (Meyers statics); decode errors are rare enough
// to pay a registry lookup per occurrence, which buys a per-cause label.

obs::Counter& bytes_encoded_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("fhg_api_bytes_encoded_total");
  return counter;
}

obs::Counter& frames_encoded_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("fhg_api_frames_encoded_total");
  return counter;
}

obs::Counter& bytes_decoded_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("fhg_api_bytes_decoded_total");
  return counter;
}

obs::Counter& frames_decoded_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("fhg_api_frames_decoded_total");
  return counter;
}

void count_decode_error(const char* cause) {
  obs::Registry::global()
      .counter(std::string("fhg_api_decode_errors_total{cause=\"") + cause + "\"}")
      .increment();
}

[[noreturn]] void fail(const std::string& what) {
  throw coding::DecodeError("api codec: " + what);
}

namespace records = engine::records;
using coding::check_count;
using records::read_enum;
using records::read_name;
using records::read_node;
using records::write_name;

/// The api writes and reads specs in the snapshot-v2 layout.
constexpr std::uint64_t kApiSpecLayout = engine::kSnapshotVersionV2;

// -- Stats payloads -----------------------------------------------------------

/// Gauges can be negative; zigzag keeps small magnitudes small on the wire
/// (and keeps the varint out of the astronomically long two's-complement
/// encodings a negative value would otherwise produce).
std::uint64_t zigzag(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void write_histogram(BitWriter& w, const obs::Histogram& hist) {
  w.put_uint(obs::Histogram::kBuckets);
  for (const std::uint64_t count : hist.buckets) {
    w.put_uint(count);
  }
}

obs::Histogram read_histogram(BitReader& r) {
  const std::uint64_t buckets = r.get_uint();
  if (buckets != obs::Histogram::kBuckets) {
    fail("histogram with " + std::to_string(buckets) + " buckets; this build has " +
         std::to_string(obs::Histogram::kBuckets));
  }
  obs::Histogram hist;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    hist.buckets[i] = r.get_uint();
  }
  return hist;
}

void write_metric_samples(BitWriter& w, std::span<const obs::MetricSample> samples) {
  w.put_uint(samples.size());
  for (const obs::MetricSample& sample : samples) {
    write_name(w, sample.name);
    w.put_uint(static_cast<std::uint64_t>(sample.kind));
    switch (sample.kind) {
      case obs::MetricKind::kCounter:
        w.put_uint(sample.value);
        break;
      case obs::MetricKind::kGauge:
        w.put_uint(zigzag(static_cast<std::int64_t>(sample.value)));
        break;
      case obs::MetricKind::kHistogram:
        write_histogram(w, sample.histogram);
        break;
    }
  }
}

std::vector<obs::MetricSample> read_metric_samples(BitReader& r) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 3, "metric sample");  // name len + kind + >= 1 value bit
  std::vector<obs::MetricSample> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    obs::MetricSample sample;
    sample.name = read_name(r, "metric name byte");
    sample.kind = static_cast<obs::MetricKind>(
        read_enum(r, static_cast<std::uint64_t>(obs::MetricKind::kHistogram) + 1,
                     "metric kind"));
    switch (sample.kind) {
      case obs::MetricKind::kCounter:
        sample.value = r.get_uint();
        break;
      case obs::MetricKind::kGauge:
        sample.value = static_cast<std::uint64_t>(unzigzag(r.get_uint()));
        break;
      case obs::MetricKind::kHistogram:
        sample.histogram = read_histogram(r);
        sample.value = sample.histogram.total();
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

void write_trace_samples(BitWriter& w, std::span<const obs::TraceSample> traces) {
  w.put_uint(traces.size());
  for (const obs::TraceSample& trace : traces) {
    w.put_uint(trace.trace_id);
    w.put_uint(trace.request_id);
    w.put_uint(trace.kind);
    w.put_uint(trace.queue_us);
    w.put_uint(trace.serve_us);
    w.put_uint(trace.total_us);
  }
}

std::vector<obs::TraceSample> read_trace_samples(BitReader& r) {
  const std::uint64_t count = r.get_uint();
  check_count(r, count, 6, "trace sample");  // six codewords of >= 1 bit
  std::vector<obs::TraceSample> traces;
  traces.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    obs::TraceSample trace;
    trace.trace_id = r.get_uint();
    trace.request_id = r.get_uint();
    trace.kind = static_cast<std::uint8_t>(
        read_enum(r, kNumRequestKinds, "trace request kind"));
    trace.queue_us = r.get_uint();
    trace.serve_us = r.get_uint();
    trace.total_us = r.get_uint();
    traces.push_back(trace);
  }
  return traces;
}

// -- Request envelope ---------------------------------------------------------
//
// Byte-aligned after the body: a field count, then (tag, varint value)
// pairs.  Alignment is what makes "absent" unambiguous — after the reader
// aligns past the body's zero padding, an envelope-free payload has exactly
// zero bits left, while the smallest possible envelope spans at least one
// full byte.  Unknown tags are skipped for forward compatibility.

void write_envelope(BitWriter& w, std::uint64_t trace_id) {
  if (trace_id == 0) {
    return;  // no envelope: the frame stays byte-identical to pre-envelope encoders
  }
  w.align();
  w.put_uint(1);  // field count
  w.put_uint(kEnvelopeTraceId);
  w.put_uint(trace_id);
}

std::uint64_t read_envelope(BitReader& r) {
  r.align();
  if (r.remaining_bits() < 8) {
    return 0;  // no envelope present
  }
  std::uint64_t trace_id = 0;
  const std::uint64_t fields = r.get_uint();
  check_count(r, fields, 2, "envelope field");  // tag + value, >= 1 bit each
  for (std::uint64_t i = 0; i < fields; ++i) {
    const std::uint64_t tag = r.get_uint();
    const std::uint64_t value = r.get_uint();
    if (tag == kEnvelopeTraceId) {
      trace_id = value;
    }
    // Unknown tags: value read and discarded (forward compatibility).
  }
  return trace_id;
}

// -- Request bodies -----------------------------------------------------------

void write_request_body(BitWriter& w, const Request& request) {
  w.put_uint(request.index());
  std::visit(
      [&w](const auto& r) {
        using R = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<R, IsHappyRequest>) {
          write_name(w, r.instance);
          w.put_uint(r.node);
          w.put_uint(r.holiday);
        } else if constexpr (std::is_same_v<R, NextGatheringRequest>) {
          write_name(w, r.instance);
          w.put_uint(r.node);
          w.put_uint(r.after);
        } else if constexpr (std::is_same_v<R, ApplyMutationsRequest>) {
          write_name(w, r.instance);
          records::write_commands(w, r.commands, records::Stamps::kAbsolute);
        } else if constexpr (std::is_same_v<R, CreateInstanceRequest>) {
          write_name(w, r.instance);
          w.put_uint(r.nodes);
          records::write_edges(w, r.edges);
          records::write_spec(w, r.spec, kApiSpecLayout);
        } else if constexpr (std::is_same_v<R, EraseInstanceRequest>) {
          write_name(w, r.instance);
        } else if constexpr (std::is_same_v<R, RestoreRequest>) {
          records::write_bytes(w, r.bytes);
        } else if constexpr (std::is_same_v<R, GetStatsRequest>) {
          w.put_bit(r.include_histograms);
          w.put_bit(r.include_traces);
        } else if constexpr (std::is_same_v<R, SnapshotInstanceRequest>) {
          write_name(w, r.instance);
        } else if constexpr (std::is_same_v<R, RestoreInstanceRequest>) {
          write_name(w, r.instance);
          records::write_bytes(w, r.bytes);
        } else if constexpr (std::is_same_v<R, DrainBackendRequest>) {
          write_name(w, r.backend);
        } else {
          // ListInstances / Snapshot / RecoverInfo / Hello carry no fields
          // beyond the tag.
          static_assert(std::is_same_v<R, ListInstancesRequest> ||
                        std::is_same_v<R, SnapshotRequest> ||
                        std::is_same_v<R, RecoverInfoRequest> ||
                        std::is_same_v<R, HelloRequest>);
        }
      },
      request);
}

Request read_request_body(BitReader& r, std::uint64_t version) {
  const std::uint64_t tag = r.get_uint();
  if (tag >= kFirstV2RequestTag && version < 2) {
    // A version-1 frame can never legitimately carry a version-2 kind: the
    // tag space above the v1 bound simply does not exist at that version,
    // so this is a malformed frame, not a negotiable mismatch.
    fail("request tag " + std::to_string(tag) + " needs protocol version 2, frame claims " +
         std::to_string(version));
  }
  switch (tag) {
    case 0: {
      IsHappyRequest req;
      req.instance = read_name(r, "instance name byte");
      req.node = read_node(r);
      req.holiday = r.get_uint();
      return req;
    }
    case 1: {
      NextGatheringRequest req;
      req.instance = read_name(r, "instance name byte");
      req.node = read_node(r);
      req.after = r.get_uint();
      return req;
    }
    case 2: {
      ApplyMutationsRequest req;
      req.instance = read_name(r, "instance name byte");
      req.commands = records::read_commands(r, records::Stamps::kAbsolute);
      return req;
    }
    case 3: {
      CreateInstanceRequest req;
      req.instance = read_name(r, "instance name byte");
      req.nodes = read_node(r);
      req.edges = records::read_edges(r);
      req.spec = records::read_spec(r, kApiSpecLayout);
      return req;
    }
    case 4: {
      EraseInstanceRequest req;
      req.instance = read_name(r, "instance name byte");
      return req;
    }
    case 5:
      return ListInstancesRequest{};
    case 6:
      return SnapshotRequest{};
    case 7: {
      RestoreRequest req;
      req.bytes = records::read_bytes<std::vector<std::uint8_t>>(r, "snapshot byte");
      return req;
    }
    case 8: {
      GetStatsRequest req;
      req.include_histograms = r.get_bit();
      req.include_traces = r.get_bit();
      return req;
    }
    case 9:
      return RecoverInfoRequest{};
    case 10:
      return HelloRequest{};
    case 11: {
      SnapshotInstanceRequest req;
      req.instance = read_name(r, "instance name byte");
      return req;
    }
    case 12: {
      RestoreInstanceRequest req;
      req.instance = read_name(r, "instance name byte");
      req.bytes = records::read_bytes<std::vector<std::uint8_t>>(r, "snapshot byte");
      return req;
    }
    case 13: {
      DrainBackendRequest req;
      req.backend = read_name(r, "backend id byte");
      return req;
    }
    default:
      fail("unknown request tag " + std::to_string(tag));
  }
}

// -- Response bodies ----------------------------------------------------------

void write_response_body(BitWriter& w, const Response& response) {
  w.put_uint(static_cast<std::uint64_t>(response.status.code));
  write_name(w, response.status.detail);
  w.put_uint(response.payload.index());
  std::visit(
      [&w](const auto& p) {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, IsHappyResponse>) {
          w.put_bit(p.happy);
        } else if constexpr (std::is_same_v<P, NextGatheringResponse>) {
          w.put_uint(p.holiday);
        } else if constexpr (std::is_same_v<P, ApplyMutationsResponse>) {
          w.put_uint(p.applied);
          w.put_uint(p.recolors);
          w.put_uint(p.table_version);
        } else if constexpr (std::is_same_v<P, ListInstancesResponse>) {
          w.put_uint(p.instances.size());
          for (const InstanceInfo& info : p.instances) {
            write_name(w, info.name);
            w.put_uint(static_cast<std::uint64_t>(info.kind));
            w.put_uint(info.nodes);
            w.put_bit(info.periodic);
            w.put_bit(info.dynamic);
          }
        } else if constexpr (std::is_same_v<P, SnapshotResponse>) {
          records::write_bytes(w, p.bytes);
        } else if constexpr (std::is_same_v<P, RestoreResponse>) {
          w.put_uint(p.instances);
        } else if constexpr (std::is_same_v<P, GetStatsResponse>) {
          write_metric_samples(w, p.metrics);
          write_trace_samples(w, p.traces);
        } else if constexpr (std::is_same_v<P, RecoverInfoResponse>) {
          w.put_bit(p.wal_enabled);
          w.put_uint(p.last_durable_holiday);
          w.put_uint(p.wal_bytes);
          w.put_uint(p.segments);
          w.put_uint(p.appends);
          w.put_uint(p.fsyncs);
          w.put_uint(p.compactions);
          w.put_uint(p.replayed_batches);
          w.put_uint(p.replayed_commands);
          w.put_uint(p.skipped_batches);
          w.put_uint(p.torn_bytes);
          w.put_uint(p.durable_batches);
        } else if constexpr (std::is_same_v<P, HelloResponse>) {
          write_name(w, p.backend);
          w.put_uint(p.min_version);
          w.put_uint(p.max_version);
        } else if constexpr (std::is_same_v<P, SnapshotInstanceResponse>) {
          records::write_bytes(w, p.bytes);
        } else if constexpr (std::is_same_v<P, RestoreInstanceResponse>) {
          w.put_bit(p.replaced);
        } else if constexpr (std::is_same_v<P, DrainBackendResponse>) {
          w.put_uint(p.migrated);
        } else {
          // monostate / Create / Erase carry no fields beyond the tag.
          static_assert(std::is_same_v<P, std::monostate> ||
                        std::is_same_v<P, CreateInstanceResponse> ||
                        std::is_same_v<P, EraseInstanceResponse>);
        }
      },
      response.payload);
}

Response read_response_body(BitReader& r, std::uint64_t version) {
  Response response;
  response.status.code =
      static_cast<StatusCode>(read_enum(r, kNumStatusCodes, "status code"));
  response.status.detail = read_name(r, "status detail byte");
  const std::uint64_t tag = r.get_uint();
  if (tag >= kFirstV2ResponseTag && version < 2) {
    fail("response tag " + std::to_string(tag) + " needs protocol version 2, frame claims " +
         std::to_string(version));
  }
  switch (tag) {
    case 0:
      response.payload = std::monostate{};
      break;
    case 1: {
      IsHappyResponse p;
      p.happy = r.get_bit();
      response.payload = p;
      break;
    }
    case 2: {
      NextGatheringResponse p;
      p.holiday = r.get_uint();
      response.payload = p;
      break;
    }
    case 3: {
      ApplyMutationsResponse p;
      p.applied = r.get_uint();
      p.recolors = r.get_uint();
      p.table_version = r.get_uint();
      response.payload = p;
      break;
    }
    case 4:
      response.payload = CreateInstanceResponse{};
      break;
    case 5:
      response.payload = EraseInstanceResponse{};
      break;
    case 6: {
      ListInstancesResponse p;
      const std::uint64_t count = r.get_uint();
      check_count(r, count, 5, "instance info");  // name len + 2 uints + 2 bits
      p.instances.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        InstanceInfo info;
        info.name = read_name(r, "instance name byte");
        info.kind = static_cast<engine::SchedulerKind>(read_enum(
            r, static_cast<std::uint64_t>(engine::SchedulerKind::kDynamicPrefixCode) + 1,
            "scheduler kind"));
        info.nodes = read_node(r);
        info.periodic = r.get_bit();
        info.dynamic = r.get_bit();
        p.instances.push_back(std::move(info));
      }
      response.payload = std::move(p);
      break;
    }
    case 7: {
      SnapshotResponse p;
      p.bytes = records::read_bytes<std::vector<std::uint8_t>>(r, "snapshot byte");
      response.payload = std::move(p);
      break;
    }
    case 8: {
      RestoreResponse p;
      p.instances = r.get_uint();
      response.payload = p;
      break;
    }
    case 9: {
      GetStatsResponse p;
      p.metrics = read_metric_samples(r);
      p.traces = read_trace_samples(r);
      response.payload = std::move(p);
      break;
    }
    case 10: {
      RecoverInfoResponse p;
      p.wal_enabled = r.get_bit();
      p.last_durable_holiday = r.get_uint();
      p.wal_bytes = r.get_uint();
      p.segments = r.get_uint();
      p.appends = r.get_uint();
      p.fsyncs = r.get_uint();
      p.compactions = r.get_uint();
      p.replayed_batches = r.get_uint();
      p.replayed_commands = r.get_uint();
      p.skipped_batches = r.get_uint();
      p.torn_bytes = r.get_uint();
      p.durable_batches = r.get_uint();
      response.payload = p;
      break;
    }
    case 11: {
      HelloResponse p;
      p.backend = read_name(r, "backend id byte");
      p.min_version = r.get_uint();
      p.max_version = r.get_uint();
      response.payload = std::move(p);
      break;
    }
    case 12: {
      SnapshotInstanceResponse p;
      p.bytes = records::read_bytes<std::vector<std::uint8_t>>(r, "snapshot byte");
      response.payload = std::move(p);
      break;
    }
    case 13: {
      RestoreInstanceResponse p;
      p.replaced = r.get_bit();
      response.payload = p;
      break;
    }
    case 14: {
      DrainBackendResponse p;
      p.migrated = r.get_uint();
      response.payload = p;
      break;
    }
    default:
      fail("unknown response tag " + std::to_string(tag));
  }
  return response;
}

// -- Framing ------------------------------------------------------------------

/// Wraps a finished payload in the 8-byte header.
std::vector<std::uint8_t> frame_payload(std::vector<std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("api codec: payload of " + std::to_string(payload.size()) +
                            " bytes exceeds kMaxFramePayload");
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>(kFrameMagic >> shift));
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>(length >> shift));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// Validates the header of a complete frame and returns the payload span.
/// Non-ok statuses mirror `FrameAssembler`'s framing errors; `cause` names
/// the failure for the per-cause decode-error counter.
Status framed_payload(std::span<const std::uint8_t> frame,
                      std::span<const std::uint8_t>& payload, const char*& cause) {
  if (frame.size() < kFrameHeaderBytes) {
    cause = "short-frame";
    return Status::error(StatusCode::kDecodeError,
                         "frame of " + std::to_string(frame.size()) +
                             " bytes is shorter than the 8-byte header");
  }
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    magic = (magic << 8) | frame[i];
    length = (length << 8) | frame[4 + i];
  }
  if (magic != kFrameMagic) {
    cause = "bad-magic";
    return Status::error(StatusCode::kDecodeError, "bad frame magic");
  }
  if (length > kMaxFramePayload) {
    cause = "oversized";
    return Status::error(StatusCode::kDecodeError,
                         "length prefix " + std::to_string(length) + " exceeds the " +
                             std::to_string(kMaxFramePayload) + "-byte frame bound");
  }
  if (length != frame.size() - kFrameHeaderBytes) {
    cause = "length-mismatch";
    return Status::error(StatusCode::kDecodeError,
                         "length prefix " + std::to_string(length) + " does not match the " +
                             std::to_string(frame.size() - kFrameHeaderBytes) +
                             " payload bytes present");
  }
  payload = frame.subspan(kFrameHeaderBytes);
  return Status::good();
}

/// Shared prologue decode: version then request id.  Fills `version` and
/// `request_id` (best effort) and returns non-ok for unsupported versions.
Status decode_prologue(BitReader& r, std::uint64_t& version, std::uint64_t& request_id) {
  version = r.get_uint();
  request_id = r.get_uint();
  if (version < kMinSupportedVersion || version > kProtocolVersion) {
    return Status::error(StatusCode::kUnsupportedVersion,
                         "peer speaks protocol version " + std::to_string(version) +
                             "; this build supports versions " +
                             std::to_string(kMinSupportedVersion) + " through " +
                             std::to_string(kProtocolVersion));
  }
  return Status::good();
}

}  // namespace

std::vector<std::uint8_t> encode_request(std::uint64_t request_id, const Request& request,
                                         std::uint64_t version, std::uint64_t trace_id) {
  BitWriter w;
  w.put_uint(version);
  w.put_uint(request_id);
  write_request_body(w, request);
  write_envelope(w, trace_id);
  std::vector<std::uint8_t> frame = frame_payload(w.finish());
  bytes_encoded_counter().add(frame.size());
  frames_encoded_counter().increment();
  return frame;
}

std::vector<std::uint8_t> encode_response(std::uint64_t request_id, const Response& response,
                                          std::uint64_t version) {
  std::vector<std::uint8_t> frame;
  encode_response_into(request_id, response, frame, version);
  return frame;
}

void encode_response_into(std::uint64_t request_id, const Response& response,
                          std::vector<std::uint8_t>& frame, std::uint64_t version) {
  BitWriter w;
  w.put_uint(version);
  w.put_uint(request_id);
  write_response_body(w, response);
  const std::vector<std::uint8_t> payload = w.finish();
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("api codec: payload of " + std::to_string(payload.size()) +
                            " bytes exceeds kMaxFramePayload");
  }
  frame.clear();
  frame.reserve(kFrameHeaderBytes + payload.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>(kFrameMagic >> shift));
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>(length >> shift));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  bytes_encoded_counter().add(frame.size());
  frames_encoded_counter().increment();
}

Status decode_request(std::span<const std::uint8_t> frame, DecodedRequest& out) {
  out = DecodedRequest{};
  std::span<const std::uint8_t> payload;
  const char* cause = "frame";
  if (Status status = framed_payload(frame, payload, cause); !status.ok()) {
    count_decode_error(cause);
    return status;
  }
  BitReader r(payload);
  try {
    if (Status status = decode_prologue(r, out.protocol_version, out.request_id);
        !status.ok()) {
      count_decode_error("version");
      return status;
    }
    out.request = read_request_body(r, out.protocol_version);
    out.trace_id = read_envelope(r);
  } catch (const std::runtime_error& e) {
    count_decode_error("body");
    return Status::error(StatusCode::kDecodeError, e.what());
  }
  bytes_decoded_counter().add(frame.size());
  frames_decoded_counter().increment();
  return Status::good();
}

Status decode_response(std::span<const std::uint8_t> frame, DecodedResponse& out) {
  out = DecodedResponse{};
  std::span<const std::uint8_t> payload;
  const char* cause = "frame";
  if (Status status = framed_payload(frame, payload, cause); !status.ok()) {
    count_decode_error(cause);
    return status;
  }
  BitReader r(payload);
  try {
    if (Status status = decode_prologue(r, out.protocol_version, out.request_id);
        !status.ok()) {
      count_decode_error("version");
      return status;
    }
    out.response = read_response_body(r, out.protocol_version);
  } catch (const std::runtime_error& e) {
    count_decode_error("body");
    return Status::error(StatusCode::kDecodeError, e.what());
  }
  bytes_decoded_counter().add(frame.size());
  frames_decoded_counter().increment();
  return Status::good();
}

// ------------------------------------------------------------ FrameAssembler --

Status FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  if (!error_.ok()) {
    return error_;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  validate_front();
  return error_;
}

void FrameAssembler::validate_front() {
  if (!error_.ok() || buffer_.size() < kFrameHeaderBytes) {
    return;
  }
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    magic = (magic << 8) | buffer_[i];
    length = (length << 8) | buffer_[4 + i];
  }
  if (magic != kFrameMagic) {
    error_ = Status::error(StatusCode::kDecodeError, "bad frame magic");
  } else if (length > max_payload_) {
    error_ = Status::error(StatusCode::kDecodeError,
                           "length prefix " + std::to_string(length) + " exceeds the " +
                               std::to_string(max_payload_) + "-byte frame bound");
  }
}

void FrameAssembler::reset() {
  buffer_.clear();
  error_ = Status::good();
}

std::optional<std::vector<std::uint8_t>> FrameAssembler::next() {
  if (!error_.ok() || buffer_.size() < kFrameHeaderBytes) {
    return std::nullopt;
  }
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    length = (length << 8) | buffer_[4 + i];
  }
  const std::size_t total = kFrameHeaderBytes + length;
  if (buffer_.size() < total) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> frame(buffer_.begin(),
                                  buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  validate_front();  // the next frame's header may already be buffered
  return frame;
}

}  // namespace fhg::api
